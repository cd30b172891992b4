//! Fixed-width 256-bit and 512-bit unsigned integers.
//!
//! These back the EVM word type, wei balances, and the secp256k1 field and
//! scalar arithmetic in `ofl-eth`. Limbs are stored little-endian (`limbs[0]`
//! is least significant) which keeps carry propagation loops simple and lets
//! the widening multiply produce a [`U512`] without reallocation.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Not, Rem, Shl, Shr, Sub};

/// A 256-bit unsigned integer with wrapping two's-complement semantics where
/// noted and checked semantics elsewhere.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

/// A 512-bit unsigned integer, used as the intermediate type for widening
/// multiplication and modular reduction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U512(pub [u64; 8]);

impl U256 {
    pub const ZERO: U256 = U256([0; 4]);
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Constructs from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Constructs from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Little-endian limb accessor.
    #[inline]
    pub const fn limbs(&self) -> &[u64; 4] {
        &self.0
    }

    /// True iff the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Lowest 64 bits, truncating.
    #[inline]
    pub const fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Lowest 128 bits, truncating.
    #[inline]
    pub const fn low_u128(&self) -> u128 {
        (self.0[0] as u128) | ((self.0[1] as u128) << 64)
    }

    /// Returns `Some(self as u64)` when the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        if self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0 {
            Some(self.0[0])
        } else {
            None
        }
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i as u32 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Value of bit `i` (little-endian bit order).
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 256);
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Big-endian 32-byte encoding.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.0[3 - i].to_be_bytes());
        }
        out
    }

    /// Parses a big-endian 32-byte encoding.
    pub fn from_be_bytes(b: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[i * 8..(i + 1) * 8]);
            limbs[3 - i] = u64::from_be_bytes(w);
        }
        U256(limbs)
    }

    /// Parses a big-endian slice of at most 32 bytes (shorter slices are
    /// zero-extended on the left, as in EVM calldata).
    pub fn from_be_slice(b: &[u8]) -> Self {
        assert!(b.len() <= 32, "slice too long for U256");
        let mut buf = [0u8; 32];
        buf[32 - b.len()..].copy_from_slice(b);
        Self::from_be_bytes(&buf)
    }

    /// Big-endian encoding with leading zero bytes stripped (empty for zero).
    /// This is the canonical RLP integer form.
    pub fn to_be_bytes_trimmed(&self) -> Vec<u8> {
        let full = self.to_be_bytes();
        let first = full.iter().position(|&b| b != 0).unwrap_or(32);
        full[first..].to_vec()
    }

    /// Checked addition.
    pub fn checked_add(&self, rhs: &U256) -> Option<U256> {
        let (v, overflow) = self.overflowing_add(rhs);
        if overflow {
            None
        } else {
            Some(v)
        }
    }

    /// Wrapping addition with overflow flag.
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for (i, limb) in out.iter_mut().enumerate() {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            *limb = s2;
            carry = c1 | c2;
        }
        (U256(out), carry)
    }

    /// Wrapping (mod 2^256) addition — EVM `ADD` semantics.
    #[inline]
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, rhs: &U256) -> Option<U256> {
        let (v, borrow) = self.overflowing_sub(rhs);
        if borrow {
            None
        } else {
            Some(v)
        }
    }

    /// Wrapping subtraction with borrow flag.
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for (i, limb) in out.iter_mut().enumerate() {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            *limb = d2;
            borrow = b1 | b2;
        }
        (U256(out), borrow)
    }

    /// Wrapping (mod 2^256) subtraction — EVM `SUB` semantics.
    #[inline]
    pub fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Full 256×256→512-bit multiplication.
    pub fn widening_mul(&self, rhs: &U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let cur = out[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + 4] = carry as u64;
        }
        U512(out)
    }

    /// Wrapping (mod 2^256) multiplication — EVM `MUL` semantics.
    pub fn wrapping_mul(&self, rhs: &U256) -> U256 {
        let wide = self.widening_mul(rhs);
        U256([wide.0[0], wide.0[1], wide.0[2], wide.0[3]])
    }

    /// Checked multiplication.
    pub fn checked_mul(&self, rhs: &U256) -> Option<U256> {
        let wide = self.widening_mul(rhs);
        if wide.0[4..].iter().any(|&l| l != 0) {
            None
        } else {
            Some(U256([wide.0[0], wide.0[1], wide.0[2], wide.0[3]]))
        }
    }

    /// Simultaneous quotient and remainder. Division by zero yields
    /// `(0, 0)` to match EVM `DIV`/`MOD` conventions; checked wrappers reject
    /// zero divisors where Rust semantics are wanted.
    pub fn div_rem(&self, divisor: &U256) -> (U256, U256) {
        if divisor.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        if self < divisor {
            return (U256::ZERO, *self);
        }
        if divisor.bits() <= 64 {
            let d = divisor.0[0];
            let mut q = [0u64; 4];
            let mut rem: u64 = 0;
            for i in (0..4).rev() {
                let cur = ((rem as u128) << 64) | self.0[i] as u128;
                q[i] = (cur / d as u128) as u64;
                rem = (cur % d as u128) as u64;
            }
            return (U256(q), U256::from_u64(rem));
        }
        // Shift-subtract long division, processing one bit at a time from the
        // most significant set bit of the dividend.
        let mut quotient = U256::ZERO;
        let mut remainder = U256::ZERO;
        let n = self.bits();
        for i in (0..n).rev() {
            remainder = remainder.shl_small(1);
            if self.bit(i as usize) {
                remainder.0[0] |= 1;
            }
            if remainder >= *divisor {
                remainder = remainder.wrapping_sub(divisor);
                quotient.0[(i / 64) as usize] |= 1 << (i % 64);
            }
        }
        (quotient, remainder)
    }

    /// Checked division (`None` on division by zero).
    pub fn checked_div(&self, rhs: &U256) -> Option<U256> {
        if rhs.is_zero() {
            None
        } else {
            Some(self.div_rem(rhs).0)
        }
    }

    /// Checked remainder (`None` on division by zero).
    pub fn checked_rem(&self, rhs: &U256) -> Option<U256> {
        if rhs.is_zero() {
            None
        } else {
            Some(self.div_rem(rhs).1)
        }
    }

    /// Left shift by fewer than 64 bits (internal fast path).
    fn shl_small(&self, s: u32) -> U256 {
        debug_assert!(s < 64);
        if s == 0 {
            return *self;
        }
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (i, limb) in out.iter_mut().enumerate() {
            *limb = (self.0[i] << s) | carry;
            carry = self.0[i] >> (64 - s);
        }
        U256(out)
    }

    /// Left shift by an arbitrary amount; shifts of ≥256 yield zero
    /// (EVM `SHL` semantics).
    pub fn shl(&self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        out[limb_shift..].copy_from_slice(&self.0[..4 - limb_shift]);
        U256(out).shl_small(bit_shift)
    }

    /// Right shift by an arbitrary amount; shifts of ≥256 yield zero
    /// (EVM `SHR` semantics).
    pub fn shr(&self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        out[..4 - limb_shift].copy_from_slice(&self.0[limb_shift..]);
        if bit_shift > 0 {
            let mut carry = 0u64;
            for i in (0..4).rev() {
                let new_carry = out[i] << (64 - bit_shift);
                out[i] = (out[i] >> bit_shift) | carry;
                carry = new_carry;
            }
        }
        U256(out)
    }

    /// Modular addition: `(self + rhs) mod m`. Requires `m != 0`.
    pub fn add_mod(&self, rhs: &U256, m: &U256) -> U256 {
        assert!(!m.is_zero(), "add_mod by zero modulus");
        let (sum, carry) = self.overflowing_add(rhs);
        if carry {
            // sum + 2^256 ≡ sum + (2^256 mod m)  — fold via U512 reduction.
            let mut wide = [0u64; 8];
            wide[..4].copy_from_slice(&sum.0);
            wide[4] = 1;
            U512(wide).rem_u256(m)
        } else {
            sum.div_rem(m).1
        }
    }

    /// Modular subtraction: `(self - rhs) mod m`. Requires `m != 0`.
    pub fn sub_mod(&self, rhs: &U256, m: &U256) -> U256 {
        assert!(!m.is_zero(), "sub_mod by zero modulus");
        let a = self.div_rem(m).1;
        let b = rhs.div_rem(m).1;
        if a >= b {
            a.wrapping_sub(&b)
        } else {
            m.wrapping_sub(&b).wrapping_add(&a)
        }
    }

    /// Modular multiplication via 512-bit intermediate: `(self * rhs) mod m`.
    pub fn mul_mod(&self, rhs: &U256, m: &U256) -> U256 {
        assert!(!m.is_zero(), "mul_mod by zero modulus");
        self.widening_mul(rhs).rem_u256(m)
    }

    /// Modular exponentiation by square-and-multiply.
    pub fn pow_mod(&self, exp: &U256, m: &U256) -> U256 {
        assert!(!m.is_zero(), "pow_mod by zero modulus");
        if *m == U256::ONE {
            return U256::ZERO;
        }
        let mut base = self.div_rem(m).1;
        let mut result = U256::ONE;
        let nbits = exp.bits();
        for i in 0..nbits {
            if exp.bit(i as usize) {
                result = result.mul_mod(&base, m);
            }
            base = base.mul_mod(&base, m);
        }
        result
    }

    /// Modular inverse via Fermat's little theorem (`m` must be prime and
    /// `self` nonzero mod `m`). Returns `None` when `self ≡ 0 (mod m)`.
    pub fn inv_mod_prime(&self, m: &U256) -> Option<U256> {
        let a = self.div_rem(m).1;
        if a.is_zero() {
            return None;
        }
        let exp = m.wrapping_sub(&U256::from_u64(2));
        Some(a.pow_mod(&exp, m))
    }

    /// Wrapping exponentiation (mod 2^256) — EVM `EXP` semantics.
    pub fn wrapping_pow(&self, exp: &U256) -> U256 {
        let mut base = *self;
        let mut result = U256::ONE;
        let nbits = exp.bits();
        for i in 0..nbits {
            if exp.bit(i as usize) {
                result = result.wrapping_mul(&base);
            }
            base = base.wrapping_mul(&base);
        }
        result
    }

    /// Parses a decimal string.
    pub fn from_dec_str(s: &str) -> Result<U256, U256ParseError> {
        if s.is_empty() {
            return Err(U256ParseError::Empty);
        }
        let mut acc = U256::ZERO;
        let ten = U256::from_u64(10);
        for c in s.chars() {
            let d = c.to_digit(10).ok_or(U256ParseError::InvalidDigit(c))?;
            acc = acc
                .checked_mul(&ten)
                .and_then(|v| v.checked_add(&U256::from_u64(d as u64)))
                .ok_or(U256ParseError::Overflow)?;
        }
        Ok(acc)
    }

    /// Parses a hex string with optional `0x` prefix.
    pub fn from_hex_str(s: &str) -> Result<U256, U256ParseError> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() {
            return Err(U256ParseError::Empty);
        }
        if s.len() > 64 {
            return Err(U256ParseError::Overflow);
        }
        let mut acc = U256::ZERO;
        for c in s.chars() {
            let d = c.to_digit(16).ok_or(U256ParseError::InvalidDigit(c))?;
            acc = acc.shl(4);
            acc.0[0] |= d as u64;
        }
        Ok(acc)
    }

    /// Renders as a decimal string.
    pub fn to_dec_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = *self;
        let ten = U256::from_u64(10);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(&ten);
            digits.push(b'0' + r.low_u64() as u8);
            cur = q;
        }
        digits.reverse();
        String::from_utf8(digits).expect("digits are ASCII")
    }
}

/// Errors from parsing textual [`U256`] representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum U256ParseError {
    /// Empty input string.
    Empty,
    /// A character outside the radix.
    InvalidDigit(char),
    /// Value exceeds 2^256 - 1.
    Overflow,
}

impl fmt::Display for U256ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            U256ParseError::Empty => write!(f, "empty numeric string"),
            U256ParseError::InvalidDigit(c) => write!(f, "invalid digit {c:?}"),
            U256ParseError::Overflow => write!(f, "value does not fit in 256 bits"),
        }
    }
}

impl std::error::Error for U256ParseError {}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{self:x})")
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_dec_string())
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.to_be_bytes();
        let s: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let trimmed = s.trim_start_matches('0');
        f.write_str(if trimmed.is_empty() { "0" } else { trimmed })
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl From<u32> for U256 {
    fn from(v: u32) -> Self {
        U256::from_u64(v as u64)
    }
}

impl From<u8> for U256 {
    fn from(v: u8) -> Self {
        U256::from_u64(v as u64)
    }
}

impl From<usize> for U256 {
    fn from(v: usize) -> Self {
        U256::from_u64(v as u64)
    }
}

// Operator impls use the checked/wrapping primitives: `+`, `-`, `*` panic on
// overflow in debug spirit (they are checked always, since silent wraparound
// in wei accounting would be a consensus bug); EVM code paths call the
// wrapping_* methods explicitly.
impl Add for U256 {
    type Output = U256;
    fn add(self, rhs: U256) -> U256 {
        self.checked_add(&rhs).expect("U256 addition overflow")
    }
}

impl Sub for U256 {
    type Output = U256;
    fn sub(self, rhs: U256) -> U256 {
        self.checked_sub(&rhs).expect("U256 subtraction underflow")
    }
}

impl Mul for U256 {
    type Output = U256;
    fn mul(self, rhs: U256) -> U256 {
        self.checked_mul(&rhs)
            .expect("U256 multiplication overflow")
    }
}

impl Div for U256 {
    type Output = U256;
    fn div(self, rhs: U256) -> U256 {
        self.checked_div(&rhs).expect("U256 division by zero")
    }
}

impl Rem for U256 {
    type Output = U256;
    fn rem(self, rhs: U256) -> U256 {
        self.checked_rem(&rhs).expect("U256 remainder by zero")
    }
}

impl Not for U256 {
    type Output = U256;
    fn not(self) -> U256 {
        U256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: U256) -> U256 {
        U256([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl BitXor for U256 {
    type Output = U256;
    fn bitxor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    fn shl(self, s: u32) -> U256 {
        U256::shl(&self, s)
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    fn shr(self, s: u32) -> U256 {
        U256::shr(&self, s)
    }
}

impl U512 {
    pub const ZERO: U512 = U512([0; 8]);

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 8]
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        for i in (0..8).rev() {
            if self.0[i] != 0 {
                return 64 * i as u32 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Value of bit `i`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 512);
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Widens a [`U256`] into the low half.
    pub fn from_u256(v: &U256) -> Self {
        let mut limbs = [0u64; 8];
        limbs[..4].copy_from_slice(&v.0);
        U512(limbs)
    }

    /// Truncates to the low 256 bits.
    pub fn low_u256(&self) -> U256 {
        U256([self.0[0], self.0[1], self.0[2], self.0[3]])
    }

    /// `self mod m` for a 256-bit modulus, by binary long division.
    ///
    /// This is the workhorse for `mul_mod`; it is O(512) shift-subtract steps
    /// which is plenty fast for the transaction volumes the simulator sees.
    pub fn rem_u256(&self, m: &U256) -> U256 {
        assert!(!m.is_zero(), "rem_u256 by zero modulus");
        let mut rem = U256::ZERO;
        let n = self.bits();
        for i in (0..n).rev() {
            // rem = rem * 2 + bit; rem stays < 2m < 2^257 so track the carry.
            let (shifted, carry) = rem.overflowing_add(&rem);
            rem = shifted;
            let mut ge = carry;
            if self.bit(i as usize) {
                let (r2, c2) = rem.overflowing_add(&U256::ONE);
                rem = r2;
                ge |= c2;
            }
            if ge || rem >= *m {
                rem = rem.wrapping_sub(m);
            }
        }
        rem
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U512(")?;
        for (i, limb) in self.0.iter().enumerate().rev() {
            if i == 7 {
                write!(f, "{limb:016x}")?;
            } else {
                write!(f, "_{limb:016x}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn add_basic_and_carry() {
        assert_eq!(u(2) + u(3), u(5));
        let max_limb = U256([u64::MAX, 0, 0, 0]);
        assert_eq!(max_limb + u(1), U256([0, 1, 0, 0]));
    }

    #[test]
    fn add_overflow_detected() {
        assert!(U256::MAX.checked_add(&U256::ONE).is_none());
        let (wrapped, carry) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(carry);
        assert_eq!(wrapped, U256::ZERO);
    }

    #[test]
    fn sub_borrow_chain() {
        let a = U256([0, 0, 0, 1]);
        let b = U256::ONE;
        let expect = U256([u64::MAX, u64::MAX, u64::MAX, 0]);
        assert_eq!(a - b, expect);
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    fn mul_widening_cross_limb() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = U256([u64::MAX, 0, 0, 0]);
        let w = a.widening_mul(&a);
        let expect = (u64::MAX as u128) * (u64::MAX as u128);
        assert_eq!(w.low_u256().low_u128(), expect);
        assert!(w.0[2..].iter().all(|&l| l == 0));
    }

    #[test]
    fn mul_checked_overflow() {
        let big = U256::ONE.shl(200);
        assert!(big.checked_mul(&big).is_none());
        assert_eq!(big.checked_mul(&U256::ONE), Some(big));
    }

    #[test]
    fn div_rem_small_divisor() {
        let a = U256::from_u128(1_000_000_000_000_000_007);
        let (q, r) = a.div_rem(&u(10));
        assert_eq!(q, U256::from_u128(100_000_000_000_000_000));
        assert_eq!(r, u(7));
    }

    #[test]
    fn div_rem_large_divisor() {
        let a = U256::ONE.shl(200) + u(12345);
        let b = U256::ONE.shl(100) + u(7);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q * b + r, a);
        assert!(r < b);
    }

    #[test]
    fn div_by_zero_evm_semantics() {
        assert_eq!(u(5).div_rem(&U256::ZERO), (U256::ZERO, U256::ZERO));
        assert!(u(5).checked_div(&U256::ZERO).is_none());
    }

    #[test]
    fn shifts() {
        assert_eq!(U256::ONE.shl(255).bits(), 256);
        assert_eq!(U256::ONE.shl(256), U256::ZERO);
        assert_eq!(U256::ONE.shl(64), U256([0, 1, 0, 0]));
        assert_eq!(U256([0, 1, 0, 0]).shr(64), U256::ONE);
        assert_eq!(U256::MAX.shr(255), U256::ONE);
        assert_eq!(U256::MAX.shr(256), U256::ZERO);
        assert_eq!(u(0b1010).shr(1), u(0b101));
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256([
            0x0123456789abcdef,
            0xfedcba9876543210,
            7,
            0x8000000000000000,
        ]);
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
        let bytes = v.to_be_bytes();
        assert_eq!(bytes[0], 0x80);
        assert_eq!(bytes[31], 0xef);
    }

    #[test]
    fn be_slice_zero_extends() {
        assert_eq!(U256::from_be_slice(&[0x12, 0x34]), u(0x1234));
        assert_eq!(U256::from_be_slice(&[]), U256::ZERO);
    }

    #[test]
    fn trimmed_bytes() {
        assert_eq!(U256::ZERO.to_be_bytes_trimmed(), Vec::<u8>::new());
        assert_eq!(u(0x1234).to_be_bytes_trimmed(), vec![0x12, 0x34]);
    }

    #[test]
    fn dec_string_roundtrip() {
        for s in [
            "0",
            "1",
            "10",
            "255",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
        ] {
            let v = U256::from_dec_str(s).unwrap();
            assert_eq!(v.to_dec_string(), s);
        }
        assert!(U256::from_dec_str("").is_err());
        assert!(U256::from_dec_str("12a").is_err());
    }

    #[test]
    fn hex_parse() {
        assert_eq!(U256::from_hex_str("0xff").unwrap(), u(255));
        assert_eq!(U256::from_hex_str("ff").unwrap(), u(255));
        assert!(U256::from_hex_str(&"f".repeat(65)).is_err());
    }

    #[test]
    fn dec_overflow_detected() {
        // 2^256 exactly
        let s = "115792089237316195423570985008687907853269984665640564039457584007913129639936";
        assert_eq!(U256::from_dec_str(s), Err(U256ParseError::Overflow));
        // 2^256 - 1 parses
        let s = "115792089237316195423570985008687907853269984665640564039457584007913129639935";
        assert_eq!(U256::from_dec_str(s).unwrap(), U256::MAX);
    }

    #[test]
    fn mod_arithmetic() {
        let m = u(97);
        assert_eq!(u(50).add_mod(&u(60), &m), u(13));
        assert_eq!(u(10).sub_mod(&u(20), &m), u(87));
        assert_eq!(u(50).mul_mod(&u(60), &m), u(3000 % 97));
        assert_eq!(u(5).pow_mod(&u(3), &m), u(125 % 97));
    }

    #[test]
    fn add_mod_with_carry_folding() {
        // a + b overflows 2^256; result must equal (a+b) mod m computed wide.
        let m = U256::ONE.shl(255) - u(19);
        let a = U256::MAX - u(5);
        let b = U256::MAX - u(7);
        let got = a.add_mod(&b, &m);
        // verify: got ≡ a+b (mod m) by checking (got - a mod m - b mod m) ≡ 0
        let check = got
            .sub_mod(&a.div_rem(&m).1, &m)
            .sub_mod(&b.div_rem(&m).1, &m);
        assert!(check.is_zero());
        assert!(got < m);
    }

    #[test]
    fn inv_mod_prime_works() {
        let p = u(101);
        for a in 1..100u64 {
            let inv = u(a).inv_mod_prime(&p).unwrap();
            assert_eq!(u(a).mul_mod(&inv, &p), U256::ONE, "a={a}");
        }
        assert!(U256::ZERO.inv_mod_prime(&p).is_none());
    }

    #[test]
    fn pow_mod_secp_prime_smoke() {
        // p = 2^256 - 2^32 - 977 (secp256k1 field prime); Fermat: a^(p-1) = 1.
        let p =
            U256::from_hex_str("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        let a = u(123456789);
        let exp = p.wrapping_sub(&U256::ONE);
        assert_eq!(a.pow_mod(&exp, &p), U256::ONE);
    }

    #[test]
    fn wrapping_pow_matches_u128() {
        let r = u(3).wrapping_pow(&u(40));
        assert_eq!(r.low_u128(), 3u128.pow(40));
    }

    #[test]
    fn u512_rem() {
        let a = U256::MAX;
        let wide = a.widening_mul(&a);
        let m = u(1_000_000_007);
        let r = wide.rem_u256(&m);
        // (2^256-1)^2 mod m computed independently via pow_mod
        let expect = a.div_rem(&m).1.mul_mod(&a.div_rem(&m).1, &m);
        assert_eq!(r, expect);
    }

    #[test]
    fn ordering() {
        assert!(U256([0, 0, 0, 1]) > U256([u64::MAX, u64::MAX, u64::MAX, 0]));
        assert!(u(5) < u(6));
        assert_eq!(u(5).cmp(&u(5)), Ordering::Equal);
    }

    #[test]
    fn display_hex() {
        assert_eq!(format!("{:x}", u(255)), "ff");
        assert_eq!(format!("{:x}", U256::ZERO), "0");
        assert_eq!(format!("{}", u(1234)), "1234");
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(u(0b1100) & u(0b1010), u(0b1000));
        assert_eq!(u(0b1100) | u(0b1010), u(0b1110));
        assert_eq!(u(0b1100) ^ u(0b1010), u(0b0110));
        assert_eq!(!U256::ZERO, U256::MAX);
    }
}
