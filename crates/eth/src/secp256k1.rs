//! secp256k1 elliptic-curve arithmetic and ECDSA, from scratch.
//!
//! Implements the curve `y² = x³ + 7` over the field `F_p` with
//! `p = 2^256 - 2^32 - 977`, Jacobian-coordinate group law, deterministic
//! RFC-6979 nonces, low-`s` normalized signatures, and public-key recovery
//! (the `ecrecover` primitive that lets the chain derive a transaction's
//! sender from its signature alone).
//!
//! The field and scalar layers run on module-local 4×64-bit limb helpers
//! that the compiler inlines, so no field or scalar operation calls into
//! the general-purpose [`U256`] arithmetic. `recover` and `verify` share
//! one variable-base multiply, `u1·R + u2·G`: the GLV endomorphism splits
//! `u1` into two ~128-bit halves that share their doublings, and the `G`
//! term comes from a fixed-base table that needs none.

use ofl_primitives::hotpath::{HotPhase, PhaseTimer};
use ofl_primitives::u256::U256;
use ofl_primitives::{hmac_sha256, keccak256, H160};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// The field prime `p = 2^256 - 2^32 - 977`.
pub const P: U256 = U256([
    0xfffffffefffffc2f,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
]);

/// The group order `n`.
pub const N: U256 = U256([
    0xbfd25e8cd0364141,
    0xbaaedce6af48a03b,
    0xfffffffffffffffe,
    0xffffffffffffffff,
]);

/// Generator x-coordinate.
pub const GX: U256 = U256([
    0x59f2815b16f81798,
    0x029bfcdb2dce28d9,
    0x55a06295ce870b07,
    0x79be667ef9dcbbac,
]);

/// Generator y-coordinate.
pub const GY: U256 = U256([
    0x9c47d08ffb10d4b8,
    0xfd17b448a6855419,
    0x5da4fbfc0e1108a8,
    0x483ada7726a3c465,
]);

/// Little-endian 64-bit limbs of a 256-bit value.
type Limbs = [u64; 4];

/// `2^256 - p = 2^32 + 977`, the folding constant for reduction mod `p`.
const P_FOLD: Limbs = [0x1000003d1, 0, 0, 0];

/// `2^256 - n` (about 2^129), the folding constant for reduction mod `n`.
const N_FOLD: Limbs = [0x402da1732fc9bebf, 0x4551231950b75fc4, 0x1, 0];

/// `a + b + carry`: the low limb and the carry out.
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a - b - borrow` for `borrow ∈ {0, 1}`: the low limb and the borrow out.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, (t >> 127) as u64)
}

/// 256-bit addition with the carry out.
#[inline(always)]
fn add4(a: &Limbs, b: &Limbs) -> (Limbs, u64) {
    let mut r = [0u64; 4];
    let mut carry = 0;
    for i in 0..4 {
        (r[i], carry) = adc(a[i], b[i], carry);
    }
    (r, carry)
}

/// 256-bit subtraction with the borrow out.
#[inline(always)]
fn sub4(a: &Limbs, b: &Limbs) -> (Limbs, u64) {
    let mut r = [0u64; 4];
    let mut borrow = 0;
    for i in 0..4 {
        (r[i], borrow) = sbb(a[i], b[i], borrow);
    }
    (r, borrow)
}

/// The full 512-bit product, schoolbook (16 limb multiplies).
#[inline(always)]
fn mul_wide(a: &Limbs, b: &Limbs) -> [u64; 8] {
    let mut w = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u64;
        for j in 0..4 {
            let t = w[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry as u128;
            w[i + j] = t as u64;
            carry = (t >> 64) as u64;
        }
        w[i + 4] = carry;
    }
    w
}

/// The full 512-bit square: each of the six cross products once, doubled,
/// plus the four diagonal squares (10 limb multiplies instead of 16).
#[inline(always)]
fn sqr_wide(a: &Limbs) -> [u64; 8] {
    let mut w = [0u64; 8];
    for i in 0..3 {
        let mut carry = 0u64;
        for j in i + 1..4 {
            let t = w[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry as u128;
            w[i + j] = t as u64;
            carry = (t >> 64) as u64;
        }
        w[i + 4] = carry;
    }
    // Double the cross products; no cross product lands in limb 0.
    for k in (1..8).rev() {
        w[k] = (w[k] << 1) | (w[k - 1] >> 63);
    }
    let mut carry = 0u64;
    for (i, &limb) in a.iter().enumerate() {
        let sq = limb as u128 * limb as u128;
        let (lo, c) = adc(w[2 * i], sq as u64, carry);
        let (hi, c) = adc(w[2 * i + 1], (sq >> 64) as u64, c);
        w[2 * i] = lo;
        w[2 * i + 1] = hi;
        carry = c;
    }
    w
}

/// Reduces `carry·2^256 + r` modulo `m = 2^256 - fold`, given that the
/// value is below `2m`: it is at least `m` exactly when `carry` is set or
/// adding `fold` carries out of 256 bits, and then `r + fold` (mod 2^256)
/// is the difference.
#[inline(always)]
fn sub_if_ge(r: Limbs, carry: u64, fold: &Limbs) -> Limbs {
    let (t, c) = add4(&r, fold);
    if carry | c != 0 {
        t
    } else {
        r
    }
}

/// Reduces a 512-bit product modulo `p` in one pass, using the special form
/// of the secp256k1 prime: `2^256 ≡ 2^32 + 977`, so the high half folds in
/// with one limb multiply per limb, and the 34-bit spill with one more.
#[inline(always)]
fn reduce_wide_p(w: &[u64; 8]) -> Limbs {
    let mut r = [0u64; 4];
    let mut carry = 0u64;
    for i in 0..4 {
        let t = w[i] as u128 + w[i + 4] as u128 * P_FOLD[0] as u128 + carry as u128;
        r[i] = t as u64;
        carry = (t >> 64) as u64;
    }
    let t = r[0] as u128 + carry as u128 * P_FOLD[0] as u128;
    r[0] = t as u64;
    let mut c = (t >> 64) as u64;
    for limb in r.iter_mut().skip(1) {
        (*limb, c) = adc(*limb, 0, c);
    }
    // What is left is below 2^256 + 2^67 < 2p.
    sub_if_ge(r, c, &P_FOLD)
}

/// One folding pass mod `n`: `lo + hi·(2^256 - n)` for the low four limbs
/// `lo` of `w` and the `hi_len` limbs above them.
#[inline(always)]
fn fold_n(w: &[u64; 8], hi_len: usize) -> [u64; 8] {
    let mut out = [w[0], w[1], w[2], w[3], 0, 0, 0, 0];
    for i in 0..hi_len {
        let mut carry = 0u64;
        for j in 0..3 {
            let t = out[i + j] as u128 + w[4 + i] as u128 * N_FOLD[j] as u128 + carry as u128;
            out[i + j] = t as u64;
            carry = (t >> 64) as u64;
        }
        for limb in out.iter_mut().skip(i + 3) {
            (*limb, carry) = adc(*limb, 0, carry);
        }
    }
    out
}

/// Reduces a 512-bit product modulo the group order `n` by the same
/// folding trick as [`reduce_wide_p`]: `2^256 ≡ 2^256 - n (mod n)` and the
/// difference is only ~2^129, so three fixed passes take the product below
/// 2^386, then 2^260, then 2^256 + 2^134, and one conditional subtraction
/// finishes.
#[inline(always)]
fn reduce_wide_n(w: &[u64; 8]) -> Limbs {
    let w = fold_n(w, 4);
    let w = fold_n(&w, 3);
    let w = fold_n(&w, 1);
    sub_if_ge([w[0], w[1], w[2], w[3]], w[4], &N_FOLD)
}

/// Field element in `F_p`, kept reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fe(U256);

// Field arithmetic reads as math (`a.add(b)`, `a.mul(b)`); these are not
// the operator traits and deliberately take/return by value.
#[allow(clippy::should_implement_trait)]
impl Fe {
    pub const ZERO: Fe = Fe(U256::ZERO);
    pub const ONE: Fe = Fe(U256::ONE);

    /// Constructs from an integer, reducing mod `p`.
    pub fn new(v: U256) -> Fe {
        Fe(U256(sub_if_ge(v.0, 0, &P_FOLD)))
    }

    /// The underlying reduced integer.
    pub fn to_u256(self) -> U256 {
        self.0
    }

    pub fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// True iff the canonical representative is odd (used for point
    /// compression parity / recovery ids).
    pub fn is_odd(self) -> bool {
        self.0.bit(0)
    }

    #[inline]
    pub fn add(self, rhs: Fe) -> Fe {
        let (sum, carry) = add4(&self.0 .0, &rhs.0 .0);
        Fe(U256(sub_if_ge(sum, carry, &P_FOLD)))
    }

    #[inline]
    pub fn sub(self, rhs: Fe) -> Fe {
        let (diff, borrow) = sub4(&self.0 .0, &rhs.0 .0);
        if borrow == 0 {
            Fe(U256(diff))
        } else {
            // diff + p ≡ diff - (2^256 - p) (mod 2^256).
            Fe(U256(sub4(&diff, &P_FOLD).0))
        }
    }

    #[inline]
    pub fn neg(self) -> Fe {
        if self.is_zero() {
            self
        } else {
            Fe(U256(sub4(&P.0, &self.0 .0).0))
        }
    }

    #[inline]
    pub fn mul(self, rhs: Fe) -> Fe {
        Fe(U256(reduce_wide_p(&mul_wide(&self.0 .0, &rhs.0 .0))))
    }

    #[inline]
    pub fn square(self) -> Fe {
        Fe(U256(reduce_wide_p(&sqr_wide(&self.0 .0))))
    }

    /// `self^(2^k)`: `k` squarings.
    fn sqr_n(self, k: usize) -> Fe {
        (0..k).fold(self, |acc, _| acc.square())
    }

    /// The addition-chain prefix shared by [`Fe::inv`] and [`Fe::sqrt`]:
    /// `self^(2^k - 1)` for the block lengths `k = 2, 22, 223` that the
    /// binary forms of `p - 2` and `(p + 1)/4` consist of.
    fn pow_blocks(self) -> (Fe, Fe, Fe) {
        let x2 = self.square().mul(self);
        let x3 = x2.square().mul(self);
        let x6 = x3.sqr_n(3).mul(x3);
        let x9 = x6.sqr_n(3).mul(x3);
        let x11 = x9.sqr_n(2).mul(x2);
        let x22 = x11.sqr_n(11).mul(x11);
        let x44 = x22.sqr_n(22).mul(x22);
        let x88 = x44.sqr_n(44).mul(x44);
        let x176 = x88.sqr_n(88).mul(x88);
        let x220 = x176.sqr_n(44).mul(x44);
        let x223 = x220.sqr_n(3).mul(x3);
        (x2, x22, x223)
    }

    /// Multiplicative inverse by Fermat (p is prime), over a fixed
    /// addition chain for `p - 2` (255 squarings, 15 multiplies); `None`
    /// for zero.
    pub fn inv(self) -> Option<Fe> {
        if self.is_zero() {
            return None;
        }
        // p - 2 = [223 ones] 0 [22 ones] 0000 1 0 11 0 1 (high to low).
        let (x2, x22, x223) = self.pow_blocks();
        let t = x223.sqr_n(23).mul(x22).sqr_n(5).mul(self);
        Some(t.sqr_n(3).mul(x2).sqr_n(2).mul(self))
    }

    /// Square root via `a^((p+1)/4)` (valid because `p ≡ 3 mod 4`), over a
    /// fixed addition chain; `None` when `a` is a non-residue.
    pub fn sqrt(self) -> Option<Fe> {
        // (p + 1)/4 = [223 ones] 0 [22 ones] 0000 11 00 (high to low).
        let (x2, x22, x223) = self.pow_blocks();
        let cand = x223.sqr_n(23).mul(x22).sqr_n(6).mul(x2).sqr_n(2);
        if cand.square() == self {
            Some(cand)
        } else {
            None
        }
    }
}

/// The odd-window schedule for the low 129 bits of `n - 2`, after its
/// block of 127 leading ones: each step squares `shift` times and then
/// multiplies by `a^digit` (odd `digit ≤ 15`).
const N_MINUS_2_TAIL: [(u8, u8); 26] = [
    (5, 11),
    (3, 5),
    (4, 5),
    (4, 7),
    (5, 13),
    (2, 3),
    (5, 7),
    (6, 13),
    (5, 11),
    (4, 13),
    (3, 1),
    (6, 5),
    (10, 7),
    (4, 7),
    (5, 15),
    (4, 15),
    (5, 9),
    (6, 11),
    (4, 13),
    (5, 3),
    (6, 13),
    (10, 13),
    (4, 9),
    (9, 9),
    (4, 15),
    (1, 1),
];

/// Scalar in `Z_n`, kept reduced. Arithmetic uses the `reduce_wide_n`
/// folding reduction — the Fermat inversions inside sign/recover run
/// hundreds of scalar multiplies each, so generic long-division reduction
/// here would dominate the whole signing path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scalar(U256);

#[allow(clippy::should_implement_trait)]
impl Scalar {
    pub const ZERO: Scalar = Scalar(U256::ZERO);

    /// Constructs reducing mod `n`. One conditional subtraction is a full
    /// reduction: `2n > 2^256`, so any `U256` is below `2n`.
    pub fn new(v: U256) -> Scalar {
        Scalar(U256(sub_if_ge(v.0, 0, &N_FOLD)))
    }

    /// Constructs only if already reduced and nonzero (strict validation for
    /// externally supplied `r`/`s`/private keys).
    pub fn from_canonical(v: U256) -> Option<Scalar> {
        if v.is_zero() || v >= N {
            None
        } else {
            Some(Scalar(v))
        }
    }

    pub fn to_u256(self) -> U256 {
        self.0
    }

    pub fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// True iff the scalar exceeds `n/2` (high-`s` signatures are malleable
    /// and rejected by Ethereum since EIP-2).
    pub fn is_high(self) -> bool {
        // n/2 rounded down
        let half_n = U256([
            0xdfe92f46681b20a0,
            0x5d576e7357a4501d,
            0xffffffffffffffff,
            0x7fffffffffffffff,
        ]);
        self.0 > half_n
    }

    pub fn add(self, rhs: Scalar) -> Scalar {
        let (sum, carry) = add4(&self.0 .0, &rhs.0 .0);
        Scalar(U256(sub_if_ge(sum, carry, &N_FOLD)))
    }

    pub fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(U256(reduce_wide_n(&mul_wide(&self.0 .0, &rhs.0 .0))))
    }

    fn square(self) -> Scalar {
        Scalar(U256(reduce_wide_n(&sqr_wide(&self.0 .0))))
    }

    /// `self^(2^k)`: `k` squarings.
    fn sqr_n(self, k: usize) -> Scalar {
        (0..k).fold(self, |acc, _| acc.square())
    }

    pub fn neg(self) -> Scalar {
        if self.is_zero() {
            self
        } else {
            Scalar(U256(sub4(&N.0, &self.0 .0).0))
        }
    }

    /// Inverse by Fermat (n is prime), over a fixed addition chain for
    /// `n - 2` (256 squarings, 43 multiplies); `None` for zero.
    pub fn inv(self) -> Option<Scalar> {
        if self.is_zero() {
            return None;
        }
        // n - 2 = [127 ones] 0 [128-bit tail]: the ones by doubling
        // blocks, the tail by N_MINUS_2_TAIL over a, a³, …, a¹⁵.
        let x2 = self.square().mul(self);
        let x3 = x2.square().mul(self);
        let x6 = x3.sqr_n(3).mul(x3);
        let x12 = x6.sqr_n(6).mul(x6);
        let x24 = x12.sqr_n(12).mul(x12);
        let x48 = x24.sqr_n(24).mul(x24);
        let x96 = x48.sqr_n(48).mul(x48);
        let x120 = x96.sqr_n(24).mul(x24);
        let x126 = x120.sqr_n(6).mul(x6);
        let x127 = x126.square().mul(self);
        let a2 = self.square();
        let mut odd = [self; 8];
        for i in 1..8 {
            odd[i] = odd[i - 1].mul(a2);
        }
        Some(N_MINUS_2_TAIL.iter().fold(x127, |t, &(shift, digit)| {
            t.sqr_n(shift as usize).mul(odd[digit as usize / 2])
        }))
    }

    /// The GLV split: `(k1, k2)` with `k1 + k2·λ ≡ self (mod n)`, where
    /// each of `k1`, `k2` is below 2^128 or within 2^128 of `n` (a
    /// negative half). Follows libsecp256k1's `scalar_split_lambda`: round
    /// `self·g_i / 2^384` and combine with the short lattice basis.
    fn split_lambda(self) -> (Scalar, Scalar) {
        let c1 = mul_shift_384(&self.0 .0, &GLV_G1);
        let c2 = mul_shift_384(&self.0 .0, &GLV_G2);
        let k2 = c1.mul(GLV_MINUS_B1).add(c2.mul(GLV_MINUS_B2));
        let k1 = self.add(k2.mul(LAMBDA).neg());
        (k1, k2)
    }
}

/// `round(k·g / 2^384)`, below 2^128 for `k, g < 2^256`.
fn mul_shift_384(k: &Limbs, g: &Limbs) -> Scalar {
    let w = mul_wide(k, g);
    let (lo, carry) = adc(w[6], w[5] >> 63, 0);
    Scalar(U256([lo, w[7] + carry, 0, 0]))
}

/// `λ`, a cube root of unity mod `n`: `λ·(x, y) = (β·x, y)` for every
/// point (Gallant–Lambert–Vanstone, CRYPTO 2001).
const LAMBDA: Scalar = Scalar(U256([
    0xdf02967c1b23bd72,
    0x122e22ea20816678,
    0xa5261c028812645a,
    0x5363ad4cc05c30e0,
]));

/// `β`, the cube root of unity mod `p` that pairs with [`LAMBDA`].
const BETA: Fe = Fe(U256([
    0xc1396c28719501ee,
    0x9cf0497512f58995,
    0x6e64479eac3434e9,
    0x7ae96a2b657c0710,
]));

/// `round(2^384 · b2 / n)` for the lattice basis `(a1, b1), (a2, b2)`.
const GLV_G1: Limbs = [
    0xe893209a45dbb031,
    0x3daa8a1471e8ca7f,
    0xe86c90e49284eb15,
    0x3086d221a7d46bcd,
];

/// `round(2^384 · (-b1) / n)`.
const GLV_G2: Limbs = [
    0x1571b4ae8ac47f71,
    0x221208ac9df506c6,
    0x6f547fa90abfe4c4,
    0xe4437ed6010e8828,
];

/// `-b1 mod n`.
const GLV_MINUS_B1: Scalar = Scalar(U256([0x6f547fa90abfe4c3, 0xe4437ed6010e8828, 0, 0]));

/// `-b2 mod n`.
const GLV_MINUS_B2: Scalar = Scalar(U256([
    0xd765cda83db1562c,
    0x8a280ac50774346d,
    0xfffffffffffffffe,
    0xffffffffffffffff,
]));

/// Width of the signed-digit (wNAF) recoding: digits are odd and within
/// ±15, so a base point needs its 8 odd multiples `P, 3P, …, 15P`.
const WNAF_W: usize = 5;

/// Bits `i..i + count` of `e` (zero past bit 255), for `count < 64`.
fn bits_at(e: &Limbs, i: usize, count: usize) -> u64 {
    if i >= 256 {
        return 0;
    }
    let (limb, off) = (i / 64, i % 64);
    let mut v = e[limb] >> off;
    if off + count > 64 && limb + 1 < 4 {
        v |= e[limb + 1] << (64 - off);
    }
    v & ((1 << count) - 1)
}

/// The width-[`WNAF_W`] NAF of `k`, read as the signed value `k` or
/// `k - n`, whichever is shorter: digits least significant first, and the
/// number of positions up to the last nonzero digit. A digit never lands
/// past the magnitude's top bit plus one.
fn wnaf(k: &Scalar) -> ([i8; 257], usize) {
    let (mag, sign) = if k.is_high() { (k.neg(), -1) } else { (*k, 1) };
    let e = &mag.0 .0;
    let nbits = mag.0.bits() as usize;
    let mut digits = [0i8; 257];
    let (mut bit, mut carry, mut len) = (0usize, 0u64, 0usize);
    while bit <= nbits {
        if bits_at(e, bit, 1) == carry {
            bit += 1;
            continue;
        }
        let mut word = (bits_at(e, bit, WNAF_W) + carry) as i32;
        carry = (word >> (WNAF_W - 1)) as u64 & 1;
        word -= (carry << WNAF_W) as i32;
        digits[bit] = (sign * word) as i8;
        len = bit + 1;
        bit += WNAF_W;
    }
    (digits, len)
}

/// A point on the curve in affine coordinates, or infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Affine {
    /// The identity element.
    Infinity,
    /// A finite point (x, y) satisfying the curve equation.
    Point { x: Fe, y: Fe },
}

/// The curve constant `b = 7`.
const SEVEN: Fe = Fe(U256([7, 0, 0, 0]));

impl Affine {
    /// The generator `G`.
    pub fn generator() -> Affine {
        Affine::Point {
            x: Fe::new(GX),
            y: Fe::new(GY),
        }
    }

    /// Validates the curve equation `y² = x³ + 7`.
    pub fn is_on_curve(&self) -> bool {
        match self {
            Affine::Infinity => true,
            Affine::Point { x, y } => {
                let lhs = y.square();
                let rhs = x.square().mul(*x).add(SEVEN);
                lhs == rhs
            }
        }
    }

    /// Lifts an x-coordinate to a point with the requested y parity
    /// (`ecrecover`'s core step). `None` if x is not on the curve.
    pub fn lift_x(x: Fe, odd_y: bool) -> Option<Affine> {
        let y2 = x.square().mul(x).add(SEVEN);
        let mut y = y2.sqrt()?;
        if y.is_odd() != odd_y {
            y = y.neg();
        }
        Some(Affine::Point { x, y })
    }

    /// Uncompressed SEC1 encoding (0x04 || X || Y); `None` for infinity.
    pub fn to_uncompressed(&self) -> Option<[u8; 65]> {
        match self {
            Affine::Infinity => None,
            Affine::Point { x, y } => {
                let mut out = [0u8; 65];
                out[0] = 0x04;
                out[1..33].copy_from_slice(&x.to_u256().to_be_bytes());
                out[33..65].copy_from_slice(&y.to_u256().to_be_bytes());
                Some(out)
            }
        }
    }

    /// The Ethereum address of this public key: low 20 bytes of
    /// `keccak256(X || Y)`.
    pub fn to_eth_address(&self) -> Option<H160> {
        let enc = self.to_uncompressed()?;
        let digest = keccak256(&enc[1..]);
        Some(H160::from_slice(&digest[12..]))
    }
}

/// Jacobian-coordinate point `(X/Z², Y/Z³)` for inversion-free group law.
#[derive(Clone, Copy, Debug)]
pub struct Jacobian {
    x: Fe,
    y: Fe,
    z: Fe,
}

impl Jacobian {
    /// The identity (encoded with Z = 0).
    pub const INFINITY: Jacobian = Jacobian {
        x: Fe::ONE,
        y: Fe::ONE,
        z: Fe::ZERO,
    };

    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts from affine.
    pub fn from_affine(p: &Affine) -> Jacobian {
        match p {
            Affine::Infinity => Jacobian::INFINITY,
            Affine::Point { x, y } => Jacobian {
                x: *x,
                y: *y,
                z: Fe::ONE,
            },
        }
    }

    /// Converts to affine (one field inversion).
    pub fn to_affine(&self) -> Affine {
        if self.is_infinity() {
            return Affine::Infinity;
        }
        let zinv = self.z.inv().expect("nonzero z");
        let zinv2 = zinv.square();
        let zinv3 = zinv2.mul(zinv);
        Affine::Point {
            x: self.x.mul(zinv2),
            y: self.y.mul(zinv3),
        }
    }

    /// The inverse point `(X, -Y, Z)`.
    fn neg(&self) -> Jacobian {
        Jacobian {
            y: self.y.neg(),
            ..*self
        }
    }

    /// Point doubling (a = 0 specialization, dbl-2009-l formulas).
    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = self.x.add(b).square().sub(a).sub(c);
        let d = d.add(d);
        let e = a.add(a).add(a);
        let f = e.square();
        let x3 = f.sub(d.add(d));
        let c2 = c.add(c);
        let c4 = c2.add(c2);
        let y3 = e.mul(d.sub(x3)).sub(c4.add(c4));
        let yz = self.y.mul(self.z);
        Jacobian {
            x: x3,
            y: y3,
            z: yz.add(yz),
        }
    }

    /// General Jacobian addition (add-2007-bl).
    pub fn add(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(z2z2);
        let u2 = other.x.mul(z1z1);
        let s1 = self.y.mul(other.z).mul(z2z2);
        let s2 = other.y.mul(self.z).mul(z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = u2.sub(u1);
        let i = h.add(h).square();
        let j = h.mul(i);
        let r = s2.sub(s1);
        let r = r.add(r);
        let v = u1.mul(i);
        let x3 = r.square().sub(j).sub(v.add(v));
        let s1j = s1.mul(j);
        let y3 = r.mul(v.sub(x3)).sub(s1j.add(s1j));
        let z3 = self.z.add(other.z).square().sub(z1z1).sub(z2z2).mul(h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition of a finite affine point `(x2, y2)` (madd-2007-bl:
    /// `Z2 = 1` saves four multiplies and a square over [`Jacobian::add`]).
    fn add_affine(&self, (x2, y2): (Fe, Fe)) -> Jacobian {
        if self.is_infinity() {
            return Jacobian {
                x: x2,
                y: y2,
                z: Fe::ONE,
            };
        }
        let z1z1 = self.z.square();
        let u2 = x2.mul(z1z1);
        let s2 = y2.mul(self.z).mul(z1z1);
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = u2.sub(self.x);
        let hh = h.square();
        let i = hh.add(hh);
        let i = i.add(i);
        let j = h.mul(i);
        let r = s2.sub(self.y);
        let r = r.add(r);
        let v = self.x.mul(i);
        let x3 = r.square().sub(j).sub(v.add(v));
        let y1j = self.y.mul(j);
        let y3 = r.mul(v.sub(x3)).sub(y1j.add(y1j));
        let z3 = self.z.add(h).square().sub(z1z1).sub(hh);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Adds `digit·P` for an odd wNAF digit, given `odd[i] = (2i + 1)·P`.
    fn add_digit(&self, odd: &[Jacobian; 8], digit: i8) -> Jacobian {
        let entry = &odd[digit.unsigned_abs() as usize / 2];
        match digit.cmp(&0) {
            Ordering::Greater => self.add(entry),
            Ordering::Less => self.add(&entry.neg()),
            Ordering::Equal => *self,
        }
    }
}

/// Normalizes finite Jacobian points to affine `(x, y)` with one field
/// inversion for the whole batch (Montgomery's trick): invert the product
/// of every `Z`, then peel each point's own inverse off with two
/// multiplies.
fn batch_to_affine(points: &[Jacobian]) -> Vec<(Fe, Fe)> {
    // prefix[i] = Z_0 · … · Z_{i-1}
    let mut prefix = Vec::with_capacity(points.len());
    let mut acc = Fe::ONE;
    for p in points {
        prefix.push(acc);
        acc = acc.mul(p.z);
    }
    let mut inv = acc.inv().expect("finite points have nonzero Z");
    let mut out = vec![(Fe::ZERO, Fe::ZERO); points.len()];
    for (i, p) in points.iter().enumerate().rev() {
        let zinv = inv.mul(prefix[i]);
        inv = inv.mul(p.z);
        let zinv2 = zinv.square();
        out[i] = (p.x.mul(zinv2), p.y.mul(zinv2).mul(zinv));
    }
    out
}

/// Bits per window of the fixed-base generator table.
const G_WINDOW: usize = 8;

/// Nonzero digits per window: `1..=G_DIGITS`.
const G_DIGITS: usize = (1 << G_WINDOW) - 1;

/// Fixed-base precomputation for the generator: `TABLE[w][d - 1]` holds
/// `(d · 256^w) · G` in affine coordinates for windows `w ∈ 0..32` and
/// digits `d ∈ 1..=255`, so a generator multiply is at most 31 mixed
/// additions with **zero doublings**. Each signature attempt pays one
/// generator multiply (its nonce point), as does each `recover` and
/// `verify` for its `G` term, and fleets sign tens of thousands of them.
/// The table is 8,160 points (510 KiB), built once per process with one
/// field inversion.
static G_TABLE: OnceLock<Vec<[(Fe, Fe); G_DIGITS]>> = OnceLock::new();

fn g_table() -> &'static [[(Fe, Fe); G_DIGITS]] {
    G_TABLE.get_or_init(|| {
        let windows = 256 / G_WINDOW;
        let mut points = Vec::with_capacity(windows * G_DIGITS);
        let mut base = Jacobian::from_affine(&Affine::generator());
        for _ in 0..windows {
            let mut acc = base;
            for _ in 0..G_DIGITS {
                points.push(acc);
                acc = acc.add(&base);
            }
            // After G_DIGITS additions acc = 2^G_WINDOW·base: the next
            // window's unit.
            base = acc;
        }
        batch_to_affine(&points)
            .chunks_exact(G_DIGITS)
            .map(|window| window.try_into().expect("G_DIGITS per window"))
            .collect()
    })
}

/// Multiplies the generator by `k` via the fixed-base table. The result
/// is the same group element as plain double-and-add, so every affine
/// coordinate — and therefore every signature byte — is identical; only
/// the wall-clock cost changes (regression-pinned in the tests).
pub fn g_mul(k: &Scalar) -> Jacobian {
    let e = &k.0 .0;
    let mut acc = Jacobian::INFINITY;
    for (w, entries) in g_table().iter().enumerate() {
        let digit = bits_at(e, w * G_WINDOW, G_WINDOW) as usize;
        if digit != 0 {
            acc = acc.add_affine(entries[digit - 1]);
        }
    }
    acc
}

/// `a·P + b·G`, the one variable-base multiply, shared by [`recover`] and
/// [`verify`]. `a` is split with the GLV endomorphism into two ~128-bit
/// halves whose wNAF digits are evaluated Straus–Shamir style against
/// `P`'s odd multiples and their `λ`-images, so both halves share 128
/// doublings; `b·G` comes from the fixed-base table. The same group
/// element as double-and-add of each term (regression-pinned in the
/// tests).
fn mul_add_g(p: &Jacobian, a: &Scalar, b: &Scalar) -> Jacobian {
    let (a1, a2) = a.split_lambda();
    let (digits1, len1) = wnaf(&a1);
    let (digits2, len2) = wnaf(&a2);
    let p2 = p.double();
    let mut odd = [*p; 8];
    for i in 1..8 {
        odd[i] = odd[i - 1].add(&p2);
    }
    // λ·(X, Y, Z) = (β·X, Y, Z): one field multiply per multiple.
    let odd_lambda = odd.map(|q| Jacobian {
        x: q.x.mul(BETA),
        ..q
    });
    let mut acc = Jacobian::INFINITY;
    for i in (0..len1.max(len2)).rev() {
        acc = acc
            .double()
            .add_digit(&odd, digits1[i])
            .add_digit(&odd_lambda, digits2[i]);
    }
    acc.add(&g_mul(b))
}

/// An ECDSA signature with recovery information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// x-coordinate of the nonce point, mod n.
    pub r: U256,
    /// Low-normalized proof scalar.
    pub s: U256,
    /// Recovery id: bit 0 = parity of the (possibly negated) nonce point's y.
    pub recovery_id: u8,
}

/// Errors from ECDSA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcdsaError {
    /// Private key is zero or ≥ n.
    InvalidPrivateKey,
    /// r or s outside [1, n-1].
    InvalidSignature,
    /// Recovery produced no valid point.
    RecoveryFailed,
}

impl core::fmt::Display for EcdsaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            EcdsaError::InvalidPrivateKey => "invalid private key",
            EcdsaError::InvalidSignature => "invalid signature scalars",
            EcdsaError::RecoveryFailed => "public key recovery failed",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for EcdsaError {}

/// RFC-6979 deterministic nonce derivation (HMAC-SHA256 DRBG), with an
/// optional `extra` counter for the retry loop.
fn rfc6979_nonce(private_key: &U256, msg_hash: &[u8; 32], attempt: u32) -> Scalar {
    let x = private_key.to_be_bytes();
    let mut v = [0x01u8; 32];
    let mut k = [0x00u8; 32];

    let mut seed = Vec::with_capacity(97);
    seed.extend_from_slice(&v);
    seed.push(0x00);
    seed.extend_from_slice(&x);
    seed.extend_from_slice(msg_hash);
    if attempt > 0 {
        seed.extend_from_slice(&attempt.to_be_bytes());
    }
    k = hmac_sha256(&k, &seed);
    v = hmac_sha256(&k, &v);

    let mut seed2 = Vec::with_capacity(97);
    seed2.extend_from_slice(&v);
    seed2.push(0x01);
    seed2.extend_from_slice(&x);
    seed2.extend_from_slice(msg_hash);
    if attempt > 0 {
        seed2.extend_from_slice(&attempt.to_be_bytes());
    }
    k = hmac_sha256(&k, &seed2);
    v = hmac_sha256(&k, &v);

    loop {
        v = hmac_sha256(&k, &v);
        let cand = U256::from_be_bytes(&v);
        if let Some(s) = Scalar::from_canonical(cand) {
            return s;
        }
        let mut retry = Vec::with_capacity(33);
        retry.extend_from_slice(&v);
        retry.push(0x00);
        k = hmac_sha256(&k, &retry);
        v = hmac_sha256(&k, &v);
    }
}

/// Derives the public key for a private scalar.
pub fn public_key(private_key: &U256) -> Result<Affine, EcdsaError> {
    let d = Scalar::from_canonical(*private_key).ok_or(EcdsaError::InvalidPrivateKey)?;
    Ok(g_mul(&d).to_affine())
}

/// Signs a 32-byte message hash, producing a low-`s` signature with a
/// recovery id. Deterministic: the same key and hash always yield the same
/// signature (RFC 6979).
pub fn sign(private_key: &U256, msg_hash: &[u8; 32]) -> Result<Signature, EcdsaError> {
    let _t = PhaseTimer::start(HotPhase::Sign);
    let d = Scalar::from_canonical(*private_key).ok_or(EcdsaError::InvalidPrivateKey)?;
    let z = Scalar::new(U256::from_be_bytes(msg_hash));
    for attempt in 0..128 {
        let k = rfc6979_nonce(private_key, msg_hash, attempt);
        let point = g_mul(&k).to_affine();
        let (rx, ry) = match point {
            Affine::Infinity => continue,
            Affine::Point { x, y } => (x, y),
        };
        // r = x(R) mod n. We reject the (astronomically rare) r ≥ n case
        // rather than carrying the extra recovery bit.
        if rx.to_u256() >= N {
            continue;
        }
        let r = match Scalar::from_canonical(rx.to_u256()) {
            Some(r) => r,
            None => continue,
        };
        let kinv = k.inv().expect("nonce is nonzero");
        let mut s = kinv.mul(z.add(r.mul(d)));
        if s.is_zero() {
            continue;
        }
        let mut rec_id = ry.is_odd() as u8;
        if s.is_high() {
            s = s.neg();
            rec_id ^= 1;
        }
        return Ok(Signature {
            r: r.to_u256(),
            s: s.to_u256(),
            recovery_id: rec_id,
        });
    }
    Err(EcdsaError::RecoveryFailed)
}

/// Verifies a signature against a public key. High-`s` signatures are
/// rejected (EIP-2 semantics).
pub fn verify(public_key: &Affine, msg_hash: &[u8; 32], sig: &Signature) -> bool {
    let (r, s) = match (Scalar::from_canonical(sig.r), Scalar::from_canonical(sig.s)) {
        (Some(r), Some(s)) => (r, s),
        _ => return false,
    };
    if s.is_high() {
        return false;
    }
    if !public_key.is_on_curve() || *public_key == Affine::Infinity {
        return false;
    }
    let z = Scalar::new(U256::from_be_bytes(msg_hash));
    let sinv = match s.inv() {
        Some(v) => v,
        None => return false,
    };
    let u1 = z.mul(sinv);
    let u2 = r.mul(sinv);
    let point = mul_add_g(&Jacobian::from_affine(public_key), &u2, &u1).to_affine();
    match point {
        Affine::Infinity => false,
        Affine::Point { x, .. } => Scalar::new(x.to_u256()) == r,
    }
}

/// Recovers the signing public key from a signature (`ecrecover`).
pub fn recover(msg_hash: &[u8; 32], sig: &Signature) -> Result<Affine, EcdsaError> {
    let r = Scalar::from_canonical(sig.r).ok_or(EcdsaError::InvalidSignature)?;
    let s = Scalar::from_canonical(sig.s).ok_or(EcdsaError::InvalidSignature)?;
    if sig.recovery_id > 1 {
        return Err(EcdsaError::InvalidSignature);
    }
    let x = Fe::new(sig.r);
    let r_point = Affine::lift_x(x, sig.recovery_id & 1 == 1).ok_or(EcdsaError::RecoveryFailed)?;
    let z = Scalar::new(U256::from_be_bytes(msg_hash));
    let rinv = r.inv().ok_or(EcdsaError::InvalidSignature)?;
    // Q = r⁻¹(s·R − z·G) = (r⁻¹s)·R + (r⁻¹(−z))·G — folding the inverse
    // into the scalars leaves one joint multiply: the R term with shared
    // doublings, the G term from the fixed-base table.
    let u1 = rinv.mul(s);
    let u2 = rinv.mul(z.neg());
    let q = mul_add_g(&Jacobian::from_affine(&r_point), &u1, &u2).to_affine();
    if q == Affine::Infinity {
        return Err(EcdsaError::RecoveryFailed);
    }
    Ok(q)
}

/// Recovers the Ethereum sender address from a signature.
pub fn recover_address(msg_hash: &[u8; 32], sig: &Signature) -> Result<H160, EcdsaError> {
    recover(msg_hash, sig)?
        .to_eth_address()
        .ok_or(EcdsaError::RecoveryFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_primitives::hex::to_hex;
    use ofl_primitives::u256::U512;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn fe_hex(s: &str) -> Fe {
        Fe::new(U256::from_hex_str(s).unwrap())
    }

    fn random_u256(rng: &mut StdRng) -> U256 {
        U256([
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ])
    }

    // ---- Oracles: the superseded production paths, kept as references. ----

    /// Generic square-and-multiply: the oracle for the addition chains.
    fn fe_pow(a: Fe, e: &U256) -> Fe {
        let mut result = Fe::ONE;
        let mut base = a;
        for i in 0..e.bits() {
            if e.bit(i as usize) {
                result = result.mul(base);
            }
            base = base.square();
        }
        result
    }

    /// 512-bit addition (the operands never overflow here).
    fn u512_add(a: &U512, b: &U512) -> U512 {
        let mut out = [0u64; 8];
        let mut carry = 0u128;
        for (i, limb) in out.iter_mut().enumerate() {
            let sum = a.0[i] as u128 + b.0[i] as u128 + carry;
            *limb = sum as u64;
            carry = sum >> 64;
        }
        assert_eq!(carry, 0, "u512_add overflow");
        U512(out)
    }

    /// The looping 512-bit fold mod `p`: fold `hi·(2^32 + 977)` into the
    /// low half until the high half is zero, then subtract `p` while it
    /// fits.
    fn reduce_p_looping(w: &U512) -> U256 {
        let fold = U256(P_FOLD);
        let mut cur = *w;
        loop {
            let hi = U256([cur.0[4], cur.0[5], cur.0[6], cur.0[7]]);
            let lo = U256([cur.0[0], cur.0[1], cur.0[2], cur.0[3]]);
            if hi.is_zero() {
                let mut r = lo;
                while r >= P {
                    r = r.wrapping_sub(&P);
                }
                return r;
            }
            cur = u512_add(&hi.widening_mul(&fold), &U512::from_u256(&lo));
        }
    }

    /// Plain left-to-right double-and-add: the reference every multiply
    /// is checked against.
    fn scalar_mul_binary(p: &Jacobian, k: &Scalar) -> Jacobian {
        let e = k.to_u256();
        let mut acc = Jacobian::INFINITY;
        for i in (0..e.bits()).rev() {
            acc = acc.double();
            if e.bit(i as usize) {
                acc = acc.add(p);
            }
        }
        acc
    }

    /// The 4-bit windowed variable-base multiply `recover` and `verify`
    /// used before the joint GLV/Straus multiply.
    fn scalar_mul_windowed(p: &Jacobian, k: &Scalar) -> Jacobian {
        let e = k.to_u256();
        if e.is_zero() || p.is_infinity() {
            return Jacobian::INFINITY;
        }
        let mut multiples = [*p; 15];
        for i in 1..15 {
            multiples[i] = multiples[i - 1].add(p);
        }
        let mut acc = Jacobian::INFINITY;
        for w in (0..(e.bits() as usize).div_ceil(4)).rev() {
            acc = acc.double().double().double().double();
            let digit = ((e.0[w / 16] >> ((w % 16) * 4)) & 0xf) as usize;
            if digit != 0 {
                acc = acc.add(&multiples[digit - 1]);
            }
        }
        acc
    }

    fn g_mul_double_and_add(k: &Scalar) -> Jacobian {
        scalar_mul_binary(&Jacobian::from_affine(&Affine::generator()), k)
    }

    /// The recovery path before the joint multiply: the same validation,
    /// a windowed multiply of R and a separate table multiply of G.
    fn recover_oracle(msg_hash: &[u8; 32], sig: &Signature) -> Result<Affine, EcdsaError> {
        let r = Scalar::from_canonical(sig.r).ok_or(EcdsaError::InvalidSignature)?;
        let s = Scalar::from_canonical(sig.s).ok_or(EcdsaError::InvalidSignature)?;
        if sig.recovery_id > 1 {
            return Err(EcdsaError::InvalidSignature);
        }
        let r_point = Affine::lift_x(Fe::new(sig.r), sig.recovery_id & 1 == 1)
            .ok_or(EcdsaError::RecoveryFailed)?;
        let z = Scalar::new(U256::from_be_bytes(msg_hash));
        let rinv = r.inv().ok_or(EcdsaError::InvalidSignature)?;
        let q = scalar_mul_windowed(&Jacobian::from_affine(&r_point), &rinv.mul(s))
            .add(&g_mul_double_and_add(&rinv.mul(z.neg())))
            .to_affine();
        if q == Affine::Infinity {
            return Err(EcdsaError::RecoveryFailed);
        }
        Ok(q)
    }

    /// `a + b·λ (mod n)` for signed `a`, `b` given as magnitude and sign.
    fn glv_combine(a: (U256, bool), b: (U256, bool)) -> U256 {
        let signed = |(v, negative): (U256, bool)| {
            let s = Scalar::new(v);
            if negative {
                s.neg()
            } else {
                s
            }
        };
        signed(a).add(signed(b).mul(LAMBDA)).to_u256()
    }

    /// Magnitude of a scalar read as signed (`k` or `k - n`).
    fn signed_bits(k: Scalar) -> u32 {
        if k.is_high() {
            k.neg().to_u256().bits()
        } else {
            k.to_u256().bits()
        }
    }

    /// Scalars that stress every digit-recoding boundary: tiny values,
    /// order-adjacent values, all-0xf nibbles, values with only the top
    /// window set, and GLV splits whose halves land near ±2^128.
    fn edge_scalars() -> Vec<U256> {
        let two_128_m1 = U256::ONE.shl(128).wrapping_sub(&U256::ONE);
        let two_127 = U256::ONE.shl(127);
        let mut v = vec![
            U256::ONE,
            U256::from_u64(2),
            U256::from_u64(15),
            U256::from_u64(16),
            U256::from_u64(0xdeadbeef),
            U256::from_hex_str("4c0883a69102937d6231471b5dbb6204fe512961708279feb1be6ae5538da033")
                .unwrap(),
            N.wrapping_sub(&U256::from_u64(2)),
            N.wrapping_sub(&U256::ONE),
            U256::MAX,
            U256::ONE.shl(252).wrapping_sub(&U256::ONE),
            two_128_m1,
            two_127,
        ];
        // Nibble and byte window boundaries, and values whose only nonzero
        // digit is in the top window.
        for bit in [4u32, 8, 60, 64, 124, 128, 248, 252, 255] {
            v.push(U256::ONE.shl(bit));
        }
        for d in 1..=15u64 {
            v.push(U256::from_u64(d).shl(252));
        }
        for d in [0x10u64, 0x80, 0xfe, 0xff] {
            v.push(U256::from_u64(d).shl(248));
        }
        for (a, b) in [
            ((two_128_m1, false), (two_128_m1, false)),
            ((two_128_m1, true), (two_128_m1, false)),
            ((two_128_m1, false), (two_128_m1, true)),
            ((two_128_m1, true), (two_128_m1, true)),
            ((two_127, false), (two_127, true)),
            ((two_128_m1, false), (U256::ZERO, false)),
            ((U256::ONE, false), (two_128_m1, false)),
        ] {
            v.push(glv_combine(a, b));
        }
        // Seeded scalars whose split has a half of the full 128 bits
        // (about one in ten random scalars).
        let mut rng = StdRng::seed_from_u64(128);
        let full_width = (0..256)
            .map(|_| Scalar::new(random_u256(&mut rng)))
            .filter(|k| {
                let (k1, k2) = k.split_lambda();
                signed_bits(k1).max(signed_bits(k2)) == 128
            })
            .take(4);
        v.extend(full_width.map(Scalar::to_u256));
        v
    }

    // ---- Field and scalar layers against the U256 + div_rem reference. ----

    #[test]
    fn field_ops_match_div_rem_reference() {
        let two_255 = U256::ONE.shl(255);
        let mut values = vec![
            U256::ZERO,
            U256::ONE,
            U256::from_u64(2),
            P.wrapping_sub(&U256::from_u64(2)),
            P.wrapping_sub(&U256::ONE),
            two_255,
            two_255.wrapping_sub(&U256::ONE),
            U256::from_u64(0x1000003d1),
        ];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..12 {
            values.push(random_u256(&mut rng).div_rem(&P).1);
        }
        let p_minus_2 = P.wrapping_sub(&U256::from_u64(2));
        let sqrt_exp = P.wrapping_add(&U256::ONE).shr(2);
        for &a in &values {
            let fa = Fe::new(a);
            assert_eq!(fa.to_u256(), a, "new a={a:?}");
            assert_eq!(
                fa.neg().to_u256(),
                U256::ZERO.sub_mod(&a, &P),
                "neg a={a:?}"
            );
            assert_eq!(fa.square().to_u256(), a.mul_mod(&a, &P), "square a={a:?}");
            assert_eq!(fa.inv(), (!a.is_zero()).then(|| fe_pow(fa, &p_minus_2)));
            if let Some(inv) = fa.inv() {
                assert_eq!(inv.to_u256(), a.inv_mod_prime(&P).unwrap(), "inv a={a:?}");
            }
            // The old sqrt: the candidate a^((p+1)/4), kept iff it squares back.
            let cand = fe_pow(fa, &sqrt_exp);
            assert_eq!(fa.sqrt(), (cand.square() == fa).then_some(cand), "a={a:?}");
            for &b in &values {
                let fb = Fe::new(b);
                assert_eq!(fa.add(fb).to_u256(), a.add_mod(&b, &P), "{a:?}+{b:?}");
                assert_eq!(fa.sub(fb).to_u256(), a.sub_mod(&b, &P), "{a:?}-{b:?}");
                let product = fa.mul(fb).to_u256();
                assert_eq!(product, a.mul_mod(&b, &P), "{a:?}*{b:?}");
                assert_eq!(product, reduce_p_looping(&a.widening_mul(&b)));
            }
        }
        // Unreduced inputs: every U256 reduces like div_rem.
        for v in [P, P.wrapping_add(&U256::ONE), U256::MAX] {
            assert_eq!(Fe::new(v).to_u256(), v.div_rem(&P).1, "new v={v:?}");
        }
    }

    #[test]
    fn scalar_folding_reduction_matches_long_division() {
        // reduce_wide_n against the generic div_rem reduction over products
        // of order-adjacent, structured and seeded operands.
        let mut values = vec![
            U256::ZERO,
            U256::ONE,
            U256::from_u64(0xffff_ffff),
            N.wrapping_sub(&U256::from_u64(2)),
            N.wrapping_sub(&U256::ONE),
            N.wrapping_add(&U256::ONE), // wraps mod 2^256: exercises Scalar::new too
            U256::MAX,
            U256::from_hex_str("8000000000000000000000000000000000000000000000000000000000000001")
                .unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..8 {
            values.push(random_u256(&mut rng));
        }
        for &a in &values {
            let sa = Scalar::new(a);
            assert_eq!(sa.to_u256(), a.div_rem(&N).1, "new a={a:?}");
            let ra = a.div_rem(&N).1;
            assert_eq!(sa.square().to_u256(), ra.mul_mod(&ra, &N), "square a={a:?}");
            assert_eq!(sa.neg().to_u256(), U256::ZERO.sub_mod(&ra, &N));
            for &b in &values {
                let rb = b.div_rem(&N).1;
                let fast = sa.mul(Scalar::new(b)).to_u256();
                assert_eq!(fast, ra.mul_mod(&rb, &N), "a={a:?} b={b:?}");
                assert_eq!(sa.add(Scalar::new(b)).to_u256(), ra.add_mod(&rb, &N));
            }
            // The addition chain agrees with Fermat over div_rem.
            match sa.inv() {
                None => assert!(ra.is_zero()),
                Some(inv) => {
                    assert_eq!(inv.to_u256(), ra.inv_mod_prime(&N).unwrap(), "a={a:?}");
                    assert_eq!(sa.mul(inv).to_u256(), U256::ONE);
                }
            }
        }
        // Addition overflow fold: (n-1) + (n-1) ≡ n-2.
        let nm1 = Scalar::new(N.wrapping_sub(&U256::ONE));
        assert_eq!(nm1.add(nm1).to_u256(), N.wrapping_sub(&U256::from_u64(2)));
    }

    #[test]
    fn addition_chains_spell_their_exponents() {
        // Replay each chain's squarings and multiplies on the exponent
        // itself: [127 ones] 0 followed by the tail windows must be n - 2.
        let mut e = U256::ONE.shl(127).wrapping_sub(&U256::ONE);
        for &(shift, digit) in &N_MINUS_2_TAIL {
            assert_eq!(digit % 2, 1);
            e = e
                .shl(shift as u32)
                .wrapping_add(&U256::from_u64(digit as u64));
        }
        assert_eq!(e, N.wrapping_sub(&U256::from_u64(2)));
    }

    // ---- Group law and multiplies against double-and-add. ----

    #[test]
    fn glv_constants_are_paired_cube_roots() {
        let l2 = LAMBDA.mul(LAMBDA);
        assert_eq!(l2.mul(LAMBDA).to_u256(), U256::ONE);
        let b2 = BETA.mul(BETA);
        assert_eq!(b2.mul(BETA), Fe::ONE);
        // λ·G = (β·Gx, Gy).
        let lg = g_mul_double_and_add(&LAMBDA).to_affine();
        assert_eq!(
            lg,
            Affine::Point {
                x: Fe::new(GX).mul(BETA),
                y: Fe::new(GY)
            }
        );
    }

    #[test]
    fn glv_split_recombines_into_short_halves() {
        let mut scalars = edge_scalars();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            scalars.push(random_u256(&mut rng));
        }
        let mut full_width = 0;
        for v in scalars {
            let k = Scalar::new(v);
            let (k1, k2) = k.split_lambda();
            assert_eq!(k1.add(k2.mul(LAMBDA)), k, "k={v:?}");
            assert!(signed_bits(k1) <= 128, "k1 of {v:?}");
            assert!(signed_bits(k2) <= 128, "k2 of {v:?}");
            full_width += (signed_bits(k1).max(signed_bits(k2)) == 128) as usize;
        }
        // The edge set reaches the bound, not just stays under it.
        assert!(full_width >= 4, "only {full_width} full-width splits");
    }

    #[test]
    fn wnaf_digits_rebuild_the_signed_scalar() {
        let mut scalars = edge_scalars();
        scalars.push(U256::ZERO);
        scalars.push(U256::from_u64(31));
        scalars.push(N.shr(1));
        scalars.push(N.shr(1).wrapping_add(&U256::ONE));
        for v in scalars {
            let k = Scalar::new(v);
            let (digits, len) = wnaf(&k);
            let mut acc = Scalar::ZERO;
            for i in (0..digits.len()).rev() {
                acc = acc.add(acc);
                let d = digits[i];
                assert!(d == 0 || (d % 2 != 0 && d.abs() <= 15), "digit {d}");
                assert!(d == 0 || i < len, "digit past len");
                let m = Scalar::new(U256::from_u64(d.unsigned_abs() as u64));
                acc = if d < 0 { acc.add(m.neg()) } else { acc.add(m) };
            }
            assert_eq!(acc, k, "k={v:?}");
            assert!(len <= signed_bits(k) as usize + 1, "k={v:?}");
        }
    }

    #[test]
    fn generator_on_curve() {
        assert!(Affine::generator().is_on_curve());
    }

    #[test]
    fn two_g_known_value() {
        let g2 = Jacobian::from_affine(&Affine::generator())
            .double()
            .to_affine();
        match g2 {
            Affine::Point { x, y } => {
                assert_eq!(
                    x,
                    fe_hex("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5")
                );
                assert_eq!(
                    y,
                    fe_hex("1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a")
                );
            }
            _ => panic!("2G is finite"),
        }
        assert!(g2.is_on_curve());
    }

    #[test]
    fn small_multiples_match_repeated_add() {
        let g = Jacobian::from_affine(&Affine::generator());
        let p = g_mul(&Scalar::new(U256::from_u64(7)));
        let mut acc = Jacobian::INFINITY;
        let mut acc_g = Jacobian::INFINITY;
        for k in 1..=20u64 {
            acc = acc.add(&p);
            acc_g = acc_g.add(&g);
            let k = Scalar::new(U256::from_u64(k));
            let direct = mul_add_g(&p, &k, &Scalar::ZERO);
            assert_eq!(acc.to_affine(), direct.to_affine(), "k={k:?}");
            assert_eq!(acc_g.to_affine(), g_mul(&k).to_affine(), "k={k:?}");
            let mixed = acc_g.add_affine((Fe::new(GX), Fe::new(GY)));
            assert_eq!(mixed.to_affine(), acc_g.add(&g).to_affine(), "k={k:?}");
        }
        // Mixed addition's special cases: P + P doubles, P + (-P) is O.
        let g_xy = (Fe::new(GX), Fe::new(GY));
        assert_eq!(g.add_affine(g_xy).to_affine(), g.double().to_affine());
        assert!(g.neg().add_affine(g_xy).is_infinity());
    }

    #[test]
    fn fixed_base_table_matches_double_and_add() {
        for v in edge_scalars() {
            let k = Scalar::new(v);
            assert_eq!(
                g_mul(&k).to_affine(),
                g_mul_double_and_add(&k).to_affine(),
                "k={v:?}"
            );
        }
    }

    #[test]
    fn joint_multiply_matches_double_and_add() {
        // a·P + b·G against both oracles, over edge scalars for a and a
        // mix of edge, zero and seeded scalars for b.
        let points = [
            Jacobian::from_affine(&Affine::generator()),
            g_mul(&Scalar::new(U256::from_u64(7))),
            g_mul(&Scalar::new(N.wrapping_sub(&U256::ONE))),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for (i, v) in edge_scalars().into_iter().enumerate() {
            let a = Scalar::new(v);
            let b = match i % 3 {
                0 => Scalar::ZERO,
                1 => Scalar::new(random_u256(&mut rng)),
                _ => a.neg(),
            };
            let p = &points[i % points.len()];
            let expect = scalar_mul_binary(p, &a).add(&g_mul_double_and_add(&b));
            let got = mul_add_g(p, &a, &b);
            assert_eq!(got.to_affine(), expect.to_affine(), "a={v:?}");
            if b.is_zero() {
                assert_eq!(
                    got.to_affine(),
                    scalar_mul_windowed(p, &a).to_affine(),
                    "a={v:?}"
                );
            }
        }
        // Terms that cancel: a·G + (n - a)·G = O.
        let g = Jacobian::from_affine(&Affine::generator());
        let a = Scalar::new(U256::from_u64(0xdeadbeef));
        assert!(mul_add_g(&g, &a, &a.neg()).is_infinity());
        // Terms that coincide: a·G + a·G = 2a·G.
        assert_eq!(
            mul_add_g(&g, &a, &a).to_affine(),
            g_mul(&a.add(a)).to_affine()
        );
    }

    #[test]
    fn precomputed_signatures_are_byte_identical_to_double_and_add() {
        // The table changes the cost of g·k, never its value: recompute
        // each signature with the reference scalar-mul path inlined and
        // compare every byte.
        for i in 1..16u64 {
            let key = U256::from_u64(i * 7919 + 13);
            let h = keccak256(&i.to_be_bytes());
            let fast = sign(&key, &h).unwrap();
            // Reference signature via double-and-add, same RFC-6979 nonce.
            let d = Scalar::from_canonical(key).unwrap();
            let z = Scalar::new(U256::from_be_bytes(&h));
            let k = rfc6979_nonce(&key, &h, 0);
            let (rx, ry) = match g_mul_double_and_add(&k).to_affine() {
                Affine::Point { x, y } => (x, y),
                Affine::Infinity => panic!("nonce point is finite"),
            };
            let r = Scalar::from_canonical(rx.to_u256()).unwrap();
            let mut s = k.inv().unwrap().mul(z.add(r.mul(d)));
            let mut rec_id = ry.is_odd() as u8;
            if s.is_high() {
                s = s.neg();
                rec_id ^= 1;
            }
            assert_eq!(fast.r.to_be_bytes(), r.to_u256().to_be_bytes(), "i={i}");
            assert_eq!(fast.s.to_be_bytes(), s.to_u256().to_be_bytes(), "i={i}");
            assert_eq!(fast.recovery_id, rec_id, "i={i}");
        }
    }

    #[test]
    fn recover_of_sign_is_the_signers_address_over_seeded_keys() {
        let mut rng = StdRng::seed_from_u64(42);
        for i in 0..24u64 {
            let key = random_u256(&mut rng);
            let Some(d) = Scalar::from_canonical(key) else {
                continue;
            };
            let expect = g_mul_double_and_add(&d).to_affine();
            assert_eq!(public_key(&key).unwrap(), expect);
            let h = keccak256(&key.to_be_bytes());
            let sig = sign(&key, &h).unwrap();
            assert_eq!(recover(&h, &sig), Ok(expect), "i={i}");
            assert_eq!(recover(&h, &sig), recover_oracle(&h, &sig), "i={i}");
            assert_eq!(
                recover_address(&h, &sig),
                Ok(expect.to_eth_address().unwrap())
            );
            assert!(verify(&expect, &h, &sig));
        }
    }

    #[test]
    fn garbage_signatures_fail_like_the_old_path() {
        let h = keccak256(b"x");
        // The smallest r that is not the x of any curve point.
        let off_curve = (1u64..1000)
            .map(U256::from_u64)
            .find(|&x| Affine::lift_x(Fe::new(x), false).is_none())
            .unwrap();
        let on_curve = sign(&U256::from_u64(42), &h).unwrap().r;
        let cases = [
            (U256::ZERO, U256::ONE, 0, EcdsaError::InvalidSignature),
            (N, U256::ONE, 0, EcdsaError::InvalidSignature),
            (U256::MAX, U256::ONE, 0, EcdsaError::InvalidSignature),
            (on_curve, U256::ZERO, 0, EcdsaError::InvalidSignature),
            (on_curve, N, 1, EcdsaError::InvalidSignature),
            (on_curve, U256::MAX, 0, EcdsaError::InvalidSignature),
            (on_curve, U256::ONE, 2, EcdsaError::InvalidSignature),
            (on_curve, U256::ONE, 3, EcdsaError::InvalidSignature),
            (U256::ONE, U256::ONE, 5, EcdsaError::InvalidSignature),
            (off_curve, U256::ONE, 0, EcdsaError::RecoveryFailed),
            (off_curve, U256::ONE, 1, EcdsaError::RecoveryFailed),
        ];
        for (r, s, recovery_id, expect) in cases {
            let sig = Signature { r, s, recovery_id };
            assert_eq!(recover(&h, &sig), Err(expect), "{sig:?}");
            assert_eq!(recover_oracle(&h, &sig), Err(expect), "{sig:?}");
        }
        // Garbage that still recovers (some key signed it) agrees too.
        for recovery_id in 0..2 {
            let sig = Signature {
                r: on_curve,
                s: U256::from_u64(12345),
                recovery_id,
            };
            assert_eq!(recover(&h, &sig), recover_oracle(&h, &sig));
        }
    }

    #[test]
    fn n_times_g_is_infinity() {
        // (n-1)G + G = O
        let n_minus_1 = Scalar::new(N.wrapping_sub(&U256::ONE));
        let p = g_mul(&n_minus_1);
        let sum = p.add(&Jacobian::from_affine(&Affine::generator()));
        assert!(sum.to_affine() == Affine::Infinity);
    }

    #[test]
    fn pubkey_of_one_is_g() {
        let pk = public_key(&U256::ONE).unwrap();
        assert_eq!(pk, Affine::generator());
    }

    #[test]
    fn known_eth_address_for_key_one() {
        // Widely known: privkey 0x...01 → address 0x7E5F4552091A69125d5DfCb7b8C2659029395Bdf
        let addr = public_key(&U256::ONE).unwrap().to_eth_address().unwrap();
        assert_eq!(
            addr.to_checksum(),
            "0x7E5F4552091A69125d5DfCb7b8C2659029395Bdf"
        );
    }

    #[test]
    fn rfc6979_satoshi_vector() {
        // Classic secp256k1+SHA-256 RFC6979 vector: d=1, msg="Satoshi Nakamoto".
        let msg_hash = ofl_primitives::sha256(b"Satoshi Nakamoto");
        let sig = sign(&U256::ONE, &msg_hash).unwrap();
        assert_eq!(
            to_hex(&sig.r.to_be_bytes()),
            "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
        );
        assert_eq!(
            to_hex(&sig.s.to_be_bytes()),
            "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let keys = [
            U256::from_u64(0xdeadbeef),
            U256::from_hex_str("4c0883a69102937d6231471b5dbb6204fe512961708279feb1be6ae5538da033")
                .unwrap(),
            N.wrapping_sub(&U256::ONE), // largest valid key
        ];
        for key in keys {
            let pk = public_key(&key).unwrap();
            for msg in [&b"hello"[..], b"", b"another message"] {
                let h = keccak256(msg);
                let sig = sign(&key, &h).unwrap();
                assert!(verify(&pk, &h, &sig));
                // Perturbed hash fails.
                let mut h2 = h;
                h2[0] ^= 1;
                assert!(!verify(&pk, &h2, &sig));
            }
        }
    }

    #[test]
    fn signatures_are_low_s() {
        for i in 1..20u64 {
            let key = U256::from_u64(i * 7 + 1);
            let h = keccak256(&i.to_be_bytes());
            let sig = sign(&key, &h).unwrap();
            assert!(!Scalar::from_canonical(sig.s).unwrap().is_high());
        }
    }

    #[test]
    fn high_s_rejected_by_verify() {
        let key = U256::from_u64(42);
        let pk = public_key(&key).unwrap();
        let h = keccak256(b"malleability");
        let sig = sign(&key, &h).unwrap();
        // Flip to the high-s twin: s' = n - s, still algebraically valid.
        let high = Signature {
            r: sig.r,
            s: N.wrapping_sub(&sig.s),
            recovery_id: sig.recovery_id ^ 1,
        };
        assert!(!verify(&pk, &h, &high));
    }

    #[test]
    fn recovery_roundtrip() {
        for i in 1..10u64 {
            let key = U256::from_u64(i * 1000 + 3);
            let expect = public_key(&key).unwrap();
            let h = keccak256(&i.to_le_bytes());
            let sig = sign(&key, &h).unwrap();
            let got = recover(&h, &sig).unwrap();
            assert_eq!(got, expect, "i={i}");
            assert_eq!(
                recover_address(&h, &sig).unwrap(),
                expect.to_eth_address().unwrap()
            );
        }
    }

    #[test]
    fn invalid_private_keys_rejected() {
        assert_eq!(public_key(&U256::ZERO), Err(EcdsaError::InvalidPrivateKey));
        assert_eq!(public_key(&N), Err(EcdsaError::InvalidPrivateKey));
        assert!(public_key(&N.wrapping_sub(&U256::ONE)).is_ok());
    }

    #[test]
    fn field_sqrt() {
        // 4 has root 2 (or p-2).
        let four = Fe::new(U256::from_u64(4));
        let r = four.sqrt().unwrap();
        assert!(r == Fe::new(U256::from_u64(2)) || r == Fe::new(U256::from_u64(2)).neg());
        // 5 is a known non-residue mod p? Verify via Euler criterion instead of
        // assuming: a^((p-1)/2) == p-1 for non-residues.
        let exp = P.wrapping_sub(&U256::ONE).shr(1);
        let five = Fe::new(U256::from_u64(5));
        let euler = fe_pow(five, &exp);
        if euler == Fe::ONE {
            assert!(five.sqrt().is_some());
        } else {
            assert!(five.sqrt().is_none());
        }
    }

    #[test]
    fn field_inverse_law() {
        for i in 1..50u64 {
            let a = Fe::new(U256::from_u64(i * 977 + 5));
            assert_eq!(a.mul(a.inv().unwrap()), Fe::ONE);
        }
    }

    #[test]
    fn reduce_p_extremes() {
        // (p-1)² mod p = 1
        let pm1 = Fe::new(P.wrapping_sub(&U256::ONE));
        assert_eq!(pm1.square(), Fe::ONE);
        // MAX * MAX reduces consistently with the generic path.
        let m = Fe::new(U256::MAX); // reduces to 2^256-1-p
        let fast = m.square().to_u256();
        let slow = m.to_u256().mul_mod(&m.to_u256(), &P);
        assert_eq!(fast, slow);
    }
}
