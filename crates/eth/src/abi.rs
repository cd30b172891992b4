//! Minimal Solidity ABI encoding/decoding covering the types the OFL-W3
//! contracts use: `uint256`, `address`, `bool`, `string`, `bytes`.
//!
//! Function selectors are the first 4 bytes of the Keccak-256 of the
//! canonical signature, exactly as solc computes them, so our hand-assembled
//! contracts are call-compatible with the Solidity source in the paper's
//! Fig 2.

use ofl_primitives::u256::U256;
use ofl_primitives::{keccak256, H160};

/// An ABI value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `uint256`
    Uint(U256),
    /// `address`
    Address(H160),
    /// `bool`
    Bool(bool),
    /// `string` (UTF-8)
    String(String),
    /// `bytes` (dynamic)
    Bytes(Vec<u8>),
}

impl Value {
    fn is_dynamic(&self) -> bool {
        matches!(self, Value::String(_) | Value::Bytes(_))
    }

    /// Extracts a `uint256`, if that is the variant.
    pub fn as_uint(&self) -> Option<U256> {
        match self {
            Value::Uint(v) => Some(*v),
            _ => None,
        }
    }
}

/// ABI type descriptors used for decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Type {
    Uint,
    Address,
    Bool,
    String,
    Bytes,
}

impl Type {
    fn is_dynamic(&self) -> bool {
        matches!(self, Type::String | Type::Bytes)
    }
}

/// Errors from ABI decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbiError {
    /// Data shorter than the encoding requires.
    Truncated,
    /// A dynamic offset or length does not fit in usize / points outside.
    BadOffset,
    /// String payload is not UTF-8.
    InvalidUtf8,
    /// Bool word is neither 0 nor 1.
    InvalidBool,
    /// Data extends past what the encoding consumes — corrupt returndata
    /// that a silent decoder would truncate instead of surfacing.
    TrailingData,
}

impl core::fmt::Display for AbiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            AbiError::Truncated => "ABI data truncated",
            AbiError::BadOffset => "ABI offset/length out of range",
            AbiError::InvalidUtf8 => "ABI string is not UTF-8",
            AbiError::InvalidBool => "ABI bool is not 0 or 1",
            AbiError::TrailingData => "ABI data has trailing bytes past the encoding",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for AbiError {}

/// Computes a 4-byte function selector from a canonical signature like
/// `"transfer(address,uint256)"`.
pub fn selector(signature: &str) -> [u8; 4] {
    let digest = keccak256(signature.as_bytes());
    [digest[0], digest[1], digest[2], digest[3]]
}

/// Computes an event topic (full 32-byte Keccak of the signature).
pub fn event_topic(signature: &str) -> [u8; 32] {
    keccak256(signature.as_bytes())
}

/// Encodes values per the ABI head/tail scheme (no function selector).
pub fn encode(values: &[Value]) -> Vec<u8> {
    let head_len = values.len() * 32;
    let mut head = Vec::with_capacity(head_len);
    let mut tail = Vec::new();
    for v in values {
        if v.is_dynamic() {
            let offset = U256::from(head_len + tail.len());
            head.extend_from_slice(&offset.to_be_bytes());
            match v {
                Value::String(s) => encode_dynamic_bytes(s.as_bytes(), &mut tail),
                Value::Bytes(b) => encode_dynamic_bytes(b, &mut tail),
                _ => unreachable!(),
            }
        } else {
            head.extend_from_slice(&encode_static(v));
        }
    }
    head.extend_from_slice(&tail);
    head
}

fn encode_static(v: &Value) -> [u8; 32] {
    match v {
        Value::Uint(u) => u.to_be_bytes(),
        Value::Address(a) => a.to_word().0,
        Value::Bool(b) => U256::from(*b as u64).to_be_bytes(),
        _ => unreachable!("dynamic value in static position"),
    }
}

fn encode_dynamic_bytes(data: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&U256::from(data.len()).to_be_bytes());
    out.extend_from_slice(data);
    let pad = (32 - data.len() % 32) % 32;
    out.extend(std::iter::repeat_n(0u8, pad));
}

/// Encodes a function call: selector followed by encoded arguments.
pub fn encode_call(signature: &str, args: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + args.len() * 32);
    out.extend_from_slice(&selector(signature));
    out.extend_from_slice(&encode(args));
    out
}

fn read_word(data: &[u8], at: usize) -> Result<[u8; 32], AbiError> {
    let slice = data.get(at..at + 32).ok_or(AbiError::Truncated)?;
    let mut w = [0u8; 32];
    w.copy_from_slice(slice);
    Ok(w)
}

/// Decodes a tuple of `types` from `data` (no selector). The encoding must
/// consume `data` exactly: unconsumed trailing bytes are corrupt returndata
/// and yield [`AbiError::TrailingData`] rather than being silently dropped.
pub fn decode(types: &[Type], data: &[u8]) -> Result<Vec<Value>, AbiError> {
    let head_len = types.len() * 32;
    // Everything the head consumes, plus the furthest tail byte any dynamic
    // value reaches (tails are 32-byte aligned, matching `encode`).
    let mut consumed_end = head_len;
    let mut out = Vec::with_capacity(types.len());
    for (i, ty) in types.iter().enumerate() {
        let word = read_word(data, i * 32)?;
        if ty.is_dynamic() {
            let offset = U256::from_be_bytes(&word)
                .to_u64()
                .ok_or(AbiError::BadOffset)? as usize;
            let len_word = read_word(data, offset)?;
            let len = U256::from_be_bytes(&len_word)
                .to_u64()
                .ok_or(AbiError::BadOffset)? as usize;
            let payload = data
                .get(offset + 32..offset + 32 + len)
                .ok_or(AbiError::Truncated)?;
            let padded = len.div_ceil(32) * 32;
            consumed_end = consumed_end.max(offset + 32 + padded);
            match ty {
                Type::String => {
                    let s =
                        String::from_utf8(payload.to_vec()).map_err(|_| AbiError::InvalidUtf8)?;
                    out.push(Value::String(s));
                }
                Type::Bytes => out.push(Value::Bytes(payload.to_vec())),
                _ => unreachable!(),
            }
        } else {
            match ty {
                Type::Uint => out.push(Value::Uint(U256::from_be_bytes(&word))),
                Type::Address => out.push(Value::Address(H160::from_slice(&word[12..]))),
                Type::Bool => {
                    let v = U256::from_be_bytes(&word);
                    if v == U256::ZERO {
                        out.push(Value::Bool(false));
                    } else if v == U256::ONE {
                        out.push(Value::Bool(true));
                    } else {
                        return Err(AbiError::InvalidBool);
                    }
                }
                _ => unreachable!(),
            }
        }
    }
    if data.len() > consumed_end {
        return Err(AbiError::TrailingData);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_primitives::hex::to_hex;

    #[test]
    fn known_selectors() {
        // solc-computed selectors: transfer() is the canonical check; the
        // others pin determinism and distinctness.
        assert_eq!(to_hex(&selector("transfer(address,uint256)")), "a9059cbb");
        assert_eq!(to_hex(&selector("balanceOf(address)")), "70a08231");
        assert_ne!(selector("uploadCid(string)"), selector("getCid(uint256)"));
        assert_ne!(selector("cidCount()"), selector("uploadCid(string)"));
    }

    #[test]
    fn encode_uint_is_padded_be() {
        let enc = encode(&[Value::Uint(U256::from(0x1234u64))]);
        assert_eq!(enc.len(), 32);
        assert_eq!(&enc[30..], &[0x12, 0x34]);
        assert!(enc[..30].iter().all(|&b| b == 0));
    }

    #[test]
    fn encode_string_head_tail() {
        let enc = encode(&[Value::String("QmHash".into())]);
        // head: offset 0x20; tail: len 6, padded payload.
        assert_eq!(enc.len(), 32 + 32 + 32);
        assert_eq!(U256::from_be_slice(&enc[..32]), U256::from(32u64));
        assert_eq!(U256::from_be_slice(&enc[32..64]), U256::from(6u64));
        assert_eq!(&enc[64..70], b"QmHash");
        assert!(enc[70..].iter().all(|&b| b == 0));
    }

    #[test]
    fn mixed_static_dynamic_layout() {
        let enc = encode(&[
            Value::Uint(U256::from(7u64)),
            Value::String("abc".into()),
            Value::Bool(true),
        ]);
        // head = 3 words, string tail at offset 96.
        assert_eq!(U256::from_be_slice(&enc[32..64]), U256::from(96u64));
        let dec = decode(&[Type::Uint, Type::String, Type::Bool], &enc).unwrap();
        assert_eq!(dec[0].as_uint().unwrap(), U256::from(7u64));
        assert_eq!(dec[1], Value::String("abc".into()));
        assert_eq!(dec[2], Value::Bool(true));
    }

    #[test]
    fn roundtrip_all_types() {
        let vals = vec![
            Value::Uint(U256::MAX),
            Value::Address(H160::from_slice(&[0xabu8; 20])),
            Value::Bool(false),
            Value::String("hello world, this is a longer string spanning multiple words".into()),
            Value::Bytes(vec![1, 2, 3, 4, 5]),
        ];
        let enc = encode(&vals);
        let dec = decode(
            &[
                Type::Uint,
                Type::Address,
                Type::Bool,
                Type::String,
                Type::Bytes,
            ],
            &enc,
        )
        .unwrap();
        assert_eq!(dec, vals);
    }

    #[test]
    fn encode_call_prepends_selector() {
        let call = encode_call("getCid(uint256)", &[Value::Uint(U256::from(3u64))]);
        assert_eq!(call.len(), 4 + 32);
        assert_eq!(&call[..4], &selector("getCid(uint256)"));
    }

    #[test]
    fn decode_rejects_truncation() {
        assert_eq!(decode(&[Type::Uint], &[0u8; 31]), Err(AbiError::Truncated));
        // Offset pointing past the end.
        let mut bad = U256::from(64u64).to_be_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 16]);
        assert!(decode(&[Type::String], &bad).is_err());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        // Static tuple with appended garbage: the old decoder silently
        // truncated; typed bindings need the corruption surfaced.
        let mut enc = encode(&[Value::Uint(U256::from(7u64))]);
        enc.push(0xff);
        assert_eq!(decode(&[Type::Uint], &enc), Err(AbiError::TrailingData));

        // Dynamic tuple with a whole extra word after the tail.
        let mut enc = encode(&[Value::String("QmHash".into())]);
        enc.extend_from_slice(&[0u8; 32]);
        assert_eq!(decode(&[Type::String], &enc), Err(AbiError::TrailingData));

        // Empty type list consumes nothing, so any byte is trailing.
        assert_eq!(decode(&[], &[0u8]), Err(AbiError::TrailingData));
        assert_eq!(decode(&[], &[]), Ok(vec![]));

        // Exact encodings still decode (including tail padding).
        let exact = encode(&[Value::Uint(U256::ONE), Value::String("abc".into())]);
        assert!(decode(&[Type::Uint, Type::String], &exact).is_ok());
    }

    #[test]
    fn decode_rejects_bad_bool() {
        let word = U256::from(2u64).to_be_bytes();
        assert_eq!(decode(&[Type::Bool], &word), Err(AbiError::InvalidBool));
    }

    #[test]
    fn empty_string_roundtrip() {
        let enc = encode(&[Value::String(String::new())]);
        let dec = decode(&[Type::String], &enc).unwrap();
        assert_eq!(dec[0], Value::String(String::new()));
    }

    #[test]
    fn cid_string_roundtrip() {
        // A realistic 46-char CIDv0 as sent by uploadCid.
        let cid = "QmYwAPJzv5CZsnA625s3Xf2nemtYgPpHdWEz79ojWnPbdG";
        let enc = encode(&[Value::String(cid.into())]);
        let dec = decode(&[Type::String], &enc).unwrap();
        assert_eq!(dec[0], Value::String(cid.into()));
    }
}
