//! Transaction types: EIP-1559 dynamic-fee transactions, the default on
//! Sepolia, which the paper uses. [`SignedTx::decode`] rejects every other
//! transaction type.
//!
//! Signing hashes, RLP envelopes, and sender recovery follow the Ethereum
//! specifications so that a transaction round-trips
//! `sign → encode → decode → recover_sender` byte-exactly.

use crate::secp256k1::{self, EcdsaError, Signature};
use ofl_primitives::rlp::{self, Item, RlpError};
use ofl_primitives::u256::U256;
use ofl_primitives::{keccak256, H160, H256};

/// EIP-1559 type-2 transaction payload (before signing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRequest {
    /// Chain id (replay protection).
    pub chain_id: u64,
    /// Sender account nonce.
    pub nonce: u64,
    /// Max priority fee per gas (tip), in wei.
    pub max_priority_fee_per_gas: U256,
    /// Max total fee per gas, in wei.
    pub max_fee_per_gas: U256,
    /// Gas limit.
    pub gas_limit: u64,
    /// Recipient; `None` creates a contract.
    pub to: Option<H160>,
    /// Wei transferred.
    pub value: U256,
    /// Calldata or init code.
    pub data: Vec<u8>,
}

impl TxRequest {
    /// The EIP-2718 typed signing hash:
    /// `keccak256(0x02 ‖ rlp([chain_id, nonce, tip, fee, gas, to, value, data, []]))`.
    pub fn signing_hash(&self) -> H256 {
        let payload = rlp::encode(&Item::List(self.rlp_fields()));
        let mut pre = Vec::with_capacity(payload.len() + 1);
        pre.push(0x02);
        pre.extend_from_slice(&payload);
        H256::from_bytes(keccak256(&pre))
    }

    fn rlp_fields(&self) -> Vec<Item> {
        vec![
            Item::u64(self.chain_id),
            Item::u64(self.nonce),
            Item::uint(&self.max_priority_fee_per_gas),
            Item::uint(&self.max_fee_per_gas),
            Item::u64(self.gas_limit),
            match &self.to {
                Some(addr) => Item::bytes(addr.as_bytes()),
                None => Item::bytes([]),
            },
            Item::uint(&self.value),
            Item::bytes(&self.data),
            Item::List(vec![]), // access list (always empty here)
        ]
    }

    /// Attaches a signature, producing a broadcastable transaction.
    pub fn into_signed(self, signature: Signature) -> SignedTx {
        SignedTx {
            request: self,
            signature,
        }
    }

    /// True iff this deploys a contract.
    pub fn is_create(&self) -> bool {
        self.to.is_none()
    }
}

/// A signed EIP-1559 transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedTx {
    /// The signed payload.
    pub request: TxRequest,
    /// secp256k1 signature with y-parity in `recovery_id`.
    pub signature: Signature,
}

/// Errors from decoding or validating raw transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// Not a type-2 envelope.
    UnsupportedType(u8),
    /// Malformed RLP.
    Rlp(RlpError),
    /// Wrong field count or field shapes.
    MalformedBody,
    /// Signature scalars invalid or recovery failed.
    Signature(EcdsaError),
    /// `to` field is neither empty nor 20 bytes.
    BadAddress,
}

impl From<RlpError> for TxError {
    fn from(e: RlpError) -> Self {
        TxError::Rlp(e)
    }
}

impl From<EcdsaError> for TxError {
    fn from(e: EcdsaError) -> Self {
        TxError::Signature(e)
    }
}

impl core::fmt::Display for TxError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TxError::UnsupportedType(t) => write!(f, "unsupported transaction type {t}"),
            TxError::Rlp(e) => write!(f, "rlp: {e}"),
            TxError::MalformedBody => write!(f, "malformed transaction body"),
            TxError::Signature(e) => write!(f, "signature: {e}"),
            TxError::BadAddress => write!(f, "recipient is neither empty nor 20 bytes"),
        }
    }
}

impl std::error::Error for TxError {}

impl SignedTx {
    /// The canonical encoding: `0x02 ‖ rlp([...fields, y_parity, r, s])`.
    pub fn encode(&self) -> Vec<u8> {
        let mut fields = self.request.rlp_fields();
        fields.push(Item::u64(self.signature.recovery_id as u64));
        fields.push(Item::uint(&self.signature.r));
        fields.push(Item::uint(&self.signature.s));
        let payload = rlp::encode(&Item::List(fields));
        let mut out = Vec::with_capacity(payload.len() + 1);
        out.push(0x02);
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a raw typed transaction.
    pub fn decode(raw: &[u8]) -> Result<SignedTx, TxError> {
        let (&ty, body) = raw.split_first().ok_or(TxError::MalformedBody)?;
        if ty != 0x02 {
            return Err(TxError::UnsupportedType(ty));
        }
        let item = rlp::decode(body)?;
        let fields = item.as_list().ok_or(TxError::MalformedBody)?;
        if fields.len() != 12 {
            return Err(TxError::MalformedBody);
        }
        let to_bytes = fields[5].as_bytes().ok_or(TxError::MalformedBody)?;
        let to = match to_bytes.len() {
            0 => None,
            20 => Some(H160::from_slice(to_bytes)),
            _ => return Err(TxError::BadAddress),
        };
        // Access list must be the empty list in our subset.
        if fields[8].as_list().map(|l| l.len()) != Some(0) {
            return Err(TxError::MalformedBody);
        }
        let recovery_id = fields[9].as_u64()?;
        if recovery_id > 1 {
            return Err(TxError::Signature(EcdsaError::InvalidSignature));
        }
        let request = TxRequest {
            chain_id: fields[0].as_u64()?,
            nonce: fields[1].as_u64()?,
            max_priority_fee_per_gas: fields[2].as_uint()?,
            max_fee_per_gas: fields[3].as_uint()?,
            gas_limit: fields[4].as_u64()?,
            to,
            value: fields[6].as_uint()?,
            data: fields[7].as_bytes().ok_or(TxError::MalformedBody)?.to_vec(),
        };
        let signature = Signature {
            recovery_id: recovery_id as u8,
            r: fields[10].as_uint()?,
            s: fields[11].as_uint()?,
        };
        Ok(SignedTx { request, signature })
    }

    /// The transaction hash (Keccak of the canonical encoding).
    pub fn hash(&self) -> H256 {
        H256::from_bytes(keccak256(&self.encode()))
    }

    /// Recovers the sender address from the signature.
    pub fn recover_sender(&self) -> Result<H160, TxError> {
        let hash = self.request.signing_hash();
        Ok(secp256k1::recover_address(&hash.0, &self.signature)?)
    }

    /// Verifies the signature against a claimed sender.
    pub fn verify_sender(&self, expected: &H160) -> bool {
        self.recover_sender()
            .map(|a| a == *expected)
            .unwrap_or(false)
    }
}

/// Signs a request with a private key, producing a broadcastable transaction.
pub fn sign_tx(request: TxRequest, private_key: &U256) -> Result<SignedTx, EcdsaError> {
    let hash = request.signing_hash();
    let signature = secp256k1::sign(private_key, &hash.0)?;
    Ok(request.into_signed(signature))
}

/// The deterministic contract address for a CREATE by `sender` at `nonce`:
/// `keccak256(rlp([sender, nonce]))[12..]`.
pub fn create_address(sender: &H160, nonce: u64) -> H160 {
    let item = Item::List(vec![Item::bytes(sender.as_bytes()), Item::u64(nonce)]);
    let digest = keccak256(&rlp::encode(&item));
    H160::from_slice(&digest[12..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> TxRequest {
        TxRequest {
            chain_id: 11155111,
            nonce: 3,
            max_priority_fee_per_gas: U256::from(1_500_000_000u64),
            max_fee_per_gas: U256::from(30_000_000_000u64),
            gas_limit: 100_000,
            to: Some(H160::from_slice(&[0x42; 20])),
            value: U256::from_u128(1_000_000_000_000_000),
            data: vec![0xde, 0xad, 0xbe, 0xef],
        }
    }

    #[test]
    fn sign_encode_decode_recover() {
        let key = U256::from(0xbeefu64);
        let expected_sender = secp256k1::public_key(&key)
            .unwrap()
            .to_eth_address()
            .unwrap();
        let tx = sign_tx(sample_request(), &key).unwrap();
        let raw = tx.encode();
        assert_eq!(raw[0], 0x02);
        let decoded = SignedTx::decode(&raw).unwrap();
        assert_eq!(decoded, tx);
        assert_eq!(decoded.recover_sender().unwrap(), expected_sender);
        assert!(decoded.verify_sender(&expected_sender));
        assert!(!decoded.verify_sender(&H160::ZERO));
    }

    #[test]
    fn tamper_changes_sender_or_fails() {
        let key = U256::from(0x1234u64);
        let honest = secp256k1::public_key(&key)
            .unwrap()
            .to_eth_address()
            .unwrap();
        let tx = sign_tx(sample_request(), &key).unwrap();
        let mut tampered = tx.clone();
        tampered.request.value = U256::from(999u64);
        // The recovered sender will not match the honest signer.
        // Recovery may legitimately fail; if it succeeds, the recovered
        // sender must differ.
        if let Ok(addr) = tampered.recover_sender() {
            assert_ne!(addr, honest);
        }
    }

    #[test]
    fn create_tx_roundtrip() {
        let mut req = sample_request();
        req.to = None;
        req.data = vec![0x60, 0x01, 0x60, 0x02];
        let key = U256::from(77u64);
        let tx = sign_tx(req, &key).unwrap();
        let dec = SignedTx::decode(&tx.encode()).unwrap();
        assert!(dec.request.is_create());
        assert_eq!(dec.request.data, vec![0x60, 0x01, 0x60, 0x02]);
    }

    #[test]
    fn signing_hash_depends_on_every_field() {
        let base = sample_request();
        let h0 = base.signing_hash();
        let mut variants = Vec::new();
        let mut r = base.clone();
        r.nonce += 1;
        variants.push(r.signing_hash());
        let mut r = base.clone();
        r.chain_id = 1;
        variants.push(r.signing_hash());
        let mut r = base.clone();
        r.value = U256::ZERO;
        variants.push(r.signing_hash());
        let mut r = base.clone();
        r.data.push(0);
        variants.push(r.signing_hash());
        let mut r = base.clone();
        r.to = None;
        variants.push(r.signing_hash());
        for v in variants {
            assert_ne!(v, h0);
        }
    }

    #[test]
    fn tx_hash_distinct_from_signing_hash() {
        let tx = sign_tx(sample_request(), &U256::from(5u64)).unwrap();
        assert_ne!(tx.hash(), tx.request.signing_hash());
    }

    #[test]
    fn decode_rejects_wrong_type() {
        assert!(matches!(
            SignedTx::decode(&[0x01, 0xc0]),
            Err(TxError::UnsupportedType(1))
        ));
        assert!(SignedTx::decode(&[]).is_err());
    }

    #[test]
    fn decode_rejects_bad_field_count() {
        let item = Item::List(vec![Item::u64(1); 5]);
        let mut raw = vec![0x02];
        raw.extend(rlp::encode(&item));
        assert_eq!(SignedTx::decode(&raw), Err(TxError::MalformedBody));
    }

    #[test]
    fn create_address_known_vector() {
        // Known mainnet vector: sender 0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0
        // nonce 0 → Cryptokitties-era example; verify the generic property
        // instead: distinct nonces give distinct addresses and match the
        // hand-computed keccak.
        let sender = H160::from_hex("0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0").unwrap();
        let a0 = create_address(&sender, 0);
        let a1 = create_address(&sender, 1);
        assert_ne!(a0, a1);
        let manual = {
            let item = Item::List(vec![Item::bytes(sender.as_bytes()), Item::u64(0)]);
            let d = keccak256(&rlp::encode(&item));
            H160::from_slice(&d[12..])
        };
        assert_eq!(a0, manual);
    }
}
