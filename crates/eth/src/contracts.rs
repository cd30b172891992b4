//! The OFL-W3 smart contracts, authored in EVM assembly.
//!
//! [`cid_storage_runtime`] reproduces the `CidStorage` contract from Fig 2 of
//! the paper with solc-compatible ABI and storage layout:
//!
//! ```solidity
//! pragma solidity ^0.8.7;
//! contract CidStorage {
//!     uint256 public cidCount;                      // slot 0
//!     mapping(uint256 => string) cids;              // slot 1
//!     event CidUploaded(string cid);
//!     function uploadCid(string memory cid) public {
//!         cids[cidCount] = cid;
//!         cidCount++;
//!         emit CidUploaded(cid);
//!     }
//!     function getCid(uint256 index) public view returns (string memory) {
//!         require(index < cidCount, "Invalid CID index");
//!         return cids[index];
//!     }
//! }
//! ```
//!
//! Strings use Solidity's storage encoding: values ≤ 31 bytes pack into the
//! main slot with `2·len` in the low byte; longer values store `2·len + 1`
//! in the main slot and the payload at `keccak256(main_slot)` onward.
//!
//! This module is the one place that knows the contract's ABI: the
//! calldata builders, the `CidUploaded` topic, and the decoders of every
//! return and of the event data. Clients send those bytes over whatever
//! reaches the chain (`Chain::call` here, a provider in `ofl-rpc`).

use crate::abi::{self, AbiError, Type, Value};
use crate::asm::{assemble, deployment_code, Op};
use crate::chain::CallResult;
use ofl_primitives::u256::U256;
use ofl_primitives::H256;

const UPLOAD_CID_SIG: &str = "uploadCid(string)";
const GET_CID_SIG: &str = "getCid(uint256)";
const CID_COUNT_SIG: &str = "cidCount()";
const CID_UPLOADED_EVENT: &str = "CidUploaded(string)";

/// Builds the CidStorage runtime bytecode.
pub fn cid_storage_runtime() -> Vec<u8> {
    use Op::*;
    let sel_upload = U256::from_be_slice(&abi::selector(UPLOAD_CID_SIG));
    let sel_getcid = U256::from_be_slice(&abi::selector(GET_CID_SIG));
    let sel_count = U256::from_be_slice(&abi::selector(CID_COUNT_SIG));
    let topic = U256::from_be_bytes(&abi::event_topic(CID_UPLOADED_EVENT));

    // Memory map: 0x00–0x3f hashing scratch; 0x40 slot_main; 0x60 len/index;
    // 0x80 calldata payload position; 0xa0 saved count; 0xc0 data_slot;
    // 0xe0 loop counter; 0x100+ return/log staging.
    let program: Vec<Op> = vec![
        // Non-payable guard.
        CallValue,
        PushLabel("revert"),
        JumpI,
        // Selector dispatch.
        Push(U256::ZERO),
        CallDataLoad,
        Push(U256::from(224u64)),
        Shr,
        Dup(1),
        Push(sel_upload),
        Eq,
        PushLabel("fn_upload"),
        JumpI,
        Dup(1),
        Push(sel_getcid),
        Eq,
        PushLabel("fn_getcid"),
        JumpI,
        Dup(1),
        Push(sel_count),
        Eq,
        PushLabel("fn_count"),
        JumpI,
        Label("revert"),
        Push(U256::ZERO),
        Push(U256::ZERO),
        Revert,
        //
        // cidCount() → uint256
        //
        Label("fn_count"),
        Pop,
        Push(U256::ZERO),
        SLoad,
        Push(U256::ZERO),
        MStore,
        Push(U256::from(0x20u64)),
        Push(U256::ZERO),
        Return,
        //
        // uploadCid(string)
        //
        Label("fn_upload"),
        Pop,
        // count = SLOAD(0); mem[0xa0] = count
        Push(U256::ZERO),
        SLoad,
        Dup(1),
        Push(U256::from(0xa0u64)),
        MStore,
        // slot_main = keccak256(count ‖ 1); mem[0x40] = slot_main
        Push(U256::ZERO),
        MStore,
        Push(U256::ONE),
        Push(U256::from(0x20u64)),
        MStore,
        Push(U256::from(0x40u64)),
        Push(U256::ZERO),
        Keccak256,
        Push(U256::from(0x40u64)),
        MStore,
        // off = calldataload(4); len_pos = 4 + off
        Push(U256::from(4u64)),
        CallDataLoad,
        Push(U256::from(4u64)),
        Add,
        // len = calldataload(len_pos); mem[0x60] = len
        Dup(1),
        CallDataLoad,
        Dup(1),
        Push(U256::from(0x60u64)),
        MStore,
        // data_pos = len_pos + 32; mem[0x80] = data_pos  (stack: [len_pos, len])
        Swap(1),
        Push(U256::from(0x20u64)),
        Add,
        Push(U256::from(0x80u64)),
        MStore,
        Pop, // drop len copy; everything is in memory now
        // if len < 32 → short string
        Push(U256::from(0x20u64)),
        Push(U256::from(0x60u64)),
        MLoad,
        Lt,
        PushLabel("upload_short"),
        JumpI,
        // Long path: SSTORE(slot_main, 2·len + 1)
        Push(U256::from(0x60u64)),
        MLoad,
        Push(U256::from(2u64)),
        Mul,
        Push(U256::ONE),
        Add,
        Push(U256::from(0x40u64)),
        MLoad,
        SStore,
        // data_slot = keccak256(slot_main); mem[0xc0] = data_slot
        Push(U256::from(0x40u64)),
        MLoad,
        Push(U256::ZERO),
        MStore,
        Push(U256::from(0x20u64)),
        Push(U256::ZERO),
        Keccak256,
        Push(U256::from(0xc0u64)),
        MStore,
        // i = 0
        Push(U256::ZERO),
        Push(U256::from(0xe0u64)),
        MStore,
        Label("upload_loop"),
        // while (i·32 < len)
        Push(U256::from(0x60u64)),
        MLoad,
        Push(U256::from(0xe0u64)),
        MLoad,
        Push(U256::from(0x20u64)),
        Mul,
        Lt,
        IsZero,
        PushLabel("upload_fin"),
        JumpI,
        // SSTORE(data_slot + i, calldataload(data_pos + i·32))
        Push(U256::from(0x80u64)),
        MLoad,
        Push(U256::from(0xe0u64)),
        MLoad,
        Push(U256::from(0x20u64)),
        Mul,
        Add,
        CallDataLoad,
        Push(U256::from(0xc0u64)),
        MLoad,
        Push(U256::from(0xe0u64)),
        MLoad,
        Add,
        SStore,
        // i += 1
        Push(U256::from(0xe0u64)),
        MLoad,
        Push(U256::ONE),
        Add,
        Push(U256::from(0xe0u64)),
        MStore,
        PushLabel("upload_loop"),
        Jump,
        // Short path: SSTORE(slot_main, data | 2·len)
        Label("upload_short"),
        Push(U256::from(0x80u64)),
        MLoad,
        CallDataLoad,
        Push(U256::from(0x60u64)),
        MLoad,
        Push(U256::from(2u64)),
        Mul,
        Or,
        Push(U256::from(0x40u64)),
        MLoad,
        SStore,
        // fallthrough to fin
        Label("upload_fin"),
        // cidCount = count + 1
        Push(U256::from(0xa0u64)),
        MLoad,
        Push(U256::ONE),
        Add,
        Push(U256::ZERO),
        SStore,
        // emit CidUploaded(cid): log the ABI-encoded args region verbatim.
        Push(U256::from(4u64)),
        CallDataSize,
        Sub, // args_len = calldatasize − 4
        Dup(1),
        Push(U256::from(4u64)),
        Push(U256::from(0x100u64)),
        CallDataCopy, // memcpy(0x100, calldata[4..], args_len)
        PushN(32, topic),
        Swap(1),
        Push(U256::from(0x100u64)),
        Log(1),
        Stop,
        //
        // getCid(uint256) → string
        //
        Label("fn_getcid"),
        Pop,
        // require(index < cidCount)
        Push(U256::ZERO),
        SLoad,
        Push(U256::from(4u64)),
        CallDataLoad,
        Dup(1),
        Push(U256::from(0x60u64)),
        MStore,
        Lt,
        PushLabel("getcid_ok"),
        JumpI,
        Push(U256::ZERO),
        Push(U256::ZERO),
        Revert,
        Label("getcid_ok"),
        // slot_main = keccak256(index ‖ 1)
        Push(U256::from(0x60u64)),
        MLoad,
        Push(U256::ZERO),
        MStore,
        Push(U256::ONE),
        Push(U256::from(0x20u64)),
        MStore,
        Push(U256::from(0x40u64)),
        Push(U256::ZERO),
        Keccak256,
        Dup(1),
        Push(U256::from(0x40u64)),
        MStore,
        SLoad, // v = SLOAD(slot_main)
        Dup(1),
        Push(U256::ONE),
        And,
        PushLabel("getcid_long"),
        JumpI,
        // Short string: len = (v & 0xff) >> 1, payload = v & ~0xff.
        Dup(1),
        Push(U256::from(0xffu64)),
        And,
        Push(U256::ONE),
        Shr,
        Push(U256::from(0x20u64)),
        Push(U256::from(0x100u64)),
        MStore, // mem[0x100] = 0x20 (abi offset)
        Push(U256::from(0x120u64)),
        MStore, // mem[0x120] = len
        Push(U256::from(0xffu64)),
        Not,
        And,
        Push(U256::from(0x140u64)),
        MStore, // mem[0x140] = payload word
        Push(U256::from(0x60u64)),
        Push(U256::from(0x100u64)),
        Return,
        Label("getcid_long"),
        // len = v >> 1
        Push(U256::ONE),
        Shr,
        Dup(1),
        Push(U256::from(0x120u64)),
        MStore,
        Push(U256::from(0x20u64)),
        Push(U256::from(0x100u64)),
        MStore,
        // data_slot = keccak256(slot_main); mem[0xc0] = data_slot
        Push(U256::from(0x40u64)),
        MLoad,
        Push(U256::ZERO),
        MStore,
        Push(U256::from(0x20u64)),
        Push(U256::ZERO),
        Keccak256,
        Push(U256::from(0xc0u64)),
        MStore,
        Push(U256::ZERO),
        Push(U256::from(0xe0u64)),
        MStore,
        Label("getcid_loop"),
        // while (i·32 < len): stack holds [len] throughout
        Dup(1),
        Push(U256::from(0xe0u64)),
        MLoad,
        Push(U256::from(0x20u64)),
        Mul,
        Lt,
        IsZero,
        PushLabel("getcid_done"),
        JumpI,
        // mem[0x140 + i·32] = SLOAD(data_slot + i)
        Push(U256::from(0xc0u64)),
        MLoad,
        Push(U256::from(0xe0u64)),
        MLoad,
        Add,
        SLoad,
        Push(U256::from(0xe0u64)),
        MLoad,
        Push(U256::from(0x20u64)),
        Mul,
        Push(U256::from(0x140u64)),
        Add,
        MStore,
        Push(U256::from(0xe0u64)),
        MLoad,
        Push(U256::ONE),
        Add,
        Push(U256::from(0xe0u64)),
        MStore,
        PushLabel("getcid_loop"),
        Jump,
        Label("getcid_done"),
        // return(0x100, 0x40 + ceil32(len))
        Push(U256::from(31u64)),
        Add,
        Push(U256::from(0x20u64)),
        Swap(1),
        Div,
        Push(U256::from(0x20u64)),
        Mul,
        Push(U256::from(0x40u64)),
        Add,
        Push(U256::from(0x100u64)),
        Return,
    ];
    assemble(&program).expect("CidStorage program assembles")
}

/// The deployable init code for CidStorage.
pub fn cid_storage_init_code() -> Vec<u8> {
    deployment_code(&cid_storage_runtime())
}

/// Calldata for `cidCount()`.
pub fn cid_count_calldata() -> Vec<u8> {
    abi::encode_call(CID_COUNT_SIG, &[])
}

/// Calldata for `getCid(index)`.
pub fn get_cid_calldata(index: u64) -> Vec<u8> {
    abi::encode_call(GET_CID_SIG, &[Value::Uint(U256::from(index))])
}

/// Calldata for `uploadCid(cid)` — submitted as a transaction.
pub fn upload_cid_calldata(cid: &str) -> Vec<u8> {
    abi::encode_call(UPLOAD_CID_SIG, &[Value::String(cid.to_string())])
}

/// The 4-byte selector `uploadCid` calldata starts with.
pub fn upload_cid_selector() -> [u8; 4] {
    abi::selector(UPLOAD_CID_SIG)
}

/// The topic hash a `CidUploaded` log carries.
pub fn cid_uploaded_topic() -> H256 {
    H256::from_bytes(abi::event_topic(CID_UPLOADED_EVENT))
}

/// Decodes a `cidCount()` call's result.
pub fn decode_cid_count(result: &CallResult) -> Result<u64, ContractError> {
    returned(result, Type::Uint)?
        .as_uint()
        .and_then(|u| u.to_u64())
        .ok_or(ContractError::TypeMismatch)
}

/// Decodes a `getCid(index)` call's result.
pub fn decode_get_cid(result: &CallResult) -> Result<String, ContractError> {
    string(returned(result, Type::String)?)
}

/// Decodes a `CidUploaded` log's (unindexed) data payload.
pub fn decode_cid_uploaded(data: &[u8]) -> Result<String, ContractError> {
    string(decode_one(Type::String, data)?)
}

/// Errors from reading the contract: a revert, or returndata that does not
/// decode as the ABI promises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractError {
    /// The call executed and reverted; carries the revert payload.
    Reverted(Vec<u8>),
    /// Returndata failed ABI decoding (truncated, trailing garbage, …).
    Decode(AbiError),
    /// Returndata decoded, but not into the expected Rust type (a
    /// `uint256` counter that does not fit `u64`), or a deployment receipt
    /// without a contract address.
    TypeMismatch,
}

impl core::fmt::Display for ContractError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ContractError::Reverted(data) => write!(
                f,
                "contract call reverted ({} bytes of revert data)",
                data.len()
            ),
            ContractError::Decode(e) => write!(f, "returndata decode: {e}"),
            ContractError::TypeMismatch => write!(f, "returndata does not fit the bound type"),
        }
    }
}

impl std::error::Error for ContractError {}

fn returned(result: &CallResult, ty: Type) -> Result<Value, ContractError> {
    if !result.success {
        return Err(ContractError::Reverted(result.output.clone()));
    }
    decode_one(ty, &result.output)
}

fn decode_one(ty: Type, data: &[u8]) -> Result<Value, ContractError> {
    let mut values = abi::decode(&[ty], data).map_err(ContractError::Decode)?;
    Ok(values.remove(0))
}

fn string(value: Value) -> Result<String, ContractError> {
    match value {
        Value::String(s) => Ok(s),
        _ => Err(ContractError::TypeMismatch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{Chain, ChainConfig};
    use crate::secp256k1;
    use crate::tx::{sign_tx, TxRequest};
    use ofl_primitives::{wei_per_eth, H160};

    struct Fixture {
        chain: Chain,
        contract: H160,
        caller: H160,
        key: U256,
        time: u64,
    }

    impl Fixture {
        fn new() -> Fixture {
            let key = U256::from(0xabcdefu64);
            let caller = secp256k1::public_key(&key)
                .unwrap()
                .to_eth_address()
                .unwrap();
            let mut chain = Chain::new(
                ChainConfig::default(),
                &[(caller, wei_per_eth().wrapping_mul(&U256::from(10u64)))],
            );
            let req = TxRequest {
                chain_id: chain.config().chain_id,
                nonce: 0,
                max_priority_fee_per_gas: U256::from(1_500_000_000u64),
                max_fee_per_gas: U256::from(40_000_000_000u64),
                gas_limit: 1_000_000,
                to: None,
                value: U256::ZERO,
                data: cid_storage_init_code(),
            };
            let hash = chain.submit(sign_tx(req, &key).unwrap()).unwrap();
            chain.mine_block(12);
            let receipt = chain.receipt(&hash).unwrap();
            assert!(receipt.is_success(), "deploy failed: {:?}", receipt.status);
            let contract = receipt.contract_address.unwrap();
            Fixture {
                chain,
                contract,
                caller,
                key,
                time: 12,
            }
        }

        fn upload(&mut self, cid: &str) -> crate::block::Receipt {
            let req = TxRequest {
                chain_id: self.chain.config().chain_id,
                nonce: self.chain.nonce(&self.caller),
                max_priority_fee_per_gas: U256::from(1_500_000_000u64),
                max_fee_per_gas: U256::from(40_000_000_000u64),
                gas_limit: 300_000,
                to: Some(self.contract),
                value: U256::ZERO,
                data: upload_cid_calldata(cid),
            };
            let hash = self.chain.submit(sign_tx(req, &self.key).unwrap()).unwrap();
            self.time += 12;
            self.chain.mine_block(self.time);
            self.chain.receipt(&hash).unwrap().clone()
        }

        fn read(&self, data: Vec<u8>) -> CallResult {
            self.chain.call(&self.caller, &self.contract, data)
        }

        fn cid_count(&self) -> Result<u64, ContractError> {
            decode_cid_count(&self.read(cid_count_calldata()))
        }

        fn get_cid(&self, index: u64) -> Result<String, ContractError> {
            decode_get_cid(&self.read(get_cid_calldata(index)))
        }

        fn all_cids(&self) -> Result<Vec<String>, ContractError> {
            (0..self.cid_count()?).map(|i| self.get_cid(i)).collect()
        }
    }

    #[test]
    fn abi_bytes_are_pinned() {
        let hex = |bytes: &[u8]| ofl_primitives::hex::to_hex(bytes);
        assert_eq!(hex(&cid_count_calldata()), "1dccdb8e");
        assert_eq!(
            hex(&get_cid_calldata(3)),
            "3beaa6ab0000000000000000000000000000000000000000000000000000000000000003"
        );
        assert_eq!(
            hex(&upload_cid_calldata(
                "QmYwAPJzv5CZsnA625s3Xf2nemtYgPpHdWEz79ojWnPbdG"
            )),
            "af8a99ab\
             0000000000000000000000000000000000000000000000000000000000000020\
             000000000000000000000000000000000000000000000000000000000000002e\
             516d597741504a7a7635435a736e4136323573335866326e656d7459675070\
             486457457a37396f6a576e50626447000000000000000000000000000000000000"
        );
        assert_eq!(upload_cid_selector(), [0xaf, 0x8a, 0x99, 0xab]);
        assert_eq!(
            hex(cid_uploaded_topic().as_bytes()),
            "1eab3fda3e34383fd3de56a7b3d1282cc77364c30f38cb63b9117ea3eaed58bb"
        );
    }

    #[test]
    fn corrupt_returndata_is_a_decode_error_not_a_truncation() {
        // Returndata with trailing garbage must surface
        // AbiError::TrailingData, not decode the prefix.
        let mut output = abi::encode(&[Value::Uint(U256::from(3u64))]);
        output.push(0xAA);
        let corrupt = CallResult {
            success: true,
            output,
            gas_used: 0,
        };
        assert_eq!(
            decode_cid_count(&corrupt),
            Err(ContractError::Decode(AbiError::TrailingData))
        );
    }

    #[test]
    fn type_mismatch_is_surfaced() {
        // A uint256 that cannot fit u64.
        let result = CallResult {
            success: true,
            output: abi::encode(&[Value::Uint(U256::MAX)]),
            gas_used: 0,
        };
        assert_eq!(decode_cid_count(&result), Err(ContractError::TypeMismatch));
    }

    #[test]
    fn chain_read_of_trailing_garbage_is_a_decode_error() {
        // A contract whose `cidCount()` answers one word plus one stray
        // byte: the eth-level read surfaces the ABI error itself.
        let mut f = Fixture::new();
        let runtime = assemble(&[
            Op::Push(U256::from(3u64)),
            Op::Push(U256::ZERO),
            Op::MStore,
            Op::Push(U256::from(0x21u64)),
            Op::Push(U256::ZERO),
            Op::Return,
        ])
        .unwrap();
        let garbage = H160::from_slice(&[0x77; 20]);
        f.chain.state_mut().account_mut(&garbage).code = runtime;
        let result = f.chain.call(&f.caller, &garbage, cid_count_calldata());
        assert!(result.success);
        assert_eq!(result.output.len(), 33);
        assert_eq!(
            decode_cid_count(&result),
            Err(ContractError::Decode(AbiError::TrailingData))
        );
    }

    #[test]
    fn starts_empty() {
        let f = Fixture::new();
        assert_eq!(f.cid_count().unwrap(), 0);
        assert_eq!(f.get_cid(0), Err(ContractError::Reverted(Vec::new())));
    }

    #[test]
    fn upload_and_read_long_cid() {
        let mut f = Fixture::new();
        // 46-char CIDv0: long-string storage path.
        let cid = "QmYwAPJzv5CZsnA625s3Xf2nemtYgPpHdWEz79ojWnPbdG";
        let receipt = f.upload(cid);
        assert!(receipt.is_success());
        assert_eq!(f.cid_count().unwrap(), 1);
        assert_eq!(f.get_cid(0).unwrap(), cid);
    }

    #[test]
    fn upload_and_read_short_cid() {
        let mut f = Fixture::new();
        // ≤31 bytes: short-string storage path.
        let cid = "short-cid-123";
        let receipt = f.upload(cid);
        assert!(receipt.is_success());
        assert_eq!(f.get_cid(0).unwrap(), cid);
    }

    #[test]
    fn exactly_32_byte_cid_uses_long_path() {
        let mut f = Fixture::new();
        let cid = "ab".repeat(16); // 32 bytes
        f.upload(&cid);
        assert_eq!(f.get_cid(0).unwrap(), cid);
    }

    #[test]
    fn multiple_uploads_keep_order() {
        let mut f = Fixture::new();
        let cids: Vec<String> = (0..10)
            .map(|i| format!("QmOwner{i:02}Model{}", "x".repeat(30)))
            .collect();
        for c in &cids {
            assert!(f.upload(c).is_success());
        }
        assert_eq!(f.cid_count().unwrap(), 10);
        let all = f.all_cids().unwrap();
        assert_eq!(all, cids);
    }

    #[test]
    fn event_emitted_with_topic_and_payload() {
        let mut f = Fixture::new();
        let cid = "QmEventCheck999";
        let receipt = f.upload(cid);
        assert_eq!(receipt.logs.len(), 1);
        let log = &receipt.logs[0];
        assert_eq!(log.address, f.contract);
        assert_eq!(log.topics, vec![cid_uploaded_topic()]);
        // Data is the ABI-encoded string.
        assert_eq!(decode_cid_uploaded(&log.data).unwrap(), cid);
    }

    #[test]
    fn reads_cost_no_gas_and_mine_no_blocks() {
        let mut f = Fixture::new();
        f.upload("QmFree");
        let height = f.chain.height();
        let balance = f.chain.balance(&f.caller);
        for _ in 0..5 {
            f.all_cids().unwrap();
        }
        assert_eq!(f.chain.height(), height);
        assert_eq!(f.chain.balance(&f.caller), balance);
    }

    #[test]
    fn sending_value_reverts() {
        let mut f = Fixture::new();
        let req = TxRequest {
            chain_id: f.chain.config().chain_id,
            nonce: f.chain.nonce(&f.caller),
            max_priority_fee_per_gas: U256::from(1_500_000_000u64),
            max_fee_per_gas: U256::from(40_000_000_000u64),
            gas_limit: 300_000,
            to: Some(f.contract),
            value: U256::ONE,
            data: upload_cid_calldata("QmX"),
        };
        let hash = f.chain.submit(sign_tx(req, &f.key).unwrap()).unwrap();
        f.chain.mine_block(100);
        let receipt = f.chain.receipt(&hash).unwrap();
        assert_eq!(receipt.status, crate::block::TxStatus::Reverted);
        assert_eq!(f.cid_count().unwrap(), 0);
    }

    #[test]
    fn unknown_selector_reverts() {
        let f = Fixture::new();
        let result = f.read(vec![0xde, 0xad, 0xbe, 0xef]);
        assert!(!result.success);
    }

    #[test]
    fn get_logs_finds_upload_events() {
        use crate::chain::LogFilter;
        let mut f = Fixture::new();
        let cids = [
            "QmFirstUploadEvent",
            "QmSecondUploadEvent",
            "QmThirdUploadEvent",
        ];
        for c in cids {
            f.upload(c);
        }
        // Filter by contract + event topic over the whole chain.
        let logs = f.chain.get_logs(
            &LogFilter::all()
                .at_address(f.contract)
                .with_topic(cid_uploaded_topic()),
        );
        assert_eq!(logs.len(), 3);
        for (log, expected) in logs.iter().zip(cids) {
            assert_eq!(decode_cid_uploaded(&log.log.data).unwrap(), expected);
        }
        // Block numbers are increasing (one upload per block).
        assert!(logs
            .windows(2)
            .all(|w| w[0].block_number < w[1].block_number));
        // A topic that never fired matches nothing (bloom short-circuits).
        let none = f.chain.get_logs(
            &LogFilter::all()
                .at_address(f.contract)
                .with_topic(H256::from_bytes(abi::event_topic("Nope()"))),
        );
        assert!(none.is_empty());
        // Range restriction works, via the builder an incremental watcher
        // would use.
        let first_block = logs[0].block_number;
        let only_first = f.chain.get_logs(
            &LogFilter::all()
                .in_blocks(first_block, first_block)
                .at_address(f.contract),
        );
        assert_eq!(only_first.len(), 1);
        // A later window excludes the first upload.
        let rest = f.chain.get_logs(
            &LogFilter::all()
                .in_blocks(first_block + 1, f.chain.height())
                .at_address(f.contract),
        );
        assert_eq!(rest.len(), 2);
    }

    #[test]
    fn storage_layout_matches_solidity() {
        use ofl_primitives::keccak256;
        let mut f = Fixture::new();
        let cid = "QmYwAPJzv5CZsnA625s3Xf2nemtYgPpHdWEz79ojWnPbdG"; // 46 bytes
        f.upload(cid);
        // slot 0 = cidCount = 1
        assert_eq!(f.chain.storage(&f.contract, &H256::ZERO), U256::ONE);
        // main slot = keccak(uint256(0) ‖ uint256(1)) holds 2·46+1 = 93
        let mut preimage = [0u8; 64];
        preimage[63] = 1;
        let main_slot = H256::from_bytes(keccak256(&preimage));
        assert_eq!(f.chain.storage(&f.contract, &main_slot), U256::from(93u64));
        // data at keccak(main_slot): first 32 bytes of the cid.
        let data_slot = H256::from_bytes(keccak256(main_slot.as_bytes()));
        let word = f.chain.storage(&f.contract, &data_slot);
        assert_eq!(&word.to_be_bytes()[..], cid.as_bytes()[..32].as_ref());
    }

    #[test]
    fn deployment_gas_in_paper_range() {
        // At the default ~12 gwei base fee + 1.5 gwei tip the deployment fee
        // must land near the paper's 0.002 ETH (Fig 5b). Allow a factor ~2.
        let key = U256::from(0x55u64);
        let caller = secp256k1::public_key(&key)
            .unwrap()
            .to_eth_address()
            .unwrap();
        let chain = Chain::new(ChainConfig::default(), &[(caller, wei_per_eth())]);
        let gas = chain.estimate_gas(&caller, None, &cid_storage_init_code());
        // ≈ 53k intrinsic + calldata + execution + 200/byte deposit.
        assert!(gas > 100_000, "gas {gas}");
        assert!(gas < 400_000, "gas {gas}");
    }
}
