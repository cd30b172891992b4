//! Typed contract bindings over `ofl_eth::abi` and the [`EthApi`] trait.
//!
//! The [`contract_bindings!`](crate::contract_bindings) macro turns a declarative description of a
//! contract's functions and events into a typed handle: read methods that
//! encode the call, dispatch it through any [`EthApi`] provider, and decode
//! the return into native Rust types with typed errors; calldata builders
//! for transaction methods; and event topic/decode/range-query helpers.
//! Nothing outside this layer ever touches a raw selector string.
//!
//! [`ModelMarketContract`] is the binding for the paper's `CidStorage`
//! contract — the model market's on-chain CID registry.
//!
//! [`EthApi`]: crate::eth::EthApi

use crate::envelope::RpcError;
use ofl_eth::abi::{self, AbiError, Type, Value};
use ofl_eth::chain::CallResult;
use ofl_primitives::u256::U256;
use ofl_primitives::H160;

/// Items the [`contract_bindings!`](crate::contract_bindings) macro expansion references. Not part of
/// the public API surface; `pub` only so macro expansions in downstream
/// crates resolve.
#[doc(hidden)]
pub mod __support {
    pub use ofl_eth::abi;
    pub use ofl_eth::block::Receipt;
    pub use ofl_eth::chain::LogFilter;
    pub use ofl_eth::evm::LogEntry;
    pub use ofl_primitives::{H160, H256};
}

/// Typed errors from a contract binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindingError {
    /// Transport/node failure underneath the binding.
    Rpc(RpcError),
    /// The call executed and reverted; carries the revert payload.
    Reverted(Vec<u8>),
    /// Returndata failed ABI decoding (truncated, trailing garbage, …).
    Decode(AbiError),
    /// Returndata decoded, but not into the declared Rust type (e.g. a
    /// `uint256` counter that does not fit `u64`).
    TypeMismatch,
}

impl core::fmt::Display for BindingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BindingError::Rpc(e) => write!(f, "rpc: {e}"),
            BindingError::Reverted(data) => {
                write!(
                    f,
                    "contract call reverted ({} bytes of revert data)",
                    data.len()
                )
            }
            BindingError::Decode(e) => write!(f, "returndata decode: {e}"),
            BindingError::TypeMismatch => write!(f, "returndata does not fit the bound type"),
        }
    }
}

impl std::error::Error for BindingError {}

impl From<RpcError> for BindingError {
    fn from(e: RpcError) -> Self {
        BindingError::Rpc(e)
    }
}

/// Rust values that can travel as a single ABI argument.
pub trait AbiArg {
    /// Converts into the dynamic ABI value.
    fn into_abi(self) -> Value;
}

impl AbiArg for U256 {
    fn into_abi(self) -> Value {
        Value::Uint(self)
    }
}
impl AbiArg for u64 {
    fn into_abi(self) -> Value {
        Value::Uint(U256::from(self))
    }
}
impl AbiArg for H160 {
    fn into_abi(self) -> Value {
        Value::Address(self)
    }
}
impl AbiArg for bool {
    fn into_abi(self) -> Value {
        Value::Bool(self)
    }
}
impl AbiArg for &str {
    fn into_abi(self) -> Value {
        Value::String(self.to_string())
    }
}
impl AbiArg for String {
    fn into_abi(self) -> Value {
        Value::String(self)
    }
}
impl AbiArg for Vec<u8> {
    fn into_abi(self) -> Value {
        Value::Bytes(self)
    }
}

/// Rust types that can be decoded from a single ABI return value.
pub trait AbiRet: Sized {
    /// The ABI type this decodes from.
    const TYPE: Type;
    /// Narrows the dynamic value; `None` when it does not fit.
    fn from_abi(value: Value) -> Option<Self>;
}

impl AbiRet for U256 {
    const TYPE: Type = Type::Uint;
    fn from_abi(value: Value) -> Option<Self> {
        value.as_uint()
    }
}
impl AbiRet for u64 {
    const TYPE: Type = Type::Uint;
    fn from_abi(value: Value) -> Option<Self> {
        value.as_uint().and_then(|u| u.to_u64())
    }
}
impl AbiRet for H160 {
    const TYPE: Type = Type::Address;
    fn from_abi(value: Value) -> Option<Self> {
        value.as_address()
    }
}
impl AbiRet for bool {
    const TYPE: Type = Type::Bool;
    fn from_abi(value: Value) -> Option<Self> {
        match value {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}
impl AbiRet for String {
    const TYPE: Type = Type::String;
    fn from_abi(value: Value) -> Option<Self> {
        match value {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}
impl AbiRet for Vec<u8> {
    const TYPE: Type = Type::Bytes;
    fn from_abi(value: Value) -> Option<Self> {
        match value {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

/// Decodes a call's returndata into one typed value, surfacing reverts and
/// corrupt returndata as typed errors.
pub fn decode_return<T: AbiRet>(result: &CallResult) -> Result<T, BindingError> {
    if !result.success {
        return Err(BindingError::Reverted(result.output.clone()));
    }
    let mut values = abi::decode(&[T::TYPE], &result.output).map_err(BindingError::Decode)?;
    T::from_abi(values.remove(0)).ok_or(BindingError::TypeMismatch)
}

/// Decodes an event's (unindexed) data payload into one typed value.
pub fn decode_event_data<T: AbiRet>(data: &[u8]) -> Result<T, BindingError> {
    let mut values = abi::decode(&[T::TYPE], data).map_err(BindingError::Decode)?;
    T::from_abi(values.remove(0)).ok_or(BindingError::TypeMismatch)
}

/// Declares a typed contract binding.
///
/// ```ignore
/// contract_bindings! {
///     /// Docs for the generated handle.
///     pub contract MyContract {
///         init_code = my_init_code_fn;
///         read counter ["counter()"] () -> u64;
///         read entry ["entry(uint256)"] (index: u64) -> String;
///         calldata set_entry_calldata ["setEntry(string)"] (value: &str);
///         event {
///             topic: updated_topic,
///             decode: decode_updated,
///             query: updated_in,
///             sig: "Updated(string)",
///             data: String
///         }
///     }
/// }
/// ```
///
/// Generated per `read`: a method dispatching a free `eth_call` through any
/// [`EthApi`](crate::eth::EthApi) provider and decoding the declared return
/// type. Per `calldata`: an associated function building the transaction
/// calldata. Per `event`: the topic hash, a log decoder, and an
/// `eth_getLogs` range query returning decoded payloads.
#[macro_export]
macro_rules! contract_bindings {
    (
        $(#[$cmeta:meta])*
        pub contract $name:ident {
            init_code = $init:path;
            $( read $rfn:ident [$rsig:literal] ( $($rarg:ident : $rty:ty),* ) -> $rret:ty; )*
            $( calldata $wfn:ident [$wsig:literal] ( $($warg:ident : $wty:ty),* ); )*
            $( event {
                topic: $etopic:ident,
                decode: $edecode:ident,
                query: $equery:ident,
                sig: $esig:literal,
                data: $eret:ty
            } )*
        }
    ) => {
        $(#[$cmeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            /// Deployed contract address.
            pub address: $crate::bindings::__support::H160,
        }

        impl $name {
            /// Wraps an already-deployed address.
            pub fn at(address: $crate::bindings::__support::H160) -> Self {
                Self { address }
            }

            /// The deployable init code (broadcast it from any funded
            /// account to create a fresh instance).
            pub fn init_code() -> Vec<u8> {
                $init()
            }

            /// Typed handle from a mined deployment receipt: fails on a
            /// reverted deployment or a receipt without a contract address.
            pub fn from_deploy_receipt(
                receipt: &$crate::bindings::__support::Receipt,
            ) -> Result<Self, $crate::bindings::BindingError> {
                if !receipt.is_success() {
                    return Err($crate::bindings::BindingError::Reverted(
                        receipt.output.clone(),
                    ));
                }
                receipt
                    .contract_address
                    .map(Self::at)
                    .ok_or($crate::bindings::BindingError::TypeMismatch)
            }

            $(
                #[doc = concat!("Typed free read of `", $rsig, "`.")]
                pub fn $rfn<E: $crate::eth::EthApi + ?Sized>(
                    &self,
                    eth: &mut E,
                    from: &$crate::bindings::__support::H160,
                    $( $rarg: $rty, )*
                ) -> $crate::Billed<Result<$rret, $crate::bindings::BindingError>> {
                    let data = $crate::bindings::__support::abi::encode_call(
                        $rsig,
                        &[ $( $crate::bindings::AbiArg::into_abi($rarg) ),* ],
                    );
                    let billed = eth.call(from, &self.address, data);
                    $crate::Billed {
                        cost: billed.cost,
                        value: billed
                            .value
                            .map_err($crate::bindings::BindingError::Rpc)
                            .and_then(|result| $crate::bindings::decode_return::<$rret>(&result)),
                    }
                }
            )*

            $(
                #[doc = concat!("ABI calldata for a `", $wsig, "` transaction.")]
                pub fn $wfn( $( $warg: $wty ),* ) -> Vec<u8> {
                    $crate::bindings::__support::abi::encode_call(
                        $wsig,
                        &[ $( $crate::bindings::AbiArg::into_abi($warg) ),* ],
                    )
                }
            )*

            $(
                #[doc = concat!("Topic hash of `", $esig, "`.")]
                pub fn $etopic() -> $crate::bindings::__support::H256 {
                    $crate::bindings::__support::H256::from_bytes(
                        $crate::bindings::__support::abi::event_topic($esig),
                    )
                }

                #[doc = concat!("Decodes one `", $esig, "` log's data payload.")]
                pub fn $edecode(
                    log: &$crate::bindings::__support::LogEntry,
                ) -> Result<$eret, $crate::bindings::BindingError> {
                    $crate::bindings::decode_event_data::<$eret>(&log.data)
                }

                #[doc = concat!(
                    "Typed `eth_getLogs` query for `", $esig,
                    "` over the inclusive block range `[from_block, to_block]`."
                )]
                pub fn $equery<E: $crate::eth::EthApi + ?Sized>(
                    &self,
                    eth: &mut E,
                    from_block: u64,
                    to_block: u64,
                ) -> $crate::Billed<Result<Vec<$eret>, $crate::bindings::BindingError>> {
                    let filter = $crate::bindings::__support::LogFilter::all()
                        .in_blocks(from_block, to_block)
                        .at_address(self.address)
                        .with_topic(Self::$etopic());
                    let billed = eth.get_logs(&filter);
                    $crate::Billed {
                        cost: billed.cost,
                        value: billed
                            .value
                            .map_err($crate::bindings::BindingError::Rpc)
                            .and_then(|logs| {
                                logs.iter().map(|entry| Self::$edecode(&entry.log)).collect()
                            }),
                    }
                }
            )*
        }
    };
}

contract_bindings! {
    /// Typed handle for the model market's on-chain CID registry — the
    /// paper's `CidStorage` contract (Fig 2). All selector encoding and
    /// returndata decoding lives behind these methods; core never touches a
    /// raw signature string.
    pub contract ModelMarketContract {
        init_code = ofl_eth::contracts::cid_storage_init_code;
        read cid_count ["cidCount()"] () -> u64;
        read get_cid ["getCid(uint256)"] (index: u64) -> String;
        calldata upload_cid_calldata ["uploadCid(string)"] (cid: &str);
        calldata get_cid_calldata ["getCid(uint256)"] (index: u64);
        event {
            topic: uploaded_topic,
            decode: decode_uploaded,
            query: uploaded_cids_in,
            sig: "CidUploaded(string)",
            data: String
        }
    }
}

impl ModelMarketContract {
    /// Reads every stored CID in upload order: one `cidCount` plus one
    /// batched-friendly `getCid` per index.
    pub fn all_cids<E: crate::eth::EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from: &H160,
    ) -> crate::Billed<Result<Vec<String>, BindingError>> {
        let counted = self.cid_count(eth, from);
        let mut cost = counted.cost;
        let count = match counted.value {
            Ok(n) => n,
            Err(e) => {
                return crate::Billed {
                    value: Err(e),
                    cost,
                }
            }
        };
        let mut cids = Vec::with_capacity(count as usize);
        for index in 0..count {
            let billed = self.get_cid(eth, from, index);
            cost = cost.saturating_add(billed.cost);
            match billed.value {
                Ok(cid) => cids.push(cid),
                Err(e) => {
                    return crate::Billed {
                        value: Err(e),
                        cost,
                    }
                }
            }
        }
        crate::Billed {
            value: Ok(cids),
            cost,
        }
    }

    /// Reads every stored CID in **two** provider round trips regardless of
    /// count: one `cidCount` call, then all `getCid` reads as a single
    /// [`EthApi::batch`](crate::eth::EthApi::batch) — the Fig 7b
    /// "download CIDs" path without the per-index wire tax.
    pub fn all_cids_batched<E: crate::eth::EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from: &H160,
    ) -> crate::Billed<Result<Vec<String>, BindingError>> {
        use crate::envelope::{RpcMethod, RpcRequest, RpcResult};

        let counted = self.cid_count(eth, from);
        let mut cost = counted.cost;
        let count = match counted.value {
            Ok(n) => n,
            Err(e) => {
                return crate::Billed {
                    value: Err(e),
                    cost,
                }
            }
        };
        if count == 0 {
            return crate::Billed {
                value: Ok(Vec::new()),
                cost,
            };
        }
        let requests: Vec<RpcRequest> = (0..count)
            .map(|index| {
                RpcRequest::new(
                    index,
                    RpcMethod::Call {
                        from: *from,
                        to: self.address,
                        data: Self::get_cid_calldata(index),
                    },
                )
            })
            .collect();
        // Tag-match the reply array: the CIDs are collected positionally,
        // and a reordering endpoint shuffles what the wire delivers.
        let responses = crate::envelope::match_to_requests(&requests, eth.batch(&requests));
        let mut cids = Vec::with_capacity(count as usize);
        for response in responses {
            cost = cost.saturating_add(response.cost);
            let decoded = match response.result {
                Ok(RpcResult::Call(call)) => decode_return::<String>(&call),
                Ok(_) => Err(BindingError::Rpc(RpcError::UnexpectedResponse)),
                Err(e) => Err(BindingError::Rpc(e)),
            };
            match decoded {
                Ok(cid) => cids.push(cid),
                Err(e) => {
                    return crate::Billed {
                        value: Err(e),
                        cost,
                    }
                }
            }
        }
        crate::Billed {
            value: Ok(cids),
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eth::EthApi;
    use crate::sim::SimProvider;
    use ofl_eth::chain::{Chain, ChainConfig};
    use ofl_eth::wallet::Wallet;
    use ofl_ipfs::swarm::Swarm;
    use ofl_primitives::wei_per_eth;

    struct Fixture {
        provider: SimProvider,
        contract: ModelMarketContract,
        wallet: Wallet,
        caller: H160,
        time: u64,
    }

    impl Fixture {
        fn new() -> Fixture {
            let wallet = Wallet::from_seed("bindings", 1);
            let caller = wallet.addresses()[0];
            let chain = Chain::new(
                ChainConfig::default(),
                &[(caller, wei_per_eth().wrapping_mul(&U256::from(10u64)))],
            );
            let mut provider = SimProvider::new(chain, Swarm::new());
            let raw = wallet
                .sign_raw(
                    &provider.chain,
                    &caller,
                    None,
                    U256::ZERO,
                    ModelMarketContract::init_code(),
                )
                .unwrap();
            let hash = provider.send_raw_transaction(&raw).value.unwrap();
            provider.chain.mine_block(12);
            let receipt = provider.chain.receipt(&hash).unwrap().clone();
            let contract = ModelMarketContract::from_deploy_receipt(&receipt).unwrap();
            Fixture {
                provider,
                contract,
                wallet,
                caller,
                time: 12,
            }
        }

        fn upload(&mut self, cid: &str) {
            let raw = self
                .wallet
                .sign_raw(
                    &self.provider.chain,
                    &self.caller,
                    Some(self.contract.address),
                    U256::ZERO,
                    ModelMarketContract::upload_cid_calldata(cid),
                )
                .unwrap();
            self.provider.send_raw_transaction(&raw).value.unwrap();
            self.time += 12;
            self.provider.chain.mine_block(self.time);
        }
    }

    #[test]
    fn typed_reads_roundtrip_through_the_provider() {
        let mut f = Fixture::new();
        assert_eq!(
            f.contract
                .cid_count(&mut f.provider, &f.caller)
                .value
                .unwrap(),
            0
        );
        let cid = "QmYwAPJzv5CZsnA625s3Xf2nemtYgPpHdWEz79ojWnPbdG";
        f.upload(cid);
        f.upload("short-cid");
        assert_eq!(
            f.contract
                .cid_count(&mut f.provider, &f.caller)
                .value
                .unwrap(),
            2
        );
        assert_eq!(
            f.contract
                .get_cid(&mut f.provider, &f.caller, 0)
                .value
                .unwrap(),
            cid
        );
        assert_eq!(
            f.contract
                .all_cids(&mut f.provider, &f.caller)
                .value
                .unwrap(),
            vec![cid.to_string(), "short-cid".to_string()]
        );
    }

    #[test]
    fn batched_cid_reads_agree_with_per_call_reads_in_two_round_trips() {
        let mut f = Fixture::new();
        for cid in ["QmAlpha", "QmBeta", "QmGamma", "QmDelta"] {
            f.upload(cid);
        }
        let per_call = f
            .contract
            .all_cids(&mut f.provider, &f.caller)
            .value
            .unwrap();
        let batched = f
            .contract
            .all_cids_batched(&mut f.provider, &f.caller)
            .value
            .unwrap();
        assert_eq!(per_call, batched);
        // Round-trip accounting through a metered stack: 1 count + 1 batch.
        let mut metered =
            crate::decorators::Layered::new(crate::decorators::Meter::default(), f.provider);
        let again = f
            .contract
            .all_cids_batched(&mut metered, &f.caller)
            .value
            .unwrap();
        assert_eq!(again, batched);
        let metrics = metered.layer.snapshot();
        assert_eq!(metrics.round_trips, 2);
        assert_eq!(metrics.method("eth_call").calls, 5);
    }

    #[test]
    fn out_of_range_read_is_a_typed_revert() {
        let mut f = Fixture::new();
        let result = f.contract.get_cid(&mut f.provider, &f.caller, 7).value;
        assert!(matches!(result, Err(BindingError::Reverted(_))));
    }

    #[test]
    fn event_query_decodes_over_a_range() {
        let mut f = Fixture::new();
        for cid in ["QmFirst", "QmSecond", "QmThird"] {
            f.upload(cid);
        }
        let head = f.provider.chain.height();
        let all = f
            .contract
            .uploaded_cids_in(&mut f.provider, 1, head)
            .value
            .unwrap();
        assert_eq!(all, vec!["QmFirst", "QmSecond", "QmThird"]);
        // The range actually filters: skip the first upload's block.
        let later = f
            .contract
            .uploaded_cids_in(&mut f.provider, 3, head)
            .value
            .unwrap();
        assert_eq!(later, vec!["QmSecond", "QmThird"]);
    }

    #[test]
    fn corrupt_returndata_is_a_decode_error_not_a_truncation() {
        // Decode path only: returndata with trailing garbage must surface
        // AbiError::TrailingData through the typed binding.
        let mut output = abi::encode(&[Value::Uint(U256::from(3u64))]);
        output.push(0xAA);
        let corrupt = CallResult {
            success: true,
            output,
            gas_used: 0,
        };
        assert_eq!(
            decode_return::<u64>(&corrupt),
            Err(BindingError::Decode(AbiError::TrailingData))
        );
    }

    #[test]
    fn type_mismatch_is_surfaced() {
        // A uint256 that cannot fit u64.
        let output = abi::encode(&[Value::Uint(U256::MAX)]);
        let result = CallResult {
            success: true,
            output,
            gas_used: 0,
        };
        assert_eq!(
            decode_return::<u64>(&result),
            Err(BindingError::TypeMismatch)
        );
    }

    #[test]
    fn deploy_receipt_validation() {
        let f = Fixture::new();
        let good = f
            .provider
            .chain
            .receipt(&f.provider.chain.block(1).unwrap().tx_hashes[0])
            .unwrap()
            .clone();
        assert!(ModelMarketContract::from_deploy_receipt(&good).is_ok());
        let mut bad = good.clone();
        bad.status = ofl_eth::block::TxStatus::Reverted;
        assert!(matches!(
            ModelMarketContract::from_deploy_receipt(&bad),
            Err(BindingError::Reverted(_))
        ));
    }
}
