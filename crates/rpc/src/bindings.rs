//! The typed client for the paper's `CidStorage` contract (Fig 2), the
//! model market's on-chain CID registry.
//!
//! [`ModelMarketContract`] sends the bytes `ofl_eth::contracts` builds
//! through any [`EthApi`] provider and decodes the replies with that
//! module's decoders, so the contract's ABI lives in one place and no raw
//! selector string appears here.

use crate::envelope::{match_to_requests, RpcError, RpcMethod, RpcRequest, RpcResult};
use crate::eth::EthApi;
use crate::Billed;
use ofl_eth::block::Receipt;
use ofl_eth::chain::{CallResult, LogFilter};
use ofl_eth::contracts::{self, ContractError};
use ofl_eth::evm::LogEntry;
use ofl_primitives::{H160, H256};

/// Errors from a contract read: the provider failed, or the contract
/// reverted or answered undecodable returndata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindingError {
    /// Transport/node failure underneath the client.
    Rpc(RpcError),
    /// The contract reverted, or its returndata did not decode.
    Contract(ContractError),
}

impl core::fmt::Display for BindingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BindingError::Rpc(e) => write!(f, "rpc: {e}"),
            BindingError::Contract(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BindingError {}

impl From<RpcError> for BindingError {
    fn from(e: RpcError) -> Self {
        BindingError::Rpc(e)
    }
}

impl From<ContractError> for BindingError {
    fn from(e: ContractError) -> Self {
        BindingError::Contract(e)
    }
}

/// Typed handle for a deployed `CidStorage` contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelMarketContract {
    /// Deployed contract address.
    pub address: H160,
}

impl ModelMarketContract {
    /// The deployable init code (broadcast it from any funded account to
    /// create a fresh instance).
    pub fn init_code() -> Vec<u8> {
        contracts::cid_storage_init_code()
    }

    /// Typed handle from a mined deployment receipt: fails on a reverted
    /// deployment or a receipt without a contract address.
    pub fn from_deploy_receipt(receipt: &Receipt) -> Result<Self, BindingError> {
        if !receipt.is_success() {
            return Err(ContractError::Reverted(receipt.output.clone()).into());
        }
        let address = receipt
            .contract_address
            .ok_or(ContractError::TypeMismatch)?;
        Ok(Self { address })
    }

    /// ABI calldata for an `uploadCid(cid)` transaction.
    pub fn upload_cid_calldata(cid: &str) -> Vec<u8> {
        contracts::upload_cid_calldata(cid)
    }

    /// Topic hash of the `CidUploaded` event.
    pub fn uploaded_topic() -> H256 {
        contracts::cid_uploaded_topic()
    }

    /// Decodes one `CidUploaded` log's data payload.
    pub fn decode_uploaded(log: &LogEntry) -> Result<String, BindingError> {
        Ok(contracts::decode_cid_uploaded(&log.data)?)
    }

    /// Free read of `cidCount()`.
    pub fn cid_count<E: EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from: &H160,
    ) -> Billed<Result<u64, BindingError>> {
        self.read(
            eth,
            from,
            contracts::cid_count_calldata(),
            contracts::decode_cid_count,
        )
    }

    /// Free read of `getCid(index)`.
    pub fn get_cid<E: EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from: &H160,
        index: u64,
    ) -> Billed<Result<String, BindingError>> {
        self.read(
            eth,
            from,
            contracts::get_cid_calldata(index),
            contracts::decode_get_cid,
        )
    }

    /// `eth_getLogs` query for the `CidUploaded` payloads over the
    /// inclusive block range `[from_block, to_block]`.
    pub fn uploaded_cids_in<E: EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from_block: u64,
        to_block: u64,
    ) -> Billed<Result<Vec<String>, BindingError>> {
        let filter = LogFilter::all()
            .in_blocks(from_block, to_block)
            .at_address(self.address)
            .with_topic(Self::uploaded_topic());
        eth.get_logs(&filter)
            .map(|logs| -> Result<_, BindingError> {
                logs?
                    .iter()
                    .map(|entry| Self::decode_uploaded(&entry.log))
                    .collect()
            })
    }

    /// Reads every stored CID in upload order, in **two** provider round
    /// trips regardless of count: one `cidCount` call, then all `getCid`
    /// reads as a single [`EthApi::batch`] — the Fig 7b "download CIDs"
    /// path without a per-index wire tax.
    pub fn all_cids<E: EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from: &H160,
    ) -> Billed<Result<Vec<String>, BindingError>> {
        let counted = self.cid_count(eth, from);
        let count = match counted.value {
            Ok(0) | Err(_) => return counted.map(|count| count.map(|_| Vec::new())),
            Ok(n) => n,
        };
        let mut cost = counted.cost;
        let requests: Vec<RpcRequest> = (0..count)
            .map(|index| {
                RpcRequest::new(
                    index,
                    RpcMethod::Call {
                        from: *from,
                        to: self.address,
                        data: contracts::get_cid_calldata(index),
                    },
                )
            })
            .collect();
        // Tag-match the reply array: the CIDs are collected positionally,
        // and a reordering endpoint shuffles what the wire delivers.
        let responses = match_to_requests(&requests, eth.batch(&requests));
        let value = responses
            .into_iter()
            .map(|response| -> Result<String, BindingError> {
                cost = cost.saturating_add(response.cost);
                match response.result? {
                    RpcResult::Call(call) => Ok(contracts::decode_get_cid(&call)?),
                    _ => Err(RpcError::UnexpectedResponse.into()),
                }
            })
            .collect();
        Billed { value, cost }
    }

    /// Sends `data` as a free `eth_call` to the contract and decodes the
    /// returndata with `decode`.
    fn read<T, E: EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from: &H160,
        data: Vec<u8>,
        decode: fn(&CallResult) -> Result<T, ContractError>,
    ) -> Billed<Result<T, BindingError>> {
        eth.call(from, &self.address, data)
            .map(|result| -> Result<T, BindingError> { Ok(decode(&result?)?) })
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
    use ofl_primitives::u256::U256;
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
    fn all_cids_agrees_with_per_index_reads_in_two_round_trips() {
        let mut f = Fixture::new();
        for cid in ["QmAlpha", "QmBeta", "QmGamma", "QmDelta"] {
            f.upload(cid);
        }
        let per_index: Vec<String> = (0..4)
            .map(|i| {
                f.contract
                    .get_cid(&mut f.provider, &f.caller, i)
                    .value
                    .unwrap()
            })
            .collect();
        let batched = f
            .contract
            .all_cids(&mut f.provider, &f.caller)
            .value
            .unwrap();
        assert_eq!(per_index, batched);
        // Round-trip accounting through a metered stack: 1 count + 1 batch.
        let mut metered =
            crate::decorators::Layered::new(crate::decorators::Meter::default(), f.provider);
        let again = f.contract.all_cids(&mut metered, &f.caller).value.unwrap();
        assert_eq!(again, batched);
        let metrics = metered.layer.snapshot();
        assert_eq!(metrics.round_trips, 2);
        assert_eq!(metrics.method("eth_call").calls, 5);
    }

    #[test]
    fn out_of_range_read_is_a_typed_revert() {
        let mut f = Fixture::new();
        let result = f.contract.get_cid(&mut f.provider, &f.caller, 7).value;
        assert!(matches!(
            result,
            Err(BindingError::Contract(ContractError::Reverted(_)))
        ));
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
            Err(BindingError::Contract(ContractError::Reverted(_)))
        ));
    }
}
