//! [`EthApi`]: the Ethereum JSON-RPC provider trait.
//!
//! A provider is anything that can answer [`RpcRequest`]s — the in-process
//! [`SimProvider`](crate::sim::SimProvider), any decorator stacked on top of
//! it, or (eventually) a real HTTP endpoint. The one required method is
//! [`EthApi::execute`]; the typed convenience methods are default wrappers
//! that build the envelope, dispatch it, and unwrap the matching result
//! variant. Decorators intercept one choke point, [`EthApi::batch`]: a
//! decorated provider answers `execute` as a batch of one.

use crate::envelope::{RpcError, RpcMethod, RpcRequest, RpcResponse, RpcResult};
use crate::Billed;
use ofl_eth::block::Receipt;
use ofl_eth::chain::{CallResult, FilteredLog, LogFilter};
use ofl_primitives::u256::U256;
use ofl_primitives::{H160, H256};

/// The Ethereum node API, shaped like the real JSON-RPC surface.
pub trait EthApi {
    /// Answers one request; all typed methods funnel through it. Decorators
    /// answer it as a [`EthApi::batch`] of one, so `batch` is the single
    /// choke point every decorator wraps.
    fn execute(&mut self, request: &RpcRequest) -> RpcResponse;

    /// Answers a batch of requests in **one provider round trip** — how N
    /// receipt polls cost one wire exchange instead of N. The default
    /// implementation degrades to per-request execution; latency-aware
    /// decorators override it to price the batch as a single round trip.
    fn batch(&mut self, requests: &[RpcRequest]) -> Vec<RpcResponse> {
        requests.iter().map(|r| self.execute(r)).collect()
    }

    /// `eth_sendRawTransaction`: broadcasts signed raw bytes, returning the
    /// transaction hash.
    fn send_raw_transaction(&mut self, raw: &[u8]) -> Billed<Result<H256, RpcError>> {
        let response = self.execute(&RpcRequest::new(
            0,
            RpcMethod::SendRawTransaction { raw: raw.to_vec() },
        ));
        unwrap_response(response, |result| match result {
            RpcResult::TxHash(h) => Some(h),
            _ => None,
        })
    }

    /// `eth_getTransactionReceipt`: `None` while unmined.
    fn get_transaction_receipt(&mut self, hash: H256) -> Billed<Result<Option<Receipt>, RpcError>> {
        let response = self.execute(&RpcRequest::new(
            0,
            RpcMethod::GetTransactionReceipt { hash },
        ));
        unwrap_response(response, |result| match result {
            RpcResult::Receipt(r) => Some(r),
            _ => None,
        })
    }

    /// `eth_call`: free read-only execution. Reverts come back as data
    /// (`CallResult::success == false`), not as an `RpcError`.
    fn call(
        &mut self,
        from: &H160,
        to: &H160,
        data: Vec<u8>,
    ) -> Billed<Result<CallResult, RpcError>> {
        let response = self.execute(&RpcRequest::new(
            0,
            RpcMethod::Call {
                from: *from,
                to: *to,
                data,
            },
        ));
        unwrap_response(response, |result| match result {
            RpcResult::Call(c) => Some(c),
            _ => None,
        })
    }

    /// `eth_getLogs`: filtered event query.
    fn get_logs(&mut self, filter: &LogFilter) -> Billed<Result<Vec<FilteredLog>, RpcError>> {
        let response = self.execute(&RpcRequest::new(
            0,
            RpcMethod::GetLogs {
                filter: filter.clone(),
            },
        ));
        unwrap_response(response, |result| match result {
            RpcResult::Logs(logs) => Some(logs),
            _ => None,
        })
    }

    /// `eth_blockNumber`: current chain height.
    fn block_number(&mut self) -> Billed<Result<u64, RpcError>> {
        let response = self.execute(&RpcRequest::new(0, RpcMethod::BlockNumber));
        unwrap_response(response, |result| match result {
            RpcResult::BlockNumber(n) => Some(n),
            _ => None,
        })
    }

    /// `eth_getBalance`: account balance in wei.
    fn get_balance(&mut self, address: &H160) -> Billed<Result<U256, RpcError>> {
        let response = self.execute(&RpcRequest::new(
            0,
            RpcMethod::GetBalance { address: *address },
        ));
        unwrap_response(response, |result| match result {
            RpcResult::Balance(b) => Some(b),
            _ => None,
        })
    }

    /// `eth_getTransactionCount`: account nonce.
    fn get_transaction_count(&mut self, address: &H160) -> Billed<Result<u64, RpcError>> {
        let response = self.execute(&RpcRequest::new(
            0,
            RpcMethod::GetTransactionCount { address: *address },
        ));
        unwrap_response(response, |result| match result {
            RpcResult::TransactionCount(n) => Some(n),
            _ => None,
        })
    }

    /// `eth_estimateGas`: gas a prospective transaction would use — what a
    /// wallet asks before signing.
    fn estimate_gas(
        &mut self,
        from: &H160,
        to: Option<&H160>,
        data: &[u8],
    ) -> Billed<Result<u64, RpcError>> {
        let response = self.execute(&RpcRequest::new(
            0,
            RpcMethod::EstimateGas {
                from: *from,
                to: to.copied(),
                data: data.to_vec(),
            },
        ));
        unwrap_response(response, |result| match result {
            RpcResult::GasEstimate(n) => Some(n),
            _ => None,
        })
    }

    /// `eth_gasPrice`: the node's gas-price oracle (our simulated node
    /// reports the current base fee).
    fn gas_price(&mut self) -> Billed<Result<U256, RpcError>> {
        let response = self.execute(&RpcRequest::new(0, RpcMethod::GasPrice));
        unwrap_response(response, |result| match result {
            RpcResult::GasPrice(p) => Some(p),
            _ => None,
        })
    }

    /// `eth_chainId`: the chain's replay-protection id.
    fn chain_id(&mut self) -> Billed<Result<u64, RpcError>> {
        let response = self.execute(&RpcRequest::new(0, RpcMethod::ChainId));
        unwrap_response(response, |result| match result {
            RpcResult::ChainId(n) => Some(n),
            _ => None,
        })
    }
}

fn unwrap_response<T>(
    response: RpcResponse,
    extract: impl FnOnce(RpcResult) -> Option<T>,
) -> Billed<Result<T, RpcError>> {
    Billed {
        cost: response.cost,
        value: response
            .result
            .and_then(|r| extract(r).ok_or(RpcError::UnexpectedResponse)),
    }
}
