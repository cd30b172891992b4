//! Typed request/response envelopes for the Ethereum JSON-RPC surface.
//!
//! Every provider call travels as an [`RpcRequest`] and comes back as an
//! [`RpcResponse`]. The envelope is what makes the provider boundary thin
//! and swappable: decorators can price, drop, or count requests without
//! knowing what they mean, and a batch of N requests is just a slice — one
//! wire round trip regardless of N.
//!
//! The envelopes also have a canonical wire encoding ([`RpcRequest::encode`]
//! / [`RpcResponse::encode`]) standing in for the JSON framing of a real
//! endpoint; the round-trip property tests in `tests/proptests.rs` pin it.
//! Its encoder and decoder are both generated from the wire tables at the
//! end of this file — one [`wire_enum!`](crate::wire_enum) or
//! [`wire_struct!`](crate::wire_struct) row per variant or field, naming
//! its tag and the `reading` a decode error reports. Decoding returns a
//! typed [`CodecError`] on malformed input, so the transport layer (and
//! the `rpcd` daemon built on it) can answer garbage with a protocol error
//! frame instead of dropping the connection.

use crate::codec::{self, CodecError, Reader, Wire, Writer};
use ofl_eth::block::{Receipt, TxStatus};
use ofl_eth::chain::{CallResult, FilteredLog, LogFilter};
use ofl_eth::evm::LogEntry;
use ofl_netsim::clock::SimDuration;
use ofl_primitives::u256::U256;
use ofl_primitives::{H160, H256};

/// One provider call: a correlation id plus the typed method payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcRequest {
    /// Correlation id echoed back in the matching [`RpcResponse`].
    pub id: u64,
    /// The method and its parameters.
    pub method: RpcMethod,
}

impl RpcRequest {
    /// Builds a request.
    pub fn new(id: u64, method: RpcMethod) -> RpcRequest {
        RpcRequest { id, method }
    }
}

/// The JSON-RPC methods the OFL-W3 core needs from a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcMethod {
    /// `eth_sendRawTransaction`: broadcast a signed raw transaction.
    SendRawTransaction {
        /// The `0x02`-typed raw transaction bytes.
        raw: Vec<u8>,
    },
    /// `eth_getTransactionReceipt`: poll for a mined receipt.
    GetTransactionReceipt {
        /// Transaction hash.
        hash: H256,
    },
    /// `eth_call`: free read-only execution.
    Call {
        /// Caller address.
        from: H160,
        /// Contract address.
        to: H160,
        /// ABI calldata.
        data: Vec<u8>,
    },
    /// `eth_getLogs`: filtered event query.
    GetLogs {
        /// Address/topic/block-range filter.
        filter: LogFilter,
    },
    /// `eth_blockNumber`: current chain head.
    BlockNumber,
    /// `eth_getBalance`: account balance.
    GetBalance {
        /// Account queried.
        address: H160,
    },
    /// `eth_getTransactionCount`: account nonce.
    GetTransactionCount {
        /// Account queried.
        address: H160,
    },
    /// `eth_estimateGas`: gas units a prospective transaction would use —
    /// what a wallet calls before signing.
    EstimateGas {
        /// Prospective sender.
        from: H160,
        /// Recipient (`None` = contract deployment).
        to: Option<H160>,
        /// Prospective calldata.
        data: Vec<u8>,
    },
    /// `eth_gasPrice`: the node's gas-price oracle. Our simulated node
    /// reports the current base fee; tips are the wallet's own policy.
    GasPrice,
    /// `eth_chainId`: the chain's replay-protection id.
    ChainId,
}

impl RpcMethod {
    /// The canonical JSON-RPC method name (used as the metering key).
    pub fn name(&self) -> &'static str {
        match self {
            RpcMethod::SendRawTransaction { .. } => "eth_sendRawTransaction",
            RpcMethod::GetTransactionReceipt { .. } => "eth_getTransactionReceipt",
            RpcMethod::Call { .. } => "eth_call",
            RpcMethod::GetLogs { .. } => "eth_getLogs",
            RpcMethod::BlockNumber => "eth_blockNumber",
            RpcMethod::GetBalance { .. } => "eth_getBalance",
            RpcMethod::GetTransactionCount { .. } => "eth_getTransactionCount",
            RpcMethod::EstimateGas { .. } => "eth_estimateGas",
            RpcMethod::GasPrice => "eth_gasPrice",
            RpcMethod::ChainId => "eth_chainId",
        }
    }

    /// Approximate request payload size in bytes (what rides on the wire
    /// beyond the fixed envelope framing) — the latency decorator's input.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            RpcMethod::SendRawTransaction { raw } => raw.len() as u64,
            RpcMethod::GetTransactionReceipt { .. } => 32,
            RpcMethod::Call { data, .. } => 40 + data.len() as u64,
            RpcMethod::GetLogs { .. } => 72,
            RpcMethod::BlockNumber => 0,
            RpcMethod::GetBalance { .. } => 20,
            RpcMethod::GetTransactionCount { .. } => 20,
            RpcMethod::EstimateGas { to, data, .. } => {
                20 + if to.is_some() { 20 } else { 0 } + data.len() as u64
            }
            RpcMethod::GasPrice => 0,
            RpcMethod::ChainId => 0,
        }
    }
}

/// A provider's answer: the echoed id, the typed result (or error), and the
/// virtual time the decorators priced onto this request. Costs are *carried*,
/// never applied — the caller decides which clock or timeline pays.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcResponse {
    /// Correlation id from the request.
    pub id: u64,
    /// Typed result or transport/node error.
    pub result: Result<RpcResult, RpcError>,
    /// Virtual time this request cost (priced by decorators; zero at the
    /// in-process backend).
    pub cost: SimDuration,
}

/// Typed results, one variant per [`RpcMethod`].
#[derive(Debug, Clone, PartialEq)]
pub enum RpcResult {
    /// Hash of an accepted transaction.
    TxHash(H256),
    /// Receipt, or `None` while the transaction is unmined.
    Receipt(Option<Receipt>),
    /// Read-only execution result.
    Call(CallResult),
    /// Matching logs.
    Logs(Vec<FilteredLog>),
    /// Chain height.
    BlockNumber(u64),
    /// Account balance in wei.
    Balance(U256),
    /// Account nonce.
    TransactionCount(u64),
    /// Estimated gas units.
    GasEstimate(u64),
    /// Gas-price oracle answer (the simulated node's current base fee).
    GasPrice(U256),
    /// Chain id.
    ChainId(u64),
}

impl RpcResult {
    /// Approximate response payload size in bytes — the latency decorator's
    /// input for the return leg.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            RpcResult::TxHash(_) => 32,
            RpcResult::Receipt(None) => 8,
            RpcResult::Receipt(Some(r)) => {
                160 + r.output.len() as u64
                    + r.logs
                        .iter()
                        .map(|l| 20 + 32 * l.topics.len() as u64 + l.data.len() as u64)
                        .sum::<u64>()
            }
            RpcResult::Call(c) => 16 + c.output.len() as u64,
            RpcResult::Logs(logs) => logs
                .iter()
                .map(|f| 60 + 32 * f.log.topics.len() as u64 + f.log.data.len() as u64)
                .sum(),
            RpcResult::BlockNumber(_) => 8,
            RpcResult::Balance(_) => 32,
            RpcResult::TransactionCount(_) => 8,
            RpcResult::GasEstimate(_) => 8,
            RpcResult::GasPrice(_) => 32,
            RpcResult::ChainId(_) => 8,
        }
    }
}

/// Transport- and node-level failures. Execution-level failures (reverts)
/// are *not* errors here — they come back as data, exactly as JSON-RPC
/// reports them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The request was dropped or the provider never answered in time.
    Timeout,
    /// The node rejected the request (bad nonce, underpriced, …).
    Rejected(String),
    /// The endpoint refused the request for quota reasons (HTTP 429); the
    /// priced cost is the client's back-off before it may try again.
    RateLimited,
    /// The response variant did not match the request method.
    UnexpectedResponse,
    /// The wire to an out-of-process endpoint failed (connection error,
    /// protocol error frame, or a malformed reply). Not transient: a broken
    /// socket will not heal inside a retry loop.
    Transport(String),
}

impl core::fmt::Display for RpcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "rpc request timed out"),
            RpcError::Rejected(why) => write!(f, "rpc request rejected: {why}"),
            RpcError::RateLimited => write!(f, "rpc request rate-limited (429)"),
            RpcError::UnexpectedResponse => write!(f, "rpc response shape mismatch"),
            RpcError::Transport(why) => write!(f, "rpc transport failed: {why}"),
        }
    }
}

impl std::error::Error for RpcError {}

// ----------------------------------------------------------------------
// Wire tables. A compact binary framing standing in for JSON-RPC's text
// framing: tag bytes, little-endian u64 lengths, raw hash/address bytes.
// ----------------------------------------------------------------------

impl RpcRequest {
    /// Canonical wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a wire-encoded request; malformed or trailing data comes
    /// back as a typed [`CodecError`].
    pub fn decode(raw: &[u8]) -> Result<RpcRequest, CodecError> {
        codec::decode(raw)
    }
}

impl RpcResponse {
    /// Canonical wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a wire-encoded response; malformed or trailing data comes
    /// back as a typed [`CodecError`] — what lets a daemon answer garbage
    /// with a protocol error frame instead of hanging up.
    pub fn decode(raw: &[u8]) -> Result<RpcResponse, CodecError> {
        codec::decode(raw)
    }
}

crate::wire_struct! { RpcRequest { id = "request id", method = "request method tag" } }

crate::wire_enum! { RpcMethod = "request method tag" {
    0 => SendRawTransaction { raw = "raw transaction" },
    1 => GetTransactionReceipt { hash = "receipt hash" },
    2 => Call { from = "call from", to = "call to", data = "call data" },
    3 => GetLogs { filter },
    4 => BlockNumber,
    5 => GetBalance { address = "balance address" },
    6 => GetTransactionCount { address = "nonce address" },
    7 => EstimateGas { from = "estimate from", to = "estimate to", data = "estimate data" },
    8 => GasPrice,
    9 => ChainId,
}}

crate::wire_struct! { LogFilter {
    from_block = "filter from_block",
    to_block = "filter to_block",
    address = "filter address",
    topic = "filter topic",
}}

crate::wire_struct! { RpcResponse { id = "response id", cost = "response cost", result } }

crate::wire_enum! { RpcResult = "response result tag" {
    0 => TxHash(hash = "tx hash"),
    1 => Receipt(receipt = "receipt presence"),
    2 => Call(call),
    3 => Logs(logs = "log list count"),
    4 => BlockNumber(n = "block number"),
    5 => Balance(wei = "balance"),
    6 => TransactionCount(n = "nonce"),
    7 => GasEstimate(gas = "gas estimate"),
    8 => GasPrice(wei = "gas price"),
    9 => ChainId(id = "chain id"),
}}

crate::wire_enum! { RpcError = "response result tag" {
    0x80 => Timeout,
    0x81 => Rejected(why = "rejection reason"),
    0x82 => UnexpectedResponse,
    0x83 => RateLimited,
    0x84 => Transport(why = "transport reason"),
}}

/// A response's outcome shares one tag byte between the two tables:
/// results below `0x80`, errors from `0x80` up.
impl Wire for Result<RpcResult, RpcError> {
    fn put(&self, w: &mut Writer) {
        match self {
            Ok(result) => result.put(w),
            Err(error) => error.put(w),
        }
    }
    fn get(r: &mut Reader<'_>, reading: &'static str) -> Result<Self, CodecError> {
        match r.data.get(r.at) {
            Some(&tag) if tag >= 0x80 => Ok(Err(RpcError::get(r, reading)?)),
            _ => Ok(Ok(RpcResult::get(r, reading)?)),
        }
    }
}

crate::wire_struct! { CallResult {
    success = "call success",
    output = "call output",
    gas_used = "call gas used",
}}

crate::wire_struct! { FilteredLog {
    block_number = "filtered log block",
    tx_hash = "filtered log tx hash",
    log_index = "filtered log index",
    log,
}}

/// LOG0–LOG4: a topic count past four is a malformed payload, not a size
/// problem, so the bogus count is reported as the offending tag.
impl Wire for LogEntry {
    fn put(&self, w: &mut Writer) {
        self.address.put(w);
        self.topics.put(w);
        self.data.put(w);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<LogEntry, CodecError> {
        let address = H160::get(r, "log address")?;
        let n = u64::get(r, "log topic count")?;
        if n > 4 {
            return Err(CodecError::BadTag {
                reading: "log topic count (LOG0-LOG4)",
                tag: n.min(u8::MAX as u64) as u8,
            });
        }
        let topics = (0..n)
            .map(|_| H256::get(r, "log topic"))
            .collect::<Result<_, _>>()?;
        Ok(LogEntry {
            address,
            topics,
            data: Vec::get(r, "log data")?,
        })
    }
}

crate::wire_enum! { TxStatus = "receipt status" {
    0 => Success,
    1 => Reverted,
    2 => Failed,
}}

crate::wire_struct! { Receipt {
    tx_hash = "receipt tx hash",
    status,
    gas_used = "receipt gas used",
    effective_gas_price = "receipt gas price",
    fee = "receipt fee",
    contract_address = "receipt contract address",
    logs = "receipt log count",
    block_number = "receipt block number",
    output = "receipt output",
}}

/// Pairs a batch's responses back to request order by their correlation
/// tags — what a JSON-RPC client does with a batch reply, whose array order
/// the server promises nothing about.
///
/// Each response claims the first still-unclaimed request carrying its
/// `id`, so duplicate tags pair first-come-first-served and a well-behaved
/// (in-order) server is a no-op. Responses with unknown tags — or any
/// responses left over when the counts disagree — fill the remaining slots
/// in wire order, which degrades to positional matching rather than
/// dropping answers on the floor.
pub fn match_to_requests(requests: &[RpcRequest], responses: Vec<RpcResponse>) -> Vec<RpcResponse> {
    if responses.len() != requests.len() {
        return responses;
    }
    let mut slots: Vec<Option<RpcResponse>> = requests.iter().map(|_| None).collect();
    let mut strays = Vec::new();
    for response in responses {
        let claimed =
            (0..requests.len()).find(|&i| requests[i].id == response.id && slots[i].is_none());
        match claimed {
            Some(i) => slots[i] = Some(response),
            None => strays.push(response),
        }
    }
    let mut strays = strays.into_iter();
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| strays.next().expect("one stray per empty slot")))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::assert_covers_tags;

    /// The literals `request_roundtrip_every_variant` sends through the
    /// wire.
    pub(crate) fn roundtrip_requests() -> Vec<RpcRequest> {
        vec![
            RpcRequest::new(
                1,
                RpcMethod::SendRawTransaction {
                    raw: vec![2, 0xf8, 0x01],
                },
            ),
            RpcRequest::new(
                2,
                RpcMethod::GetTransactionReceipt {
                    hash: H256::from_bytes([7; 32]),
                },
            ),
            RpcRequest::new(
                3,
                RpcMethod::Call {
                    from: H160::from_slice(&[1; 20]),
                    to: H160::from_slice(&[2; 20]),
                    data: vec![0xde, 0xad],
                },
            ),
            RpcRequest::new(
                4,
                RpcMethod::GetLogs {
                    filter: LogFilter::all()
                        .in_blocks(3, 9)
                        .at_address(H160::from_slice(&[3; 20])),
                },
            ),
            RpcRequest::new(5, RpcMethod::BlockNumber),
            RpcRequest::new(
                6,
                RpcMethod::GetBalance {
                    address: H160::from_slice(&[4; 20]),
                },
            ),
            RpcRequest::new(
                7,
                RpcMethod::GetTransactionCount {
                    address: H160::from_slice(&[5; 20]),
                },
            ),
            RpcRequest::new(
                8,
                RpcMethod::EstimateGas {
                    from: H160::from_slice(&[6; 20]),
                    to: None,
                    data: vec![0x60, 0x80],
                },
            ),
            RpcRequest::new(
                9,
                RpcMethod::EstimateGas {
                    from: H160::from_slice(&[6; 20]),
                    to: Some(H160::from_slice(&[7; 20])),
                    data: vec![],
                },
            ),
            RpcRequest::new(10, RpcMethod::GasPrice),
            RpcRequest::new(11, RpcMethod::ChainId),
        ]
    }

    #[test]
    fn request_roundtrip_every_variant() {
        let requests = roundtrip_requests();
        assert_covers_tags(requests.iter().map(|request| &request.method));
        for req in requests {
            assert_eq!(RpcRequest::decode(&req.encode()), Ok(req));
        }
    }

    /// The literals `response_roundtrip_with_receipt_and_errors` sends
    /// through the wire.
    pub(crate) fn roundtrip_responses() -> Vec<RpcResponse> {
        let receipt = Receipt {
            tx_hash: H256::from_bytes([9; 32]),
            status: TxStatus::Reverted,
            gas_used: 23_456,
            effective_gas_price: U256::from(13_500_000_000u64),
            fee: U256::from_u128(316_656_000_000_000),
            contract_address: Some(H160::from_slice(&[8; 20])),
            logs: vec![LogEntry {
                address: H160::from_slice(&[8; 20]),
                topics: vec![H256::from_bytes([1; 32])],
                data: vec![0, 1, 2],
            }],
            block_number: 42,
            output: vec![0x08, 0xc3],
        };
        vec![
            RpcResponse {
                id: 1,
                result: Ok(RpcResult::Receipt(Some(receipt))),
                cost: SimDuration::from_millis(104),
            },
            RpcResponse {
                id: 2,
                result: Ok(RpcResult::Receipt(None)),
                cost: SimDuration::ZERO,
            },
            RpcResponse {
                id: 3,
                result: Err(RpcError::Timeout),
                cost: SimDuration::from_secs(3),
            },
            RpcResponse {
                id: 4,
                result: Err(RpcError::Rejected("nonce too low".into())),
                cost: SimDuration::from_millis(100),
            },
            RpcResponse {
                id: 5,
                result: Ok(RpcResult::GasEstimate(21_000)),
                cost: SimDuration::ZERO,
            },
            RpcResponse {
                id: 6,
                result: Ok(RpcResult::GasPrice(U256::from(7_000_000_000u64))),
                cost: SimDuration::ZERO,
            },
            RpcResponse {
                id: 7,
                result: Ok(RpcResult::ChainId(11_155_111)),
                cost: SimDuration::ZERO,
            },
            RpcResponse {
                id: 8,
                result: Err(RpcError::RateLimited),
                cost: SimDuration::from_millis(500),
            },
            RpcResponse {
                id: 9,
                result: Err(RpcError::Transport("connection reset".into())),
                cost: SimDuration::ZERO,
            },
        ]
    }

    #[test]
    fn response_roundtrip_with_receipt_and_errors() {
        let receipt = |status| Receipt {
            tx_hash: H256::from_bytes([3; 32]),
            status,
            gas_used: 21_000,
            effective_gas_price: U256::from(9u64),
            fee: U256::from(189_000u64),
            contract_address: None,
            logs: Vec::new(),
            block_number: 7,
            output: Vec::new(),
        };
        let log = FilteredLog {
            block_number: 7,
            tx_hash: H256::from_bytes([3; 32]),
            log_index: 1,
            log: LogEntry {
                address: H160::from_slice(&[4; 20]),
                topics: vec![H256::from_bytes([5; 32]), H256::from_bytes([6; 32])],
                data: vec![7],
            },
        };
        let results = [
            Ok(RpcResult::TxHash(H256::from_bytes([2; 32]))),
            Ok(RpcResult::Receipt(Some(receipt(TxStatus::Success)))),
            Ok(RpcResult::Receipt(Some(receipt(TxStatus::Failed)))),
            Ok(RpcResult::Call(CallResult {
                success: false,
                output: vec![0x08, 0xc3],
                gas_used: 30_000,
            })),
            Ok(RpcResult::Logs(vec![log])),
            Ok(RpcResult::Logs(Vec::new())),
            Ok(RpcResult::BlockNumber(12)),
            Ok(RpcResult::Balance(U256::from(5u64))),
            Ok(RpcResult::TransactionCount(3)),
            Err(RpcError::UnexpectedResponse),
        ];
        let responses: Vec<RpcResponse> = roundtrip_responses()
            .into_iter()
            .chain(
                results
                    .into_iter()
                    .zip(10..)
                    .map(|(result, id)| RpcResponse {
                        id,
                        result,
                        cost: SimDuration::from_millis(id),
                    }),
            )
            .collect();
        assert_covers_tags(responses.iter().filter_map(|r| r.result.as_ref().ok()));
        assert_covers_tags(responses.iter().filter_map(|r| r.result.as_ref().err()));
        assert_covers_tags(responses.iter().filter_map(|r| match &r.result {
            Ok(RpcResult::Receipt(Some(receipt))) => Some(&receipt.status),
            _ => None,
        }));
        for resp in responses {
            assert_eq!(RpcResponse::decode(&resp.encode()), Ok(resp));
        }
    }

    #[test]
    fn trailing_bytes_rejected_with_typed_error() {
        let mut raw = RpcRequest::new(1, RpcMethod::BlockNumber).encode();
        raw.push(0);
        assert_eq!(
            RpcRequest::decode(&raw),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn truncation_and_bad_tags_are_typed() {
        let raw = RpcRequest::new(1, RpcMethod::BlockNumber).encode();
        assert!(matches!(
            RpcRequest::decode(&raw[..raw.len() - 1]),
            Err(CodecError::Truncated { .. })
        ));
        let mut bad = raw.clone();
        bad[8] = 0xEE; // the method tag byte
        assert_eq!(
            RpcRequest::decode(&bad),
            Err(CodecError::BadTag {
                reading: "request method tag",
                tag: 0xEE
            })
        );
        // A declared length far past the payload is an overflow, caught
        // before any allocation.
        let mut resp = Writer::new();
        resp.u64(1); // id
        resp.u64(0); // cost
        resp.u8(0x81); // Rejected
        resp.u64(u64::MAX); // declared string length
        assert!(matches!(
            RpcResponse::decode(&resp.0),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    fn reply(id: u64, height: u64) -> RpcResponse {
        RpcResponse {
            id,
            result: Ok(RpcResult::BlockNumber(height)),
            cost: SimDuration::from_millis(height),
        }
    }

    #[test]
    fn tag_matching_restores_request_order() {
        let requests: Vec<RpcRequest> = [4u64, 9, 7]
            .into_iter()
            .map(|id| RpcRequest::new(id, RpcMethod::BlockNumber))
            .collect();
        // The wire delivered the array shuffled; tags pair answers back.
        let shuffled = vec![reply(7, 30), reply(4, 10), reply(9, 20)];
        let matched = match_to_requests(&requests, shuffled);
        assert_eq!(
            matched.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![4, 9, 7]
        );
        // Each response kept its own result and priced cost.
        assert_eq!(matched[0], reply(4, 10));
        assert_eq!(matched[2], reply(7, 30));
        // An in-order reply is untouched.
        let in_order = vec![reply(4, 10), reply(9, 20), reply(7, 30)];
        assert_eq!(match_to_requests(&requests, in_order.clone()), in_order);
    }

    #[test]
    fn tag_matching_degrades_to_positions_for_strays_and_duplicates() {
        // Duplicate tags claim their requests first-come-first-served.
        let twins: Vec<RpcRequest> = [5u64, 5]
            .into_iter()
            .map(|id| RpcRequest::new(id, RpcMethod::BlockNumber))
            .collect();
        let answers = vec![reply(5, 1), reply(5, 2)];
        assert_eq!(match_to_requests(&twins, answers.clone()), answers);
        // A response with an unknown tag fills the slot its tagged peers
        // left over, in wire order.
        let requests: Vec<RpcRequest> = [1u64, 2]
            .into_iter()
            .map(|id| RpcRequest::new(id, RpcMethod::BlockNumber))
            .collect();
        let matched = match_to_requests(&requests, vec![reply(99, 3), reply(1, 4)]);
        assert_eq!(matched, vec![reply(1, 4), reply(99, 3)]);
        // Mismatched counts pass through untouched.
        let short = vec![reply(1, 4)];
        assert_eq!(match_to_requests(&requests, short.clone()), short);
    }
}
