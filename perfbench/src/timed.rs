//! Spans at the provider boundary.
//!
//! [`TimedProvider`] wraps any [`NodeProvider`] stack and records one
//! [`Span`] per call into a [`SpanSink`]: which kind of operation, when it
//! started and when it returned, on the benchmark's shared clock. It
//! forwards everything untouched, so a timed world is bit-identical to an
//! untimed one. Mounted outermost on a shard's client stack it sees what
//! the engine waits on; mounted around a daemon's backend it sees what the
//! backend itself costs.

use crate::clock::now_ns;
use ofl_eth::chain::Chain;
use ofl_ipfs::cid::Cid;
use ofl_ipfs::swarm::{AddResult, FetchStats, IpfsError, Swarm};
use ofl_rpc::{
    BackstageOp, BackstageReply, Billed, EthApi, IpfsApi, NodeProvider, Notification,
    ProviderMetrics, RpcMethod, RpcRequest, RpcResponse, SubscriptionKind,
};
use std::sync::{Arc, Mutex};

/// The operation classes the benchmark charges time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `eth_sendRawTransaction`: decode, sender recovery, admission.
    SendRaw,
    /// `eth_call` (contract views), alone or batched.
    Call,
    /// `eth_estimateGas`, alone or in the wallet's signing batch.
    TxEnv,
    /// `eth_getTransactionReceipt`, alone or batched.
    Receipts,
    /// Every other read: logs, balances, nonces, heights, chain id.
    ReadMisc,
    /// The backstage `MineSlot` op: block building and EVM execution.
    Mine,
    /// Every other backstage op (heights, mempool probes, node spawns,
    /// slot notifications).
    Backstage,
    /// `ipfs add` and `ipfs pin`.
    IpfsAdd,
    /// `ipfs cat`.
    IpfsCat,
}

impl Op {
    /// Every class, in report order.
    pub const ALL: [Op; 9] = [
        Op::SendRaw,
        Op::Call,
        Op::TxEnv,
        Op::Receipts,
        Op::ReadMisc,
        Op::Mine,
        Op::Backstage,
        Op::IpfsAdd,
        Op::IpfsCat,
    ];

    /// The class's metric name segment (`provider.<name>.*`).
    pub fn name(self) -> &'static str {
        match self {
            Op::SendRaw => "send_raw",
            Op::Call => "call",
            Op::TxEnv => "tx_env",
            Op::Receipts => "receipts",
            Op::ReadMisc => "read_misc",
            Op::Mine => "mine",
            Op::Backstage => "backstage",
            Op::IpfsAdd => "ipfs_add",
            Op::IpfsCat => "ipfs_cat",
        }
    }

    /// Client writes: the latency class `write_*` metrics report.
    pub fn is_write(self) -> bool {
        self == Op::SendRaw
    }

    /// Client reads: the latency class `read_*` metrics report.
    pub fn is_read(self) -> bool {
        matches!(self, Op::Call | Op::TxEnv | Op::Receipts | Op::ReadMisc)
    }

    /// The class of one JSON-RPC method.
    pub fn of_method(method: &RpcMethod) -> Op {
        match method {
            RpcMethod::SendRawTransaction { .. } => Op::SendRaw,
            RpcMethod::Call { .. } => Op::Call,
            RpcMethod::EstimateGas { .. } => Op::TxEnv,
            RpcMethod::GetTransactionReceipt { .. } => Op::Receipts,
            RpcMethod::GetLogs { .. }
            | RpcMethod::BlockNumber
            | RpcMethod::GetBalance { .. }
            | RpcMethod::GetTransactionCount { .. }
            | RpcMethod::GasPrice
            | RpcMethod::ChainId => Op::ReadMisc,
        }
    }

    /// The class of a batch: a batch carrying an `eth_estimateGas` is the
    /// wallet's signing batch; otherwise the batch is charged to its first
    /// request's class (the engine's batches are homogeneous).
    pub fn of_batch(requests: &[RpcRequest]) -> Op {
        if requests
            .iter()
            .any(|r| matches!(r.method, RpcMethod::EstimateGas { .. }))
        {
            return Op::TxEnv;
        }
        requests
            .first()
            .map_or(Op::ReadMisc, |r| Op::of_method(&r.method))
    }

    /// The class of a backstage op.
    pub fn of_backstage(op: &BackstageOp) -> Op {
        match op {
            BackstageOp::MineSlot { .. } => Op::Mine,
            _ => Op::Backstage,
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What kind of call.
    pub op: Op,
    /// When it started, in nanoseconds on the benchmark's clock.
    pub start: u64,
    /// When it returned, in nanoseconds on the benchmark's clock.
    pub end: u64,
}

impl Span {
    /// How long the call took, in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A shared, clonable span buffer. One sink per provider stack, so the
/// lock is only ever taken by the one thread driving that stack.
#[derive(Debug, Clone, Default)]
pub struct SpanSink(Arc<Mutex<Vec<Span>>>);

impl SpanSink {
    /// A fresh, empty sink.
    pub fn new() -> SpanSink {
        SpanSink::default()
    }

    /// Appends one span.
    pub fn record(&self, op: Op, start: u64, end: u64) {
        self.0
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .push(Span { op, start, end });
    }

    /// Runs `f`, recording its wall time as one `op` span.
    pub fn time<R>(&self, op: Op, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let value = f();
        self.record(op, start, now_ns());
        value
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.lock().expect("span sink poisoned"))
    }
}

/// A transparent [`NodeProvider`] decorator that records a [`Span`] per
/// client call and per backstage op.
pub struct TimedProvider<P> {
    inner: P,
    sink: SpanSink,
}

impl<P> TimedProvider<P> {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: P, sink: SpanSink) -> TimedProvider<P> {
        TimedProvider { inner, sink }
    }
}

impl<P: NodeProvider> EthApi for TimedProvider<P> {
    fn execute(&mut self, request: &RpcRequest) -> RpcResponse {
        let inner = &mut self.inner;
        self.sink
            .time(Op::of_method(&request.method), || inner.execute(request))
    }

    fn batch(&mut self, requests: &[RpcRequest]) -> Vec<RpcResponse> {
        let inner = &mut self.inner;
        self.sink
            .time(Op::of_batch(requests), || inner.batch(requests))
    }
}

impl<P: NodeProvider> IpfsApi for TimedProvider<P> {
    fn add(&mut self, node: usize, data: &[u8]) -> Billed<AddResult> {
        let inner = &mut self.inner;
        self.sink.time(Op::IpfsAdd, || inner.add(node, data))
    }

    fn cat(&mut self, node: usize, cid: &Cid) -> Billed<Result<(Vec<u8>, FetchStats), IpfsError>> {
        let inner = &mut self.inner;
        self.sink.time(Op::IpfsCat, || inner.cat(node, cid))
    }

    fn pin(&mut self, node: usize, cid: &Cid) -> Billed<Result<(), IpfsError>> {
        let inner = &mut self.inner;
        self.sink.time(Op::IpfsAdd, || inner.pin(node, cid))
    }
}

impl<P: NodeProvider> NodeProvider for TimedProvider<P> {
    fn chain(&self) -> &Chain {
        self.inner.chain()
    }
    fn chain_mut(&mut self) -> &mut Chain {
        self.inner.chain_mut()
    }
    fn swarm(&self) -> &Swarm {
        self.inner.swarm()
    }
    fn swarm_mut(&mut self) -> &mut Swarm {
        self.inner.swarm_mut()
    }
    fn metrics(&self) -> Option<ProviderMetrics> {
        self.inner.metrics()
    }
    fn on_slot(&mut self) {
        let inner = &mut self.inner;
        self.sink.time(Op::Backstage, || inner.on_slot())
    }
    fn backstage(&mut self, op: &BackstageOp) -> BackstageReply {
        let inner = &mut self.inner;
        self.sink.time(Op::of_backstage(op), || inner.backstage(op))
    }
    fn subscribe(&mut self, kind: SubscriptionKind) -> u64 {
        self.inner.subscribe(kind)
    }
    fn unsubscribe(&mut self, sub_id: u64) -> bool {
        self.inner.unsubscribe(sub_id)
    }
    fn drain_notifications(&mut self) -> Vec<Notification> {
        self.inner.drain_notifications()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_eth::chain::ChainConfig;
    use ofl_rpc::SimProvider;

    #[test]
    fn batches_are_classed_by_their_purpose() {
        let call = |id| {
            RpcRequest::new(
                id,
                RpcMethod::Call {
                    from: Default::default(),
                    to: Default::default(),
                    data: Vec::new(),
                },
            )
        };
        let estimate = RpcRequest::new(
            2,
            RpcMethod::EstimateGas {
                from: Default::default(),
                to: None,
                data: Vec::new(),
            },
        );
        let chain_id = RpcRequest::new(0, RpcMethod::ChainId);
        assert_eq!(Op::of_batch(&[call(0), call(1)]), Op::Call);
        assert_eq!(Op::of_batch(&[chain_id, estimate]), Op::TxEnv);
        assert_eq!(Op::of_batch(&[]), Op::ReadMisc);
        assert!(Op::SendRaw.is_write() && !Op::SendRaw.is_read());
        assert!(Op::Receipts.is_read() && !Op::Mine.is_read() && !Op::IpfsAdd.is_write());
    }

    #[test]
    fn timed_provider_forwards_and_records_one_span_per_call() {
        let sink = SpanSink::new();
        let backend = SimProvider::new(
            Chain::new(ChainConfig::default(), &[]),
            Swarm::spawn("t", 1),
        );
        let mut timed = TimedProvider::new(backend, sink.clone());
        assert_eq!(timed.block_number().value.unwrap(), 0);
        timed.backstage(&BackstageOp::MineSlot { slot_secs: 12 });
        assert_eq!(timed.backstage(&BackstageOp::Height).into_u64(), 1);
        let added = timed.add(0, b"bytes").value;
        assert!(timed.cat(0, &added.root).value.is_ok());
        let ops: Vec<Op> = sink.take().iter().map(|s| s.op).collect();
        assert_eq!(
            ops,
            [
                Op::ReadMisc,
                Op::Mine,
                Op::Backstage,
                Op::IpfsAdd,
                Op::IpfsCat
            ]
        );
        assert!(sink.take().is_empty(), "take drains the sink");
    }
}
