//! # ofl-rpc
//!
//! The node-API boundary of the OFL-W3 stack: everything the marketplace
//! core knows about infrastructure goes through the provider traits defined
//! here, never through concrete chain/swarm structs.
//!
//! - [`envelope`]: typed [`RpcRequest`]/[`RpcResponse`] envelopes with a
//!   canonical wire codec — the thin, decorator-friendly JSON-RPC shape.
//! - [`eth`]: the [`EthApi`] trait (`send_raw_transaction`,
//!   `get_transaction_receipt`, `call`, `get_logs`, `block_number`,
//!   `get_balance`, …) plus [`EthApi::batch`], which answers N requests in
//!   one provider round trip.
//! - [`ipfs`]: the [`IpfsApi`] trait (`add`, `cat`, `pin`).
//! - [`sim`]: the in-process [`SimProvider`] backend over a chain + swarm.
//! - [`pool`]: [`ProviderPool`] — N endpoint stacks (shards) addressed by
//!   [`EndpointId`], with tagged batch fan-out and per-endpoint metering
//!   rolled up into run-level totals.
//! - [`decorators`]: composable provider layers wrapping any backend. One
//!   adapter, [`Layered`], implements the provider traits over an inner
//!   provider; each [`Layer`] policy overrides only the hooks it changes:
//!   [`Latency`] prices netsim timing into each response, [`Flaky`]
//!   injects seeded deterministic drops/timeouts, [`RateLimit`] answers
//!   seeded 429s past a per-slot quota, [`Spike`] stalls whole slots at a
//!   time, [`Reorder`] shuffles batch reply arrays (tags intact),
//!   [`StaleRead`] serves lagging-replica reads, [`SubLag`] delays push
//!   deliveries, and [`Meter`] counts per-method calls and virtual-time
//!   totals.
//! - [`bindings`]: the [`contract_bindings!`] macro and the generated
//!   [`ModelMarketContract`] handle — typed contract calls with typed
//!   decode errors, no raw selector strings.
//! - [`backstage`]: the simulator's side channel (mining, invariant reads,
//!   failure injection) as wire-able [`BackstageOp`] values instead of
//!   reference accessors.
//! - [`sub`]: the subscription subsystem — typed push channels
//!   ([`SubscriptionKind::NewHeads`], [`SubscriptionKind::Logs`],
//!   [`SubscriptionKind::PendingTxs`]) with monotonic ids and a
//!   deterministic delivery order, routed by a per-backend
//!   [`SubscriptionHub`].
//! - [`frame`] / [`transport`] / [`socket`]: the out-of-process boundary —
//!   versioned length-prefixed [`Frame`]s over any byte stream, and the
//!   [`SocketProvider`] client that serves the whole provider surface from
//!   an `rpcd` daemon while the usual decorators wrap it unchanged.
//!
//! ## Costs travel with values
//!
//! Providers never advance a clock. Decorators *price* work into a
//! [`Billed`] envelope (or `RpcResponse::cost`), and the caller charges the
//! bill to whatever clock or per-participant timeline it owns. This is what
//! lets one provider stack serve both the serial workflow (one global
//! clock) and the discrete-event session engine (many overlapping
//! timelines).

#![forbid(unsafe_code)]

pub mod backstage;
pub mod bindings;
pub mod codec;
pub mod decorators;
pub mod envelope;
pub mod eth;
pub mod frame;
pub mod ipfs;
pub mod pool;
pub mod provider;
pub mod sim;
pub mod socket;
pub mod sub;
pub mod transport;

pub use backstage::{BackstageOp, BackstageReply};
pub use bindings::{AbiArg, AbiRet, BindingError, ModelMarketContract};
pub use codec::CodecError;
pub use decorators::{
    FaultProfile, Flaky, Latency, Layer, Layered, Meter, MethodStats, ProviderMetrics, RateLimit,
    RateLimitProfile, Reorder, ReorderProfile, Spike, SpikeProfile, StaleProfile, StaleRead,
    SubLag, SubLagProfile,
};
pub use envelope::{match_to_requests, RpcError, RpcMethod, RpcRequest, RpcResponse, RpcResult};
pub use eth::EthApi;
pub use frame::{Frame, FrameError, ProtocolError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use ipfs::IpfsApi;
pub use pool::{EndpointId, ProviderPool};
pub use provider::{build_provider, decorate, EndpointFaults, NodeProvider, Retryable};
pub use sim::SimProvider;
pub use socket::{provision_socket_provider, SocketProvider, WireMode};
pub use sub::{Notification, SubEvent, SubscriptionHub, SubscriptionKind};
pub use transport::{
    FrameTransport, RemoteEndpoint, SessionMux, SessionTransport, StreamTransport, WireCounter,
};

use ofl_netsim::clock::SimDuration;

/// A value together with the virtual time it cost to obtain — the unit the
/// provider stack hands back so *callers* decide which clock pays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Billed<T> {
    /// The result itself.
    pub value: T,
    /// Virtual time priced onto the operation by the decorator stack.
    pub cost: SimDuration,
}

impl<T> Billed<T> {
    /// A cost-free value (what the raw in-process backend returns).
    pub fn free(value: T) -> Billed<T> {
        Billed {
            value,
            cost: SimDuration::ZERO,
        }
    }

    /// Maps the value, keeping the cost.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Billed<U> {
        Billed {
            value: f(self.value),
            cost: self.cost,
        }
    }
}
