//! Composable provider layers: latency pricing, deterministic fault
//! injection, and per-method metering.
//!
//! One adapter, [`Layered`], implements [`EthApi`], [`IpfsApi`], and
//! [`NodeProvider`] over any inner provider. What a layer *does* is a
//! [`Layer`] policy: a small state struct whose hooks default to passing
//! straight through to the inner provider, so each policy writes only the
//! hooks it changes. Stacks compose freely:
//!
//! ```text
//! Layered<SubLag>                       ← seeded per-subscription push lag
//!   └─ Layered<Reorder>                 ← seeded shuffle of batch reply arrays
//!        └─ Layered<Meter>              ← counts calls/errors, sums costs
//!             └─ Layered<Latency>       ← prices each request from the netsim links
//!                  └─ Layered<Spike>    ← seeded slot-long latency stalls
//!                       └─ Layered<RateLimit>  ← seeded 429s after K requests per slot
//!                            └─ Layered<Flaky> ← seeded request drops, timeout cost
//!                                 └─ Layered<StaleRead> ← seeded lagging-replica reads
//!                                      └─ SimProvider  (in-process chain + swarm)
//! ```
//!
//! Layers never touch a clock: they *price* requests into the response
//! envelope's `cost` field, and the caller decides which clock or timeline
//! pays. That is what lets the discrete-event engine charge per-owner
//! timelines while the DApp's blocking clicks charge the world's one
//! clock, both through the same stack.

use crate::backstage::{BackstageOp, BackstageReply};
use crate::envelope::{RpcError, RpcMethod, RpcRequest, RpcResponse, RpcResult};
use crate::eth::EthApi;
use crate::ipfs::IpfsApi;
use crate::provider::NodeProvider;
use crate::sub::{Notification, SubscriptionKind};
use crate::Billed;
use ofl_eth::chain::Chain;
use ofl_ipfs::cid::Cid;
use ofl_ipfs::swarm::{AddResult, FetchStats, IpfsError, Swarm};
use ofl_netsim::clock::SimDuration;
use ofl_netsim::link::NetworkProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::slice;

/// The result of an IPFS fetch, as [`IpfsApi::cat`] bills it.
type CatResult = Billed<Result<(Vec<u8>, FetchStats), IpfsError>>;
/// The result of an IPFS pin, as [`IpfsApi::pin`] bills it.
type PinResult = Billed<Result<(), IpfsError>>;

// ----------------------------------------------------------------------
// Layer + Layered
// ----------------------------------------------------------------------

/// One provider layer's policy. Every hook receives the inner provider and
/// passes straight through to it by default; a policy overrides only what
/// it changes. `chain`/`swarm` access, backstage operations, and
/// `subscribe` have no hook: no layer ever alters them.
///
/// Ethereum traffic has one hook, [`Layer::batch`]: a single request
/// reaches it as a batch of one, so every policy prices, faults and meters
/// one request exactly like a one-element batch.
pub trait Layer: Send {
    /// Answers a batch as one exchange (see [`EthApi::batch`]).
    fn batch<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        requests: &[RpcRequest],
    ) -> Vec<RpcResponse> {
        inner.batch(requests)
    }
    /// Stores bytes on an IPFS node (see [`IpfsApi::add`]).
    fn add<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        node: usize,
        data: &[u8],
    ) -> Billed<AddResult> {
        inner.add(node, data)
    }
    /// Fetches a DAG from an IPFS node (see [`IpfsApi::cat`]).
    fn cat<P: NodeProvider>(&mut self, inner: &mut P, node: usize, cid: &Cid) -> CatResult {
        inner.cat(node, cid)
    }
    /// Pins a DAG on an IPFS node (see [`IpfsApi::pin`]).
    fn pin<P: NodeProvider>(&mut self, inner: &mut P, node: usize, cid: &Cid) -> PinResult {
        inner.pin(node, cid)
    }
    /// The metering snapshot (see [`NodeProvider::metrics`]).
    fn metrics<P: NodeProvider>(&self, inner: &P) -> Option<ProviderMetrics> {
        inner.metrics()
    }
    /// A 12-second slot elapsed (see [`NodeProvider::on_slot`]).
    fn on_slot<P: NodeProvider>(&mut self, inner: &mut P) {
        inner.on_slot()
    }
    /// Cancels a subscription (see [`NodeProvider::unsubscribe`]).
    fn unsubscribe<P: NodeProvider>(&mut self, inner: &mut P, sub_id: u64) -> bool {
        inner.unsubscribe(sub_id)
    }
    /// Takes pending pushes (see [`NodeProvider::drain_notifications`]).
    fn drain_notifications<P: NodeProvider>(&mut self, inner: &mut P) -> Vec<Notification> {
        inner.drain_notifications()
    }
}

/// A [`Layer`] policy wrapped around an inner provider: the one adapter
/// that implements the provider traits for every layer.
pub struct Layered<L, P> {
    /// The policy and its state (counters, RNG), open for inspection.
    pub layer: L,
    inner: P,
}

impl<L, P> Layered<L, P> {
    /// Wraps `inner` with `layer`.
    pub fn new(layer: L, inner: P) -> Layered<L, P> {
        Layered { layer, inner }
    }
}

impl<L: Layer, P: NodeProvider> EthApi for Layered<L, P> {
    fn execute(&mut self, request: &RpcRequest) -> RpcResponse {
        let mut responses = self.layer.batch(&mut self.inner, slice::from_ref(request));
        responses
            .pop()
            .expect("a batch of one answers one response")
    }
    fn batch(&mut self, requests: &[RpcRequest]) -> Vec<RpcResponse> {
        self.layer.batch(&mut self.inner, requests)
    }
}

impl<L: Layer, P: NodeProvider> IpfsApi for Layered<L, P> {
    fn add(&mut self, node: usize, data: &[u8]) -> Billed<AddResult> {
        self.layer.add(&mut self.inner, node, data)
    }
    fn cat(&mut self, node: usize, cid: &Cid) -> CatResult {
        self.layer.cat(&mut self.inner, node, cid)
    }
    fn pin(&mut self, node: usize, cid: &Cid) -> PinResult {
        self.layer.pin(&mut self.inner, node, cid)
    }
}

impl<L: Layer, P: NodeProvider> NodeProvider for Layered<L, P> {
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
        self.layer.metrics(&self.inner)
    }
    fn on_slot(&mut self) {
        self.layer.on_slot(&mut self.inner)
    }
    fn backstage(&mut self, op: &BackstageOp) -> BackstageReply {
        self.inner.backstage(op)
    }
    fn subscribe(&mut self, kind: SubscriptionKind) -> u64 {
        self.inner.subscribe(kind)
    }
    fn unsubscribe(&mut self, sub_id: u64) -> bool {
        self.layer.unsubscribe(&mut self.inner, sub_id)
    }
    fn drain_notifications(&mut self) -> Vec<Notification> {
        self.layer.drain_notifications(&mut self.inner)
    }
}

/// Refuses a whole batch as one HTTP request: every answer is `error`, and
/// `cost` elapses once, riding the first response.
fn refuse_batch(requests: &[RpcRequest], error: RpcError, cost: SimDuration) -> Vec<RpcResponse> {
    let mut cost = Some(cost);
    requests
        .iter()
        .map(|r| RpcResponse {
            id: r.id,
            result: Err(error.clone()),
            cost: cost.take().unwrap_or_default(),
        })
        .collect()
}

// ----------------------------------------------------------------------
// Latency
// ----------------------------------------------------------------------

/// Prices every request with the netsim link model: RPC round trips for the
/// Ethereum surface, LAN exchanges for IPFS. Batches are priced as **one**
/// round trip carrying all payloads.
pub struct Latency {
    profile: NetworkProfile,
    /// Fixed wire overhead per request (HTTP/JSON framing).
    pub envelope_bytes: u64,
}

impl Latency {
    /// Prices against `profile`, adding `envelope_bytes` of framing to each
    /// leg.
    pub fn new(profile: NetworkProfile, envelope_bytes: u64) -> Latency {
        Latency {
            profile,
            envelope_bytes,
        }
    }

    fn price(&self, request_payload: u64, response_payload: u64) -> SimDuration {
        self.profile.rpc.rpc_round_trip(
            self.envelope_bytes + request_payload,
            self.envelope_bytes + response_payload,
        )
    }
}

fn response_payload(response: &RpcResponse) -> u64 {
    response
        .result
        .as_ref()
        .map(|r| r.payload_bytes())
        .unwrap_or(0)
}

impl Layer for Latency {
    fn batch<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        requests: &[RpcRequest],
    ) -> Vec<RpcResponse> {
        let mut responses = inner.batch(requests);
        // One wire round trip for the whole batch: payloads sum, framing is
        // paid once. The full batch cost rides on the first response.
        let out: u64 = requests.iter().map(|r| r.method.payload_bytes()).sum();
        let back: u64 = responses.iter().map(response_payload).sum();
        let cost = self.price(out, back);
        if let Some(first) = responses.first_mut() {
            first.cost = first.cost.saturating_add(cost);
        }
        responses
    }

    fn add<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        node: usize,
        data: &[u8],
    ) -> Billed<AddResult> {
        let mut billed = inner.add(node, data);
        billed.cost = billed
            .cost
            .saturating_add(self.profile.lan.exchange_time(billed.value.bytes_stored, 1));
        billed
    }

    fn cat<P: NodeProvider>(&mut self, inner: &mut P, node: usize, cid: &Cid) -> CatResult {
        let mut billed = inner.cat(node, cid);
        let transfer = match &billed.value {
            Ok((_, stats)) => self
                .profile
                .lan
                .exchange_time(stats.bytes_fetched, stats.rounds.max(1)),
            // A failed fetch still walked the want-list once.
            Err(_) => self.profile.lan.exchange_time(0, 1),
        };
        billed.cost = billed.cost.saturating_add(transfer);
        billed
    }

    fn pin<P: NodeProvider>(&mut self, inner: &mut P, node: usize, cid: &Cid) -> PinResult {
        let mut billed = inner.pin(node, cid);
        billed.cost = billed
            .cost
            .saturating_add(self.profile.lan.exchange_time(0, 1));
        billed
    }
}

// ----------------------------------------------------------------------
// Flaky
// ----------------------------------------------------------------------

/// How an unreliable RPC endpoint misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Seed of the drop sequence — equal seeds reproduce the exact same
    /// faults, request for request.
    pub seed: u64,
    /// Probability that any one Ethereum request (or whole batch) is
    /// dropped.
    pub drop_rate: f64,
}

impl FaultProfile {
    /// Virtual time a dropped request wastes before the caller gives up on
    /// it (the client-side timeout).
    pub const TIMEOUT: SimDuration = SimDuration::from_secs(3);

    /// A profile dropping requests at `drop_rate`.
    pub fn new(seed: u64, drop_rate: f64) -> FaultProfile {
        FaultProfile { seed, drop_rate }
    }
}

/// Drops Ethereum requests with a seeded, deterministic coin — the
/// infrastructure-fault scenario generator. A dropped request costs
/// [`FaultProfile::TIMEOUT`]; IPFS traffic (LAN-local in the paper's
/// deployment) passes through untouched.
pub struct Flaky {
    profile: FaultProfile,
    rng: StdRng,
    /// How many requests (or whole batches) have been dropped so far.
    pub dropped: u64,
}

impl Flaky {
    /// A fresh drop sequence for `profile`.
    pub fn new(profile: FaultProfile) -> Flaky {
        Flaky {
            rng: StdRng::seed_from_u64(profile.seed),
            profile,
            dropped: 0,
        }
    }

    fn drops_now(&mut self) -> bool {
        let dropped = self.rng.gen_bool(self.profile.drop_rate);
        if dropped {
            self.dropped += 1;
            ofl_trace::trace_event!(
                ofl_trace::Category::Provider,
                "flaky.drop",
                "total" => self.dropped,
            );
        }
        dropped
    }
}

impl Layer for Flaky {
    fn batch<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        requests: &[RpcRequest],
    ) -> Vec<RpcResponse> {
        // A batch is one HTTP request: it drops (or survives) as a unit.
        if self.drops_now() {
            return refuse_batch(requests, RpcError::Timeout, FaultProfile::TIMEOUT);
        }
        inner.batch(requests)
    }
}

// ----------------------------------------------------------------------
// RateLimit
// ----------------------------------------------------------------------

/// How a quota-enforcing endpoint throttles its clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitProfile {
    /// Seed of the per-slot allowance jitter — equal seeds reproduce the
    /// exact same 429 sequence, request for request.
    pub seed: u64,
    /// Baseline request budget per 12-second slot (single requests and
    /// whole batches each spend one unit, like one HTTP exchange).
    pub requests_per_slot: u64,
}

impl RateLimitProfile {
    /// Virtual time a throttled client backs off before retrying; the
    /// window is treated as elapsed once the back-off is paid.
    pub const BACKOFF: SimDuration = SimDuration::from_secs(1);

    /// A profile granting about `requests_per_slot` requests per slot.
    pub fn new(seed: u64, requests_per_slot: u64) -> RateLimitProfile {
        RateLimitProfile {
            seed,
            requests_per_slot,
        }
    }
}

/// Answers 429-style [`RpcError::RateLimited`] once a client exceeds its
/// per-slot request budget — the quota-fault scenario generator. Each slot
/// grants a seeded allowance (baseline plus deterministic jitter); the
/// request over budget is refused at the cost of
/// [`RateLimitProfile::BACKOFF`], after which the window is considered
/// elapsed and the allowance renews. IPFS traffic (LAN-local in the paper's
/// deployment) passes untouched.
pub struct RateLimit {
    profile: RateLimitProfile,
    rng: StdRng,
    allowance: u64,
    used: u64,
    /// How many requests (or whole batches) have been refused so far.
    pub limited: u64,
}

impl RateLimit {
    /// A fresh quota for `profile`; the first window's allowance is drawn
    /// immediately.
    pub fn new(profile: RateLimitProfile) -> RateLimit {
        let mut rng = StdRng::seed_from_u64(profile.seed);
        let allowance = draw_allowance(&mut rng, &profile);
        RateLimit {
            profile,
            rng,
            allowance,
            used: 0,
            limited: 0,
        }
    }

    /// Spends one unit of the window's budget; `true` means the request is
    /// refused (and the window renews behind the priced back-off).
    fn throttles_now(&mut self) -> bool {
        if self.used < self.allowance {
            self.used += 1;
            return false;
        }
        self.limited += 1;
        ofl_trace::trace_event!(
            ofl_trace::Category::Provider,
            "ratelimit.throttle",
            "total" => self.limited,
        );
        self.renew_window();
        true
    }

    fn renew_window(&mut self) {
        self.used = 0;
        self.allowance = draw_allowance(&mut self.rng, &self.profile);
    }
}

/// Baseline budget plus up to 25 % seeded jitter.
fn draw_allowance(rng: &mut StdRng, profile: &RateLimitProfile) -> u64 {
    let jitter_span = profile.requests_per_slot / 4 + 1;
    (profile.requests_per_slot + rng.gen_range(0..jitter_span)).max(1)
}

impl Layer for RateLimit {
    fn batch<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        requests: &[RpcRequest],
    ) -> Vec<RpcResponse> {
        // A batch is one HTTP request: it spends (or is refused) one unit.
        if self.throttles_now() {
            return refuse_batch(requests, RpcError::RateLimited, RateLimitProfile::BACKOFF);
        }
        inner.batch(requests)
    }

    fn on_slot<P: NodeProvider>(&mut self, inner: &mut P) {
        self.renew_window();
        inner.on_slot()
    }
}

// ----------------------------------------------------------------------
// Spike
// ----------------------------------------------------------------------

/// How a congested endpoint's latency spikes come and go.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeProfile {
    /// Seed of the per-slot spike draws — equal seeds reproduce the exact
    /// same stall windows, slot for slot.
    pub seed: u64,
    /// Probability that a stall begins at any idle slot boundary.
    pub spike_rate: f64,
}

impl SpikeProfile {
    /// How many 12-second slots one stall lasts once it begins.
    pub const SPIKE_SLOTS: u64 = 2;
    /// Extra virtual time every Ethereum exchange pays while stalled.
    pub const STALL: SimDuration = SimDuration::from_secs(2);

    /// A profile starting stalls at `spike_rate` per idle slot.
    pub fn new(seed: u64, spike_rate: f64) -> SpikeProfile {
        SpikeProfile { seed, spike_rate }
    }
}

/// Stalls an endpoint for whole slots at a time — the congested-provider
/// scenario generator. At each idle slot boundary a seeded coin decides
/// whether a spike begins; while one is live, every Ethereum request (or
/// whole batch) pays [`SpikeProfile::STALL`] on top of its normal price,
/// then the endpoint recovers and the coin waits for the next boundary.
/// Spikes are a property of virtual *slots*, not of request count, so equal
/// seeds stall the exact same windows however much traffic flows through
/// them. IPFS traffic (LAN-local in the paper's deployment) passes
/// untouched.
pub struct Spike {
    profile: SpikeProfile,
    rng: StdRng,
    /// Slots left before the current spike clears (0 = healthy).
    remaining_slots: u64,
    /// How many requests (or whole batches) were served mid-spike.
    pub stalled: u64,
}

impl Spike {
    /// A fresh spike sequence for `profile`. The first slot draws its coin
    /// immediately, so a spike can be live from the very first request.
    pub fn new(profile: SpikeProfile) -> Spike {
        let mut rng = StdRng::seed_from_u64(profile.seed);
        let remaining_slots = if rng.gen_bool(profile.spike_rate) {
            SpikeProfile::SPIKE_SLOTS
        } else {
            0
        };
        Spike {
            profile,
            rng,
            remaining_slots,
            stalled: 0,
        }
    }

    /// True while a spike window is live.
    pub fn is_stalled(&self) -> bool {
        self.remaining_slots > 0
    }

    /// Adds the stall to one already-priced cost when a spike is live.
    fn stall_cost(&mut self, cost: SimDuration) -> SimDuration {
        if self.remaining_slots == 0 {
            return cost;
        }
        self.stalled += 1;
        ofl_trace::trace_event!(
            ofl_trace::Category::Provider,
            "spike.stall",
            "total" => self.stalled,
            "stall_us" => SpikeProfile::STALL.as_micros(),
        );
        cost.saturating_add(SpikeProfile::STALL)
    }
}

impl Layer for Spike {
    fn batch<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        requests: &[RpcRequest],
    ) -> Vec<RpcResponse> {
        let mut responses = inner.batch(requests);
        // A batch is one HTTP exchange: the stall elapses once, riding the
        // first response like every other batch-level cost.
        if let Some(first) = responses.first_mut() {
            first.cost = self.stall_cost(first.cost);
        }
        responses
    }

    /// One slot elapses: a live spike runs down; an idle boundary draws the
    /// seeded coin for the next one. The coin is only drawn while healthy,
    /// so the draw stream — and with it every later window — depends on
    /// nothing but the seed and the slot count.
    fn on_slot<P: NodeProvider>(&mut self, inner: &mut P) {
        if self.remaining_slots > 0 {
            self.remaining_slots -= 1;
        } else if self.rng.gen_bool(self.profile.spike_rate) {
            self.remaining_slots = SpikeProfile::SPIKE_SLOTS;
        }
        inner.on_slot()
    }
}

// ----------------------------------------------------------------------
// Reorder
// ----------------------------------------------------------------------

/// How a batch-reordering endpoint shuffles its answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderProfile {
    /// Seed of the per-batch permutation draws — equal seeds shuffle every
    /// batch identically, draw for draw.
    pub seed: u64,
}

impl ReorderProfile {
    /// A profile shuffling with the given seed.
    pub fn new(seed: u64) -> ReorderProfile {
        ReorderProfile { seed }
    }
}

/// Delivers each batch's sub-responses in a seeded random order — the
/// out-of-order-server scenario generator. JSON-RPC promises nothing about
/// the order of a batch reply's array; clients must pair answers with
/// requests by their `id` tag. Every response keeps its tag (and its priced
/// cost) through the shuffle, so tag-matching clients (see
/// [`match_to_requests`](crate::envelope::match_to_requests)) reassemble
/// request order exactly, while positional consumers would read the wrong
/// answers — which is precisely what the regime exists to catch.
///
/// Sits **outside** metering in the stack: it models the wire delivering
/// the reply array out of order, after pricing and metering saw the batch
/// in request order. Single requests and IPFS traffic pass untouched.
pub struct Reorder {
    rng: StdRng,
    /// How many batches came back in a non-identity order.
    pub reordered: u64,
}

impl Reorder {
    /// A fresh permutation stream for `profile`.
    pub fn new(profile: ReorderProfile) -> Reorder {
        Reorder {
            rng: StdRng::seed_from_u64(profile.seed),
            reordered: 0,
        }
    }
}

impl Layer for Reorder {
    fn batch<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        requests: &[RpcRequest],
    ) -> Vec<RpcResponse> {
        let mut responses = inner.batch(requests);
        if responses.len() > 1 {
            // Fisher–Yates with the seeded stream: len-1 draws per batch,
            // whatever the transport, so equal seeds permute identically.
            let mut identity = true;
            for i in (1..responses.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                if j != i {
                    identity = false;
                    responses.swap(i, j);
                }
            }
            if !identity {
                self.reordered += 1;
                ofl_trace::trace_event!(
                    ofl_trace::Category::Provider,
                    "reorder.shuffle",
                    "total" => self.reordered,
                    "batch" => responses.len(),
                );
            }
        }
        responses
    }
}

// ----------------------------------------------------------------------
// StaleRead
// ----------------------------------------------------------------------

/// How far a lagging replica trails the canonical head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaleProfile {
    /// Seed of the per-read lag draws — equal seeds reproduce the exact
    /// same staleness, read for read.
    pub seed: u64,
    /// Largest lag, in slots, a read may be served at (each read draws a
    /// lag in `0..=max_lag_slots`).
    pub max_lag_slots: u64,
}

impl StaleProfile {
    /// A profile lagging up to `max_lag_slots` behind the head.
    pub fn new(seed: u64, max_lag_slots: u64) -> StaleProfile {
        StaleProfile {
            seed,
            max_lag_slots,
        }
    }
}

/// Serves head and receipt reads as a **lagging replica** would: each
/// `eth_blockNumber` answers up to N slots behind the canonical head, and
/// each `eth_getTransactionReceipt` hides receipts the lagged replica has
/// not indexed yet (they come back `None`, exactly like an unmined
/// transaction — the classic load-balanced-RPC inconsistency clients must
/// re-poll through). Writes and all other reads pass through untouched.
///
/// Sits **innermost** in the stack (directly over the backend), so its
/// canonical-head queries reach the backend without disturbing the fault
/// layers' seeded draws and without being metered as client traffic.
pub struct StaleRead {
    profile: StaleProfile,
    rng: StdRng,
    /// How many reads were actually degraded (lagged head or hidden
    /// receipt).
    pub served_stale: u64,
}

impl StaleRead {
    /// A fresh lag stream for `profile`.
    pub fn new(profile: StaleProfile) -> StaleRead {
        StaleRead {
            rng: StdRng::seed_from_u64(profile.seed),
            profile,
            served_stale: 0,
        }
    }

    /// Applies a seeded lag to one already-answered read. `head` caches
    /// the canonical head for the rest of the batch: it is read from the
    /// backend at most once, on the first receipt that needs it (no view
    /// mines, so the head cannot move inside a batch).
    fn lag_response<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        head: &mut Option<Option<u64>>,
        request: &RpcRequest,
        response: &mut RpcResponse,
    ) {
        let lagged_reads = matches!(
            request.method,
            RpcMethod::BlockNumber | RpcMethod::GetTransactionReceipt { .. }
        );
        if !lagged_reads || response.result.is_err() {
            return;
        }
        let lag = self.rng.gen_range(0..=self.profile.max_lag_slots);
        match &mut response.result {
            Ok(RpcResult::BlockNumber(n)) => {
                if lag > 0 && *n > 0 {
                    self.served_stale += 1;
                    ofl_trace::trace_event!(
                        ofl_trace::Category::Provider,
                        "stale.serve",
                        "total" => self.served_stale,
                        "lag" => lag,
                    );
                }
                *n = n.saturating_sub(lag);
            }
            Ok(RpcResult::Receipt(opt)) => {
                let hidden = match opt {
                    Some(receipt) => match *head.get_or_insert_with(|| canonical_head(inner)) {
                        // The replica's view ends `lag` slots before the
                        // head; a receipt past that view does not exist yet.
                        Some(head) => receipt.block_number.saturating_add(lag) > head,
                        None => false,
                    },
                    None => false,
                };
                if hidden {
                    self.served_stale += 1;
                    ofl_trace::trace_event!(
                        ofl_trace::Category::Provider,
                        "stale.hide_receipt",
                        "total" => self.served_stale,
                        "lag" => lag,
                    );
                    *opt = None;
                }
            }
            _ => {}
        }
    }
}

/// The canonical head, read straight from the backend.
fn canonical_head<P: EthApi>(backend: &mut P) -> Option<u64> {
    match backend
        .execute(&RpcRequest::new(0, RpcMethod::BlockNumber))
        .result
    {
        Ok(RpcResult::BlockNumber(n)) => Some(n),
        _ => None,
    }
}

impl Layer for StaleRead {
    fn batch<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        requests: &[RpcRequest],
    ) -> Vec<RpcResponse> {
        let mut responses = inner.batch(requests);
        // Lag draws happen in request order, so a batch of N receipt polls
        // consumes N draws — deterministic whatever the transport.
        let mut head = None;
        for (request, response) in requests.iter().zip(&mut responses) {
            self.lag_response(inner, &mut head, request, response);
        }
        responses
    }
}

// ----------------------------------------------------------------------
// SubLag
// ----------------------------------------------------------------------

/// How a lagging push path delays subscription deliveries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubLagProfile {
    /// Seed of the per-subscription delay draws — equal seeds lag every
    /// subscription identically, draw for draw.
    pub seed: u64,
    /// Largest delivery lag, in slots, a subscription may be assigned
    /// (each subscription draws a fixed lag in `0..=max_delay_slots` when
    /// its first notification arrives).
    pub max_delay_slots: u64,
}

impl SubLagProfile {
    /// A profile lagging each subscription up to `max_delay_slots`.
    pub fn new(seed: u64, max_delay_slots: u64) -> SubLagProfile {
        SubLagProfile {
            seed,
            max_delay_slots,
        }
    }
}

/// Delays push notifications — the laggy-wire scenario generator for the
/// subscription path. Each subscription draws a fixed seeded lag in slots
/// when its first notification arrives; every notification for that
/// subscription is then held for that many [`NodeProvider::on_slot`]
/// boundaries before a drain releases it. Consumers that assume "drained
/// this slot = published this slot" break under this layer; consumers
/// keyed on the notification's own `seq` do not. Sits **outermost** in the
/// stack: it models the wire delivering pushes late, after the backend
/// published them in canonical order.
pub struct SubLag {
    profile: SubLagProfile,
    rng: StdRng,
    /// Slots elapsed since construction (the release clock).
    slot: u64,
    /// Fixed per-subscription lag, drawn on first sight.
    lags: BTreeMap<u64, u64>,
    /// Held notifications with their release slot, in arrival order.
    held: VecDeque<(u64, Notification)>,
    /// How many notifications were delivered at least one slot late.
    pub delayed: u64,
}

impl SubLag {
    /// A fresh lag stream for `profile`, nothing held.
    pub fn new(profile: SubLagProfile) -> SubLag {
        SubLag {
            rng: StdRng::seed_from_u64(profile.seed),
            profile,
            slot: 0,
            lags: BTreeMap::new(),
            held: VecDeque::new(),
            delayed: 0,
        }
    }

    /// Notifications currently held back (not yet released).
    pub fn held_back(&self) -> usize {
        self.held.len()
    }
}

impl Layer for SubLag {
    fn on_slot<P: NodeProvider>(&mut self, inner: &mut P) {
        self.slot += 1;
        inner.on_slot()
    }

    fn unsubscribe<P: NodeProvider>(&mut self, inner: &mut P, sub_id: u64) -> bool {
        // Anything still held for a cancelled subscription is never
        // delivered — the lagging wire dropped it past the cancel.
        self.held.retain(|(_, n)| n.sub_id != sub_id);
        inner.unsubscribe(sub_id)
    }

    fn drain_notifications<P: NodeProvider>(&mut self, inner: &mut P) -> Vec<Notification> {
        // Pull fresh publications into the hold queue, assigning each its
        // subscription's fixed lag (drawn seeded on first sight).
        for note in inner.drain_notifications() {
            let lag = *self.lags.entry(note.sub_id).or_insert_with(|| {
                if self.profile.max_delay_slots == 0 {
                    0
                } else {
                    self.rng.gen_range(0..=self.profile.max_delay_slots)
                }
            });
            if lag > 0 {
                self.delayed += 1;
            }
            self.held.push_back((self.slot + lag, note));
        }
        // Release everything whose slot has come, preserving arrival order.
        let mut released = Vec::new();
        let mut still = VecDeque::with_capacity(self.held.len());
        for (release_slot, note) in self.held.drain(..) {
            if release_slot <= self.slot {
                released.push(note);
            } else {
                still.push_back((release_slot, note));
            }
        }
        self.held = still;
        released
    }
}

// ----------------------------------------------------------------------
// Meter
// ----------------------------------------------------------------------

/// Counters for one method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodStats {
    /// Requests issued.
    pub calls: u64,
    /// Requests that came back as transport/node errors.
    pub errors: u64,
    /// Total virtual time priced onto this method's requests.
    pub cost: SimDuration,
}

/// A snapshot of everything the [`Meter`] layer observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProviderMetrics {
    methods: BTreeMap<&'static str, MethodStats>,
    /// Wire round trips: one per single request, one per whole batch, one
    /// per IPFS exchange.
    pub round_trips: u64,
}

impl ProviderMetrics {
    /// Stats for one method (zeroed when the method was never called).
    pub fn method(&self, name: &str) -> MethodStats {
        self.methods.get(name).copied().unwrap_or_default()
    }

    /// `(method, stats)` rows in deterministic (sorted) order.
    pub fn methods(&self) -> impl Iterator<Item = (&'static str, MethodStats)> + '_ {
        self.methods.iter().map(|(n, s)| (*n, *s))
    }

    /// Total requests across all methods.
    pub fn total_calls(&self) -> u64 {
        self.methods.values().map(|s| s.calls).sum()
    }

    /// Total transport/node errors across all methods.
    pub fn total_errors(&self) -> u64 {
        self.methods.values().map(|s| s.errors).sum()
    }

    /// Total virtual time priced across all methods.
    pub fn total_cost(&self) -> SimDuration {
        self.methods
            .values()
            .fold(SimDuration::ZERO, |acc, s| acc.saturating_add(s.cost))
    }

    fn record(&mut self, method: &'static str, cost: SimDuration, is_error: bool) {
        let stats = self.methods.entry(method).or_default();
        stats.calls += 1;
        stats.errors += is_error as u64;
        stats.cost = stats.cost.saturating_add(cost);
    }

    /// Adds another snapshot's counters into this one — how a
    /// [`ProviderPool`](crate::pool::ProviderPool) rolls per-endpoint
    /// metering up into run-level totals.
    pub fn absorb(&mut self, other: &ProviderMetrics) {
        for (name, stats) in other.methods.iter() {
            let mine = self.methods.entry(name).or_default();
            mine.calls += stats.calls;
            mine.errors += stats.errors;
            mine.cost = mine.cost.saturating_add(stats.cost);
        }
        self.round_trips += other.round_trips;
    }
}

/// Counts calls, errors, round trips, and virtual-time totals per method —
/// what `SessionReport` surfaces so a session can say "this run made 41
/// provider round trips costing 4.2 virtual seconds".
#[derive(Default)]
pub struct Meter {
    metrics: ProviderMetrics,
}

impl Meter {
    /// The counters observed so far.
    pub fn snapshot(&self) -> ProviderMetrics {
        self.metrics.clone()
    }
}

impl Layer for Meter {
    fn batch<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        requests: &[RpcRequest],
    ) -> Vec<RpcResponse> {
        let responses = inner.batch(requests);
        self.metrics.round_trips += 1;
        for (request, response) in requests.iter().zip(&responses) {
            self.metrics.record(
                request.method.name(),
                response.cost,
                response.result.is_err(),
            );
        }
        responses
    }

    fn add<P: NodeProvider>(
        &mut self,
        inner: &mut P,
        node: usize,
        data: &[u8],
    ) -> Billed<AddResult> {
        let billed = inner.add(node, data);
        self.metrics.round_trips += 1;
        self.metrics.record("ipfs_add", billed.cost, false);
        billed
    }

    fn cat<P: NodeProvider>(&mut self, inner: &mut P, node: usize, cid: &Cid) -> CatResult {
        let billed = inner.cat(node, cid);
        self.metrics.round_trips += 1;
        self.metrics
            .record("ipfs_cat", billed.cost, billed.value.is_err());
        billed
    }

    fn pin<P: NodeProvider>(&mut self, inner: &mut P, node: usize, cid: &Cid) -> PinResult {
        let billed = inner.pin(node, cid);
        self.metrics.round_trips += 1;
        self.metrics
            .record("ipfs_pin", billed.cost, billed.value.is_err());
        billed
    }

    fn metrics<P: NodeProvider>(&self, _inner: &P) -> Option<ProviderMetrics> {
        Some(self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{RpcMethod, RpcResult};
    use crate::sim::SimProvider;
    use ofl_eth::chain::{Chain, ChainConfig};
    use ofl_primitives::H160;

    fn stack(
        faults: Option<FaultProfile>,
    ) -> Layered<Meter, Layered<Latency, Layered<Flaky, SimProvider>>> {
        let addr = H160::from_slice(&[1; 20]);
        let chain = Chain::new(
            ChainConfig::default(),
            &[(addr, ofl_primitives::wei_per_eth())],
        );
        let sim = SimProvider::new(chain, Swarm::spawn("d", 2));
        let flaky = Flaky::new(faults.unwrap_or(FaultProfile::new(0, 0.0)));
        Layered::new(
            Meter::default(),
            Layered::new(
                Latency::new(NetworkProfile::campus(), 250),
                Layered::new(flaky, sim),
            ),
        )
    }

    fn receipt_poll_batch(n: u64) -> Vec<RpcRequest> {
        (0..n)
            .map(|i| {
                RpcRequest::new(
                    i,
                    RpcMethod::GetTransactionReceipt {
                        hash: ofl_primitives::H256::from_bytes([i as u8; 32]),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn latency_prices_requests_and_caller_keeps_the_bill() {
        let mut provider = stack(None);
        let billed = provider.block_number();
        assert_eq!(billed.value.unwrap(), 0);
        // Campus RPC: two 50 ms legs plus serialization.
        assert!(billed.cost >= SimDuration::from_millis(100));
        assert!(billed.cost < SimDuration::from_millis(200));
    }

    #[test]
    fn batched_polls_cost_one_round_trip() {
        let mut per_call = stack(None);
        let mut batched = stack(None);
        let requests = receipt_poll_batch(16);

        let per_call_cost: SimDuration = requests
            .iter()
            .map(|r| per_call.execute(r).cost)
            .fold(SimDuration::ZERO, SimDuration::saturating_add);
        let batch_cost: SimDuration = batched
            .batch(&requests)
            .iter()
            .map(|r| r.cost)
            .fold(SimDuration::ZERO, SimDuration::saturating_add);

        // 16 polls: ~16 round trips of latency vs 1.
        assert!(batch_cost.as_secs_f64() * 8.0 < per_call_cost.as_secs_f64());
        let per_metrics = per_call.layer.snapshot();
        let batch_metrics = batched.layer.snapshot();
        assert_eq!(per_metrics.round_trips, 16);
        assert_eq!(batch_metrics.round_trips, 1);
        assert_eq!(batch_metrics.method("eth_getTransactionReceipt").calls, 16);
    }

    #[test]
    fn flaky_drops_are_deterministic_by_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let mut provider = stack(Some(FaultProfile::new(seed, 0.4)));
            (0..50)
                .map(|_| provider.block_number().value.is_err())
                .collect()
        };
        let a = outcomes(7);
        assert_eq!(a, outcomes(7), "equal seeds must fault identically");
        assert_ne!(a, outcomes(8), "different seeds should differ");
        assert!(a.iter().any(|e| *e), "40% drop rate must drop something");
        assert!(!a.iter().all(|e| *e), "and must not drop everything");
    }

    #[test]
    fn dropped_requests_cost_the_timeout_and_are_metered_as_errors() {
        // drop_rate 1.0: everything times out.
        let mut provider = stack(Some(FaultProfile::new(1, 1.0)));
        let billed = provider.block_number();
        assert_eq!(billed.value, Err(RpcError::Timeout));
        // Timeout plus the latency pricing of the attempt.
        assert!(billed.cost >= SimDuration::from_secs(3));
        // A dropped batch times out as a unit.
        let responses = provider.batch(&receipt_poll_batch(4));
        assert!(responses.iter().all(|r| r.result.is_err()));
        let metrics = provider.layer.snapshot();
        assert_eq!(metrics.total_errors(), 5);
        assert_eq!(metrics.method("eth_blockNumber").errors, 1);
    }

    #[test]
    fn ipfs_traffic_is_priced_but_never_dropped() {
        let mut provider = stack(Some(FaultProfile::new(3, 1.0)));
        let added = provider.add(0, &vec![7u8; 100_000]);
        assert!(added.cost > SimDuration::ZERO);
        let fetched = provider.cat(1, &added.value.root);
        assert!(fetched.value.is_ok(), "flakiness must not affect the LAN");
        let metrics = provider.layer.snapshot();
        assert_eq!(metrics.method("ipfs_add").calls, 1);
        assert_eq!(metrics.method("ipfs_cat").calls, 1);
        assert!(metrics.total_cost() > SimDuration::ZERO);
    }

    #[test]
    fn rate_limit_throttles_over_budget_then_renews_behind_backoff() {
        let addr = H160::from_slice(&[1; 20]);
        let chain = Chain::new(
            ChainConfig::default(),
            &[(addr, ofl_primitives::wei_per_eth())],
        );
        let profile = RateLimitProfile::new(5, 3);
        // No jitter span randomness matters here: allowance ∈ [3, 4).
        let mut provider = Layered::new(
            RateLimit::new(profile),
            SimProvider::new(chain, Swarm::new()),
        );
        let mut outcomes = Vec::new();
        for _ in 0..10 {
            outcomes.push(provider.block_number().value.is_err());
        }
        assert!(outcomes.iter().any(|e| *e), "budget of 3 must throttle");
        assert!(!outcomes.iter().all(|e| *e), "renewed windows must pass");
        assert!(provider.layer.limited > 0);
        // The refusal itself carries the back-off as its priced cost.
        let mut fresh = Layered::new(RateLimit::new(profile), {
            let chain = Chain::new(
                ChainConfig::default(),
                &[(addr, ofl_primitives::wei_per_eth())],
            );
            SimProvider::new(chain, Swarm::new())
        });
        let refused = loop {
            let billed = fresh.block_number();
            if billed.value.is_err() {
                break billed;
            }
        };
        assert_eq!(refused.value, Err(RpcError::RateLimited));
        assert_eq!(refused.cost, SimDuration::from_secs(1));
        // After the refusal the window renewed: the retry goes through.
        assert!(fresh.block_number().value.is_ok());
    }

    #[test]
    fn rate_limit_is_deterministic_by_seed_and_resets_per_slot() {
        let run = |seed: u64, slot_every: usize| -> Vec<bool> {
            let addr = H160::from_slice(&[1; 20]);
            let chain = Chain::new(
                ChainConfig::default(),
                &[(addr, ofl_primitives::wei_per_eth())],
            );
            let mut provider = Layered::new(
                RateLimit::new(RateLimitProfile::new(seed, 4)),
                SimProvider::new(chain, Swarm::new()),
            );
            (0..40)
                .map(|i| {
                    if slot_every > 0 && i % slot_every == 0 {
                        provider.on_slot();
                    }
                    provider.block_number().value.is_err()
                })
                .collect()
        };
        let a = run(9, 0);
        assert_eq!(a, run(9, 0), "equal seeds must throttle identically");
        assert_ne!(a, run(10, 0), "different seeds should differ");
        // Frequent slot boundaries renew the budget before it runs out.
        assert!(run(9, 3).iter().all(|e| !e), "renewed windows never 429");
    }

    #[test]
    fn batch_preserves_result_shapes() {
        let mut provider = stack(None);
        let requests = vec![
            RpcRequest::new(0, RpcMethod::BlockNumber),
            RpcRequest::new(
                1,
                RpcMethod::GetBalance {
                    address: H160::from_slice(&[1; 20]),
                },
            ),
        ];
        let responses = provider.batch(&requests);
        assert!(matches!(responses[0].result, Ok(RpcResult::BlockNumber(_))));
        assert!(matches!(responses[1].result, Ok(RpcResult::Balance(_))));
    }

    fn funded_sim() -> (SimProvider, ofl_eth::wallet::Wallet) {
        let wallet = ofl_eth::wallet::Wallet::from_seed("stale", 2);
        let genesis: Vec<_> = wallet
            .addresses()
            .iter()
            .map(|a| (*a, ofl_primitives::wei_per_eth()))
            .collect();
        let chain = Chain::new(ChainConfig::default(), &genesis);
        (SimProvider::new(chain, Swarm::new()), wallet)
    }

    #[test]
    fn stale_reads_lag_head_and_hide_fresh_receipts_deterministically() {
        let run = |seed: u64| {
            let (sim, wallet) = funded_sim();
            let [a, b]: [H160; 2] = wallet.addresses().try_into().unwrap();
            let mut provider = Layered::new(StaleRead::new(StaleProfile::new(seed, 3)), sim);
            let raw = wallet
                .sign_raw(
                    provider.chain(),
                    &a,
                    Some(b),
                    ofl_primitives::u256::U256::ONE,
                    vec![],
                )
                .unwrap();
            let hash = provider.send_raw_transaction(&raw).value.unwrap();
            provider.chain_mut().mine_block(12);
            // The canonical head is 1, but the replica may be behind: some
            // of the next reads are lagged / hidden, none ever run ahead.
            let mut outcomes = Vec::new();
            for _ in 0..24 {
                let head = provider.block_number().value.unwrap();
                assert!(head <= 1);
                let receipt = provider.get_transaction_receipt(hash).value.unwrap();
                if let Some(r) = &receipt {
                    assert_eq!(r.block_number, 1);
                }
                outcomes.push((head, receipt.is_some()));
            }
            (outcomes, provider.layer.served_stale)
        };
        let (a, stale_a) = run(5);
        assert!(stale_a > 0, "a 3-slot lag must degrade something");
        assert!(
            a.iter().any(|(head, seen)| *head == 1 && *seen),
            "fresh reads must also occur"
        );
        // Deterministic by seed; different seeds draw different lags.
        assert_eq!(a, run(5).0);
        assert_ne!(a, run(6).0);
    }

    #[test]
    fn stale_receipts_become_visible_once_the_head_outruns_the_lag() {
        let (sim, wallet) = funded_sim();
        let [a, b]: [H160; 2] = wallet.addresses().try_into().unwrap();
        let mut provider = Layered::new(StaleRead::new(StaleProfile::new(7, 2)), sim);
        let raw = wallet
            .sign_raw(
                provider.chain(),
                &a,
                Some(b),
                ofl_primitives::u256::U256::ONE,
                vec![],
            )
            .unwrap();
        let hash = provider.send_raw_transaction(&raw).value.unwrap();
        provider.chain_mut().mine_block(12);
        // Mine past the maximum lag: even the most stale replica view now
        // includes block 1, so the receipt can never be hidden again.
        for slot in 2..=4 {
            provider.chain_mut().mine_block(12 * slot);
        }
        for _ in 0..8 {
            assert!(provider
                .get_transaction_receipt(hash)
                .value
                .unwrap()
                .is_some());
        }
    }

    #[test]
    fn latency_spikes_stall_whole_slots_deterministically() {
        let run = |seed: u64| -> Vec<SimDuration> {
            let addr = H160::from_slice(&[1; 20]);
            let chain = Chain::new(
                ChainConfig::default(),
                &[(addr, ofl_primitives::wei_per_eth())],
            );
            let mut provider = Layered::new(
                Spike::new(SpikeProfile::new(seed, 0.4)),
                SimProvider::new(chain, Swarm::new()),
            );
            // Two requests per slot across 20 slots: both see the same
            // window, because spikes are per-slot, not per-request.
            let mut costs = Vec::new();
            for _ in 0..20 {
                let first = provider.block_number().cost;
                assert_eq!(first, provider.block_number().cost);
                costs.push(first);
                provider.on_slot();
            }
            costs
        };
        let a = run(11);
        assert_eq!(a, run(11), "equal seeds must stall identically");
        assert_ne!(a, run(12), "different seeds should differ");
        let stall = SpikeProfile::STALL;
        assert!(
            a.iter().any(|c| *c >= stall),
            "a 40% spike rate must stall something"
        );
        assert!(
            a.iter().any(|c| *c < stall),
            "and must leave healthy slots between spikes"
        );
    }

    #[test]
    fn spiked_batches_pay_the_stall_once() {
        let addr = H160::from_slice(&[1; 20]);
        let chain = Chain::new(
            ChainConfig::default(),
            &[(addr, ofl_primitives::wei_per_eth())],
        );
        // spike_rate 1.0: every slot stalls, including the first.
        let mut provider = Layered::new(
            Spike::new(SpikeProfile::new(3, 1.0)),
            SimProvider::new(chain, Swarm::new()),
        );
        assert!(provider.layer.is_stalled());
        let responses = provider.batch(&receipt_poll_batch(4));
        assert!(responses[0].cost >= SpikeProfile::STALL);
        assert!(responses[1..].iter().all(|r| r.cost == SimDuration::ZERO));
        assert_eq!(
            provider.layer.stalled, 1,
            "one batch = one stalled exchange"
        );
    }

    #[test]
    fn reordered_batches_keep_tags_and_shuffle_deterministically() {
        let run = |seed: u64| -> Vec<Vec<u64>> {
            let addr = H160::from_slice(&[1; 20]);
            let chain = Chain::new(
                ChainConfig::default(),
                &[(addr, ofl_primitives::wei_per_eth())],
            );
            let mut provider = Layered::new(
                Reorder::new(ReorderProfile::new(seed)),
                SimProvider::new(chain, Swarm::new()),
            );
            (0..6)
                .map(|_| {
                    provider
                        .batch(&receipt_poll_batch(8))
                        .iter()
                        .map(|r| r.id)
                        .collect()
                })
                .collect()
        };
        let a = run(21);
        assert_eq!(a, run(21), "equal seeds must shuffle identically");
        assert_ne!(a, run(22), "different seeds should differ");
        // Every batch still answers every tag exactly once.
        for ids in &a {
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<u64>>());
        }
        // And at least one of the six 8-element batches left identity
        // order behind (the odds of six identity draws are ~1 in 10^27).
        assert!(a.iter().any(|ids| *ids != (0..8).collect::<Vec<u64>>()));
    }

    #[test]
    fn sub_lag_delays_deliveries_deterministically_and_releases_in_order() {
        use crate::sub::{SubEvent, SubscriptionKind};
        let run = |seed: u64| -> Vec<Vec<(u64, u64)>> {
            let (sim, wallet) = funded_sim();
            let [a, b]: [H160; 2] = wallet.addresses().try_into().unwrap();
            let mut provider = Layered::new(SubLag::new(SubLagProfile::new(seed, 3)), sim);
            let heads = provider.subscribe(SubscriptionKind::NewHeads);
            let pending = provider.subscribe(SubscriptionKind::PendingTxs);
            assert_eq!((heads, pending), (1, 2));
            // Two slots of traffic (tx + block each), then idle slots so
            // every lagged delivery has time to release; drain each slot.
            let mut per_slot = Vec::new();
            for slot in 0..8u64 {
                if slot < 2 {
                    let raw = wallet
                        .sign_raw(
                            provider.chain(),
                            &a,
                            Some(b),
                            ofl_primitives::u256::U256::from(1u64),
                            vec![],
                        )
                        .unwrap();
                    provider.send_raw_transaction(&raw).value.unwrap();
                    provider.chain_mut().mine_block(12 * (slot + 1));
                }
                provider.on_slot();
                per_slot.push(
                    provider
                        .drain_notifications()
                        .iter()
                        .map(|n| (n.sub_id, n.seq))
                        .collect(),
                );
            }
            per_slot
        };
        let a = run(31);
        assert_eq!(a, run(31), "equal seeds must lag identically");
        // Everything eventually arrives exactly once, and per subscription
        // the seq order is preserved (a fixed per-sub lag cannot reorder
        // within one subscription).
        let all: Vec<(u64, u64)> = a.iter().flatten().copied().collect();
        assert_eq!(all.len(), 4, "2 pending + 2 heads must all arrive");
        for sub in [1u64, 2] {
            let seqs: Vec<u64> = all
                .iter()
                .filter(|(s, _)| *s == sub)
                .map(|(_, q)| *q)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted);
        }
        // With max lag 0 the layer is a transparent pass-through.
        let (sim, wallet) = funded_sim();
        let [a_addr, b_addr]: [H160; 2] = wallet.addresses().try_into().unwrap();
        let mut clear = Layered::new(SubLag::new(SubLagProfile::new(9, 0)), sim);
        clear.subscribe(SubscriptionKind::PendingTxs);
        let raw = wallet
            .sign_raw(
                clear.chain(),
                &a_addr,
                Some(b_addr),
                ofl_primitives::u256::U256::ONE,
                vec![],
            )
            .unwrap();
        clear.send_raw_transaction(&raw).value.unwrap();
        let notes = clear.drain_notifications();
        assert_eq!(notes.len(), 1);
        assert!(matches!(notes[0].event, SubEvent::PendingTx(_)));
        assert_eq!(clear.layer.delayed, 0);
        assert_eq!(clear.layer.held_back(), 0);
    }

    #[test]
    fn tag_matching_undoes_a_reordering_endpoint() {
        let addr = H160::from_slice(&[1; 20]);
        let chain = Chain::new(
            ChainConfig::default(),
            &[(addr, ofl_primitives::wei_per_eth())],
        );
        let mut provider = Layered::new(
            Reorder::new(ReorderProfile::new(7)),
            SimProvider::new(chain, Swarm::new()),
        );
        let requests = vec![
            RpcRequest::new(0, RpcMethod::BlockNumber),
            RpcRequest::new(1, RpcMethod::GetBalance { address: addr }),
            RpcRequest::new(2, RpcMethod::ChainId),
        ];
        for _ in 0..8 {
            let matched = crate::envelope::match_to_requests(&requests, provider.batch(&requests));
            // Whatever order the wire delivered, tags restore request
            // order and each slot holds its own method's result shape.
            assert!(matches!(matched[0].result, Ok(RpcResult::BlockNumber(_))));
            assert!(matches!(matched[1].result, Ok(RpcResult::Balance(_))));
            assert!(matches!(matched[2].result, Ok(RpcResult::ChainId(_))));
        }
    }
}
