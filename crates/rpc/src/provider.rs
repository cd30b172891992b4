//! [`NodeProvider`]: the full node boundary behind one [`EndpointId`] of a
//! [`ProviderPool`] — both API traits plus backend access for the
//! simulation driver itself.
//!
//! The API traits model what a *client* can do over the wire. The
//! simulation additionally owns the infrastructure: it mines slots, checks
//! conservation invariants, and injects failures (garbage-collecting a
//! peer's blocks, say). Those backstage operations go through the
//! `chain`/`swarm` accessors, which every [`Layered`] provider layer
//! forwards down to the innermost [`SimProvider`].
//!
//! [`EndpointId`]: crate::pool::EndpointId
//! [`ProviderPool`]: crate::pool::ProviderPool

use crate::backstage::{BackstageOp, BackstageReply};
use crate::decorators::{
    FaultProfile, Flaky, Latency, Layered, Meter, ProviderMetrics, RateLimit, RateLimitProfile,
    Reorder, ReorderProfile, Spike, SpikeProfile, StaleProfile, StaleRead, SubLag, SubLagProfile,
};
use crate::envelope::{RpcError, RpcRequest, RpcResponse};
use crate::eth::EthApi;
use crate::ipfs::IpfsApi;
use crate::sim::SimProvider;
use crate::sub::{Notification, SubscriptionKind};
use crate::Billed;
use ofl_eth::chain::Chain;
use ofl_ipfs::cid::Cid;
use ofl_ipfs::swarm::{AddResult, FetchStats, IpfsError, Swarm};
use ofl_netsim::link::NetworkProfile;

/// Everything a world needs from one node endpoint: the client-visible API
/// surface plus backstage access to the simulated infrastructure.
///
/// Providers are `Send` so a sharded world can hand each endpoint's whole
/// stack to a per-shard worker thread between slot barriers (see
/// [`ofl_netsim::par`]).
pub trait NodeProvider: EthApi + IpfsApi + Send {
    /// The backing chain (backstage: mining, invariant checks).
    fn chain(&self) -> &Chain;
    /// Mutable backing chain (backstage: slot production).
    fn chain_mut(&mut self) -> &mut Chain;
    /// The backing swarm (backstage: availability checks).
    fn swarm(&self) -> &Swarm;
    /// Mutable backing swarm (backstage: failure injection).
    fn swarm_mut(&mut self) -> &mut Swarm;
    /// Metering snapshot, when a [`Meter`] layer is in the stack.
    fn metrics(&self) -> Option<ProviderMetrics> {
        None
    }
    /// Backstage slot-boundary notification: the world calls this when a
    /// 12-second slot elapses so window-based decorators (rate limiting)
    /// can reset. Decorators forward it down the stack.
    fn on_slot(&mut self) {}
    /// Answers one [`BackstageOp`] — the simulator's side channel (mining,
    /// invariant reads, failure injection) as a value instead of a
    /// reference, so it can cross a process boundary. The default answers
    /// locally via the `chain`/`swarm` accessors; decorators forward it
    /// untouched (backstage traffic is never priced, faulted, or metered),
    /// and [`SocketProvider`](crate::SocketProvider) ships it to the
    /// daemon as one frame.
    fn backstage(&mut self, op: &BackstageOp) -> BackstageReply {
        crate::backstage::dispatch_local(self, op)
    }
    /// Opens a push subscription on this endpoint's backend, returning its
    /// id (monotonic per backend, starting at 1). Decorators forward the
    /// call down the stack untouched, so the id is assigned by the
    /// innermost backend — in-process and remote stacks hand out the same
    /// ids for the same subscribe sequence.
    fn subscribe(&mut self, kind: SubscriptionKind) -> u64;
    /// Cancels a subscription; `false` when the id was unknown.
    fn unsubscribe(&mut self, sub_id: u64) -> bool;
    /// Takes every notification published since the last drain, in the
    /// hub's deterministic delivery order (publish order, fan-out within
    /// an event in subscription-id order). The caller — the world's slot
    /// pump — is responsible for draining at slot boundaries.
    fn drain_notifications(&mut self) -> Vec<Notification>;
}

/// Forwarding impls so decorator stacks can be assembled layer by layer
/// over `Box<dyn NodeProvider>` without knowing the concrete type below.
impl EthApi for Box<dyn NodeProvider> {
    fn execute(&mut self, request: &RpcRequest) -> RpcResponse {
        (**self).execute(request)
    }
    fn batch(&mut self, requests: &[RpcRequest]) -> Vec<RpcResponse> {
        (**self).batch(requests)
    }
}

impl IpfsApi for Box<dyn NodeProvider> {
    fn add(&mut self, node: usize, data: &[u8]) -> Billed<AddResult> {
        (**self).add(node, data)
    }
    fn cat(&mut self, node: usize, cid: &Cid) -> Billed<Result<(Vec<u8>, FetchStats), IpfsError>> {
        (**self).cat(node, cid)
    }
    fn pin(&mut self, node: usize, cid: &Cid) -> Billed<Result<(), IpfsError>> {
        (**self).pin(node, cid)
    }
}

impl NodeProvider for Box<dyn NodeProvider> {
    fn chain(&self) -> &Chain {
        (**self).chain()
    }
    fn chain_mut(&mut self) -> &mut Chain {
        (**self).chain_mut()
    }
    fn swarm(&self) -> &Swarm {
        (**self).swarm()
    }
    fn swarm_mut(&mut self) -> &mut Swarm {
        (**self).swarm_mut()
    }
    fn metrics(&self) -> Option<ProviderMetrics> {
        (**self).metrics()
    }
    fn on_slot(&mut self) {
        (**self).on_slot()
    }
    fn backstage(&mut self, op: &BackstageOp) -> BackstageReply {
        (**self).backstage(op)
    }
    fn subscribe(&mut self, kind: SubscriptionKind) -> u64 {
        (**self).subscribe(kind)
    }
    fn unsubscribe(&mut self, sub_id: u64) -> bool {
        (**self).unsubscribe(sub_id)
    }
    fn drain_notifications(&mut self) -> Vec<Notification> {
        (**self).drain_notifications()
    }
}

/// The per-endpoint decorator knobs shared by the in-process and remote
/// stack builders: seeded fault injection, request quotas, and lagging
/// replica reads (`None` everywhere = a clean, reliable endpoint).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndpointFaults {
    /// Seeded RPC drop injection.
    pub faults: Option<FaultProfile>,
    /// Seeded per-slot request quota (429s past it).
    pub rate_limit: Option<RateLimitProfile>,
    /// Seeded lagging-replica reads (head and receipts served late).
    pub stale: Option<StaleProfile>,
    /// Seeded slot-long latency spikes (every exchange stalls while live).
    pub spike: Option<SpikeProfile>,
    /// Seeded shuffling of batch reply arrays (tags preserved).
    pub reorder: Option<ReorderProfile>,
    /// Seeded per-subscription push-delivery lag.
    pub sub_lag: Option<SubLagProfile>,
}

/// Wraps any backend with the standard stack of [`Layered`] provider
/// layers: (optionally) push-delivery lag over (optionally) batch
/// reordering over metering over latency pricing over (optionally) latency
/// spikes over (optionally) rate limiting over (optionally) fault injection
/// over (optionally) stale replica reads. Stale reads sit innermost so
/// their head queries hit the backend directly without disturbing the
/// fault layers' seeded draws; reordering sits above metering because it
/// models the wire delivering a batch reply out of order, after pricing
/// and metering saw it in request order; push lag wraps everything.
pub fn decorate(
    backend: Box<dyn NodeProvider>,
    profile: NetworkProfile,
    envelope_bytes: u64,
    knobs: EndpointFaults,
) -> Box<dyn NodeProvider> {
    let mut stack = backend;
    if let Some(stale) = knobs.stale {
        stack = Box::new(Layered::new(StaleRead::new(stale), stack));
    }
    if let Some(faults) = knobs.faults {
        stack = Box::new(Layered::new(Flaky::new(faults), stack));
    }
    if let Some(rate_limit) = knobs.rate_limit {
        stack = Box::new(Layered::new(RateLimit::new(rate_limit), stack));
    }
    if let Some(spike) = knobs.spike {
        stack = Box::new(Layered::new(Spike::new(spike), stack));
    }
    let mut stack: Box<dyn NodeProvider> = Box::new(Layered::new(
        Meter::default(),
        Layered::new(Latency::new(profile, envelope_bytes), stack),
    ));
    if let Some(reorder) = knobs.reorder {
        stack = Box::new(Layered::new(Reorder::new(reorder), stack));
    }
    // Sub-lag models the wire delivering pushes late, so it wraps the
    // whole stack — notifications are delayed after every other layer has
    // seen them.
    if let Some(sub_lag) = knobs.sub_lag {
        stack = Box::new(Layered::new(SubLag::new(sub_lag), stack));
    }
    stack
}

/// Builds the standard decorator stack around an in-process backend.
pub fn build_provider(
    chain: Chain,
    swarm: Swarm,
    profile: NetworkProfile,
    envelope_bytes: u64,
    knobs: EndpointFaults,
) -> Box<dyn NodeProvider> {
    decorate(
        Box::new(SimProvider::new(chain, swarm)),
        profile,
        envelope_bytes,
        knobs,
    )
}

/// Errors whose failures are worth retrying at the client layer.
pub trait Retryable {
    /// True when the failure is transient (a timeout, or a 429 whose
    /// priced back-off has elapsed) rather than a hard rejection.
    fn is_transient(&self) -> bool;
}

impl Retryable for RpcError {
    fn is_transient(&self) -> bool {
        matches!(self, RpcError::Timeout | RpcError::RateLimited)
    }
}

impl Retryable for crate::bindings::BindingError {
    fn is_transient(&self) -> bool {
        matches!(
            self,
            crate::bindings::BindingError::Rpc(RpcError::Timeout)
                | crate::bindings::BindingError::Rpc(RpcError::RateLimited)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backstage::{BackstageOp, BackstageReply};
    use ofl_eth::chain::ChainConfig;
    use ofl_primitives::H160;

    fn backend() -> Box<dyn NodeProvider> {
        let chain = Chain::new(
            ChainConfig::default(),
            &[(H160::from_slice(&[1; 20]), ofl_primitives::wei_per_eth())],
        );
        Box::new(SimProvider::new(chain, Swarm::spawn("full", 3)))
    }

    #[test]
    fn full_stack_forwards_backstage_and_subscriptions_to_the_backend() {
        let every_knob = EndpointFaults {
            faults: Some(FaultProfile::new(1, 0.2)),
            rate_limit: Some(RateLimitProfile::new(2, 8)),
            stale: Some(StaleProfile::new(3, 2)),
            spike: Some(SpikeProfile::new(4, 0.3)),
            reorder: Some(ReorderProfile::new(5)),
            sub_lag: Some(SubLagProfile::new(6, 2)),
        };
        let mut stack = decorate(backend(), NetworkProfile::campus(), 250, every_knob);
        let mut bare = backend();

        // Backstage traffic and the accessors reach the innermost backend.
        assert!(matches!(
            stack.backstage(&BackstageOp::MineSlot { slot_secs: 12 }),
            BackstageReply::Mined(_)
        ));
        assert!(matches!(
            stack.backstage(&BackstageOp::Height),
            BackstageReply::Height(1)
        ));
        assert_eq!(stack.chain().height(), 1);
        assert_eq!(stack.swarm().len(), 3);

        // Subscription ids are assigned by the backend, exactly as bare.
        let kinds = [
            SubscriptionKind::NewHeads,
            SubscriptionKind::PendingTxs,
            SubscriptionKind::NewHeads,
        ];
        let ids: Vec<u64> = kinds.iter().map(|k| stack.subscribe(k.clone())).collect();
        let bare_ids: Vec<u64> = kinds.iter().map(|k| bare.subscribe(k.clone())).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(ids, bare_ids);
        assert!(stack.unsubscribe(2));
        assert!(!stack.unsubscribe(2));

        // The meter sits inside the reorder and sub-lag layers, yet its
        // snapshot still surfaces through the whole stack.
        assert!(stack.metrics().is_some());
        assert!(bare.metrics().is_none());
    }
}
