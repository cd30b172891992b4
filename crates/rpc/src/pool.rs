//! [`ProviderPool`]: N independent node endpoints behind one handle — the
//! sharded substrate a multi-market world runs on.
//!
//! Each endpoint is a full [`NodeProvider`] stack (its own chain, swarm,
//! and decorators), addressed by [`EndpointId`]. Markets are *placed* on an
//! endpoint and all of their client traffic — contract calls, transaction
//! broadcasts, receipt polls, IPFS transfers — flows through that endpoint
//! alone, so two markets on different shards contend for different blocks
//! while two markets on the same shard share a mempool exactly as a
//! single-endpoint world would.
//!
//! The pool adds three things on top of per-endpoint access:
//!
//! - [`ProviderPool::fork_endpoints`]: the one fork/join over endpoints —
//!   per-endpoint work groups on parallel workers, each group in order on
//!   its endpoint. Everything below that spans shards runs on it, and so
//!   does the engine's same-instant step batch.
//! - [`ProviderPool::batch`]: a tagged fan-out — requests addressed to
//!   several endpoints are grouped and each group travels as **one** wire
//!   round trip to its endpoint, with responses scattered back in request
//!   order. This is how the engine polls every pending receipt across all
//!   shards in one pass.
//! - Metrics rollup: [`ProviderPool::metrics_per_endpoint`] exposes each
//!   endpoint's [`Meter`](crate::decorators::Meter) layer snapshot and [`ProviderPool::metrics_merged`] absorbs them into one
//!   run-level [`ProviderMetrics`].

use crate::backstage::{BackstageOp, BackstageReply};
use crate::decorators::ProviderMetrics;
use crate::envelope::{RpcRequest, RpcResponse};
use crate::provider::NodeProvider;
use crate::sub::Notification;
use ofl_netsim::par::fork_join_mut;

/// Addresses one endpoint (shard) of a [`ProviderPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EndpointId(pub usize);

impl core::fmt::Display for EndpointId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// N node endpoints, one handle. See the module docs.
pub struct ProviderPool {
    endpoints: Vec<Box<dyn NodeProvider>>,
}

impl ProviderPool {
    /// Builds a pool from at least one endpoint stack; endpoint `i` answers
    /// to `EndpointId(i)`.
    pub fn new(endpoints: Vec<Box<dyn NodeProvider>>) -> ProviderPool {
        assert!(!endpoints.is_empty(), "a pool needs at least one endpoint");
        ProviderPool { endpoints }
    }

    /// How many endpoints the pool fronts.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True only for a pool that lost its endpoints (impossible by
    /// construction; present for the usual `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Every valid id, in order.
    pub fn endpoint_ids(&self) -> impl Iterator<Item = EndpointId> {
        (0..self.endpoints.len()).map(EndpointId)
    }

    /// Mutable access to one endpoint's provider stack.
    pub fn endpoint(&mut self, id: EndpointId) -> &mut dyn NodeProvider {
        &mut *self.endpoints[id.0]
    }

    /// Shared access to one endpoint's provider stack.
    pub fn get(&self, id: EndpointId) -> &dyn NodeProvider {
        &*self.endpoints[id.0]
    }

    /// The pool's one fork/join: runs `f` once per `(endpoint, group)` pair
    /// — groups name distinct endpoints in ascending order — with the
    /// endpoint's stack borrowed exclusively, and returns the results in
    /// `groups` order. Endpoints are independent shards, so their groups
    /// run on parallel [`fork_join_mut`] workers; whatever a group does
    /// runs in order on one worker, so each endpoint sees the call sequence
    /// a serial loop would make. Trace context is the caller's to set
    /// inside `f`.
    pub fn fork_endpoints<T, R, F>(&mut self, groups: Vec<(EndpointId, T)>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(EndpointId, &mut dyn NodeProvider, &mut T) -> R + Sync,
    {
        let mut groups = groups.into_iter().peekable();
        let mut work: Vec<(EndpointId, &mut dyn NodeProvider, T)> = Vec::new();
        for (i, endpoint) in self.endpoints.iter_mut().enumerate() {
            if let Some((id, group)) = groups.next_if(|(id, _)| id.0 == i) {
                work.push((id, &mut **endpoint, group));
            }
        }
        assert!(
            groups.next().is_none(),
            "groups name distinct endpoints in ascending order"
        );
        fork_join_mut(&mut work, |_, (id, endpoint, group)| {
            f(*id, &mut **endpoint, group)
        })
    }

    /// Tagged batch fan-out: groups `requests` by endpoint (preserving each
    /// endpoint's request order), sends each group as **one** batched round
    /// trip, and scatters the responses back into request order. Batch
    /// costs ride on the first response of each endpoint's group, exactly
    /// as a single-endpoint [`EthApi::batch`](crate::eth::EthApi::batch).
    ///
    /// The groups run through [`ProviderPool::fork_endpoints`]; the scatter
    /// is by recorded request index, so response order — and therefore
    /// every digest downstream — is identical to the serial fan-out.
    pub fn batch(&mut self, requests: &[(EndpointId, RpcRequest)]) -> Vec<RpcResponse> {
        let mut indices: Vec<Vec<usize>> = vec![Vec::new(); self.endpoints.len()];
        for (i, (ep, _)) in requests.iter().enumerate() {
            indices[ep.0].push(i);
        }
        let groups: Vec<(EndpointId, Vec<RpcRequest>)> = indices
            .iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .map(|(id, group)| {
                let requests = group.iter().map(|&i| requests[i].1.clone()).collect();
                (EndpointId(id), requests)
            })
            .collect();
        // Each worker re-pairs its endpoint's reply array by correlation
        // tag, so a reordering endpoint still scatters correct answers.
        // Trace events inside the fan-out attribute to the *endpoint's*
        // stable source id at the caller's virtual time, so serial and
        // parallel executors emit identical traces.
        let vtime = ofl_trace::vtime();
        let answers = self.fork_endpoints(groups, |id, endpoint, group| {
            let _src = ofl_trace::source_scope(1 + id.0 as u32, vtime);
            let responses = endpoint.batch(group);
            crate::envelope::match_to_requests(group, responses)
        });
        let mut responses: Vec<Option<RpcResponse>> = (0..requests.len()).map(|_| None).collect();
        let busy = indices.iter().filter(|group| !group.is_empty());
        for (group, group_answers) in busy.zip(answers) {
            for (&i, answer) in group.iter().zip(group_answers) {
                responses[i] = Some(answer);
            }
        }
        responses
            .into_iter()
            .map(|r| r.expect("every request answered by its endpoint"))
            .collect()
    }

    /// Backstage slot-boundary notification to every endpoint (rate-limit
    /// windows renew, etc.).
    pub fn on_slot(&mut self) {
        let vtime = ofl_trace::vtime();
        for (i, endpoint) in self.endpoints.iter_mut().enumerate() {
            let _src = ofl_trace::source_scope(1 + i as u32, vtime);
            endpoint.on_slot();
        }
    }

    /// Drains every endpoint's pending push notifications, in endpoint
    /// order. This is the world's slot pump: called once per slot barrier
    /// (after mining), it yields each shard's events in the hub's
    /// deterministic delivery order, so the concatenation is a stable
    /// stream keyed by `(slot, shard, seq)`.
    pub fn drain_notifications_all(&mut self) -> Vec<(EndpointId, Vec<Notification>)> {
        let vtime = ofl_trace::vtime();
        self.endpoints
            .iter_mut()
            .enumerate()
            .map(|(i, endpoint)| {
                let _src = ofl_trace::source_scope(1 + i as u32, vtime);
                (EndpointId(i), endpoint.drain_notifications())
            })
            .collect()
    }

    /// Ships one [`BackstageOp`] to **every** endpoint — on parallel worker
    /// threads, since shards are independent — and returns the replies in
    /// endpoint order. This is the slot barrier's fan-out: mining all
    /// shards' blocks for a slot is one `backstage_all` call.
    pub fn backstage_all(&mut self, op: &BackstageOp) -> Vec<BackstageReply> {
        let vtime = ofl_trace::vtime();
        let every = self.endpoint_ids().map(|id| (id, ())).collect();
        self.fork_endpoints(every, |id, endpoint, ()| {
            let _src = ofl_trace::source_scope(1 + id.0 as u32, vtime);
            endpoint.backstage(op)
        })
    }

    /// One endpoint's metering snapshot (when its stack is metered).
    pub fn metrics(&self, id: EndpointId) -> Option<ProviderMetrics> {
        self.endpoints[id.0].metrics()
    }

    /// Every endpoint's metering snapshot, in endpoint order (unmetered
    /// stacks report zeroed counters).
    pub fn metrics_per_endpoint(&self) -> Vec<ProviderMetrics> {
        self.endpoints
            .iter()
            .map(|e| e.metrics().unwrap_or_default())
            .collect()
    }

    /// All endpoints' metering absorbed into one run-level snapshot.
    pub fn metrics_merged(&self) -> ProviderMetrics {
        let mut merged = ProviderMetrics::default();
        for metrics in self.metrics_per_endpoint() {
            merged.absorb(&metrics);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{RpcMethod, RpcResult};
    use crate::provider::build_provider;
    use ofl_eth::chain::{Chain, ChainConfig};
    use ofl_eth::wallet::Wallet;
    use ofl_ipfs::swarm::Swarm;
    use ofl_netsim::link::NetworkProfile;
    use ofl_primitives::{wei_per_eth, H160};

    fn pool_of(n: usize) -> (ProviderPool, Wallet) {
        let wallet = Wallet::from_seed("pool", n);
        let endpoints = wallet
            .addresses()
            .into_iter()
            .map(|addr| {
                // Each shard funds a different account, so shard state is
                // visibly disjoint.
                build_provider(
                    Chain::new(ChainConfig::default(), &[(addr, wei_per_eth())]),
                    Swarm::new(),
                    NetworkProfile::campus(),
                    250,
                    crate::EndpointFaults::default(),
                )
            })
            .collect();
        (ProviderPool::new(endpoints), wallet)
    }

    #[test]
    fn endpoints_are_independent_shards() {
        let (mut pool, wallet) = pool_of(2);
        let [a, b]: [H160; 2] = wallet.addresses().try_into().unwrap();
        // Account `a` is funded on shard 0 only.
        assert_eq!(
            pool.endpoint(EndpointId(0)).get_balance(&a).value.unwrap(),
            wei_per_eth()
        );
        assert_eq!(
            pool.endpoint(EndpointId(1))
                .get_balance(&a)
                .value
                .unwrap()
                .to_u64(),
            Some(0)
        );
        // Mining shard 1 does not move shard 0's head.
        pool.endpoint(EndpointId(1)).chain_mut().mine_block(12);
        assert_eq!(pool.get(EndpointId(0)).chain().height(), 0);
        assert_eq!(pool.get(EndpointId(1)).chain().height(), 1);
        let _ = b;
    }

    #[test]
    fn tagged_batch_fans_out_one_round_trip_per_endpoint() {
        let (mut pool, wallet) = pool_of(2);
        let addrs = wallet.addresses();
        let requests = vec![
            (EndpointId(0), RpcRequest::new(0, RpcMethod::BlockNumber)),
            (
                EndpointId(1),
                RpcRequest::new(1, RpcMethod::GetBalance { address: addrs[1] }),
            ),
            (
                EndpointId(0),
                RpcRequest::new(2, RpcMethod::GetBalance { address: addrs[0] }),
            ),
        ];
        let responses = pool.batch(&requests);
        // Responses come back in request order, answered by the right shard.
        assert!(matches!(responses[0].result, Ok(RpcResult::BlockNumber(0))));
        assert!(matches!(&responses[1].result, Ok(RpcResult::Balance(b)) if *b == wei_per_eth()));
        assert!(matches!(&responses[2].result, Ok(RpcResult::Balance(b)) if *b == wei_per_eth()));
        // Each endpoint saw exactly one round trip carrying its group.
        let per_endpoint = pool.metrics_per_endpoint();
        assert_eq!(per_endpoint[0].round_trips, 1);
        assert_eq!(per_endpoint[0].total_calls(), 2);
        assert_eq!(per_endpoint[1].round_trips, 1);
        assert_eq!(per_endpoint[1].total_calls(), 1);
        // The rollup absorbs both endpoints' counters.
        let merged = pool.metrics_merged();
        assert_eq!(merged.round_trips, 2);
        assert_eq!(merged.method("eth_getBalance").calls, 2);
    }

    #[test]
    fn fork_endpoints_runs_each_group_on_its_own_endpoint() {
        let (mut pool, wallet) = pool_of(3);
        let addrs = wallet.addresses();
        // Groups for endpoints 0 and 2 only; each group reads every
        // address, and only its own shard funds one of them.
        let groups = vec![
            (EndpointId(0), addrs.clone()),
            (EndpointId(2), addrs.clone()),
        ];
        let funded = pool.fork_endpoints(groups, |id, endpoint, addresses| {
            let balances: Vec<bool> = addresses
                .iter()
                .map(|a| !endpoint.get_balance(a).value.unwrap().is_zero())
                .collect();
            (id, balances)
        });
        assert_eq!(
            funded,
            vec![
                (EndpointId(0), vec![true, false, false]),
                (EndpointId(2), vec![false, false, true]),
            ]
        );
        // Endpoint 1 was never called.
        assert_eq!(pool.metrics_per_endpoint()[1].total_calls(), 0);
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn fork_endpoints_rejects_unordered_groups() {
        let (mut pool, _) = pool_of(2);
        pool.fork_endpoints(vec![(EndpointId(1), ()), (EndpointId(0), ())], |_, _, _| ());
    }

    #[test]
    #[should_panic(expected = "at least one endpoint")]
    fn empty_pool_is_rejected() {
        ProviderPool::new(Vec::new());
    }
}
