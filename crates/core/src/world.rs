//! The simulated Web 3.0 world: one virtual clock, one network profile,
//! and a **provider pool** fronting N blockchain shards and their IPFS
//! swarms.
//!
//! Since the pool redesign, a world no longer owns "the" chain: it owns an
//! [`ofl_rpc::ProviderPool`] of [`EndpointId`]-addressed endpoints, each a
//! full stack of [`Layered`](ofl_rpc::Layered) provider layers (`Meter`
//! over `Latency` over … over `Sim`, with seeded [`Flaky`](ofl_rpc::Flaky)
//! / [`RateLimit`](ofl_rpc::RateLimit) layers spliced in when a
//! [`ShardSpec`] configures them). Markets are *placed* on an endpoint,
//! and every piece of client traffic — contract calls, transaction
//! broadcasts, receipt polls, log queries, IPFS transfers, and since this
//! redesign the **wallet's signing reads** (`eth_chainId`,
//! `eth_getTransactionCount`, `eth_estimateGas`, `eth_gasPrice`, fetched as
//! one batch) — flows through the market's endpoint, priced and
//! fault-injectable like everything else. Decorators *price* virtual time
//! into each response; the world (or the event engine, onto per-owner
//! timelines) charges the bill.
//!
//! Backstage simulation work — mining slots, conservation checks, failure
//! injection — reaches a shard's backend as a [`BackstageOp`], which works
//! the same for in-process and remote shards: those are the simulator's
//! hands, not the client's. [`World::chain`] and [`World::swarm_mut`] hand
//! out an in-process shard's backend directly, for tests and local tools.
//!
//! Block production is clock-driven and happens on **every** shard:
//! transactions wait in their shard's mempool until the next 12-second
//! slot boundary, which is where the paper's Fig 7 "blockchain
//! interactions dominate" observation comes from.
//!
//! One confirmation policy: after each mined slot, poll the receipts of
//! the pending transactions that slot's blocks carried, and ask backstage
//! about the rest (evicted, or waited out [`ChainConfig::max_wait_slots`]).
//! Two callers run it:
//!
//! - **The session engine** (`ofl_core::engine`, every market session):
//!   [`Endpoint::submit_tx`] and [`World::mine_slot`] are separate steps,
//!   so many owners' (and many markets') transactions can land in their
//!   shard's mempool together and get mined into *shared* blocks at slot
//!   boundaries — or, with markets placed on different shards, into
//!   different chains' blocks. It runs the slot poll once per `Mine`
//!   event.
//! - **The DApp's blocking clicks** ([`World::send_and_confirm`] /
//!   [`World::confirm`]): submit, then block (in virtual time) slot by
//!   slot until confirmed.

use crate::config::MarketConfig;
use ofl_eth::block::{Block, Receipt};
use ofl_eth::chain::{Chain, ChainConfig};
use ofl_eth::wallet::{TxEnv, Wallet, WalletError};
use ofl_ipfs::cid::Cid;
use ofl_ipfs::swarm::{AddResult, FetchStats, Swarm};
use ofl_netsim::clock::{SimClock, SimDuration, SimInstant};
use ofl_netsim::link::NetworkProfile;
use ofl_primitives::u256::U256;
use ofl_primitives::{H160, H256};
use ofl_rpc::{
    build_provider, match_to_requests, provision_socket_provider, BackstageOp, Billed,
    EndpointFaults, EndpointId, FaultProfile, NodeProvider, ProviderMetrics, ProviderPool,
    RemoteEndpoint, Retryable, RpcError, RpcMethod, RpcRequest, RpcResponse, RpcResult,
};
use ofl_rpc::{Notification, SubscriptionKind};
use std::collections::{BTreeMap, BTreeSet};

/// Errors surfaced by world operations.
#[derive(Debug)]
pub enum WorldError {
    /// Wallet/signing rejection.
    Wallet(WalletError),
    /// The provider gave up on a request (rejection, or retries exhausted
    /// against a flaky or throttling endpoint).
    Rpc(RpcError),
    /// A transaction was dropped from the mempool without a receipt.
    TxDropped(H256),
    /// A confirmation wait exhausted [`ChainConfig::max_wait_slots`].
    ConfirmationTimeout {
        /// Slots mined while waiting.
        slots_mined: u64,
        /// Hashes still without a receipt when the wait gave up.
        pending: Vec<H256>,
    },
    /// IPFS failure.
    Ipfs(ofl_ipfs::swarm::IpfsError),
}

impl From<WalletError> for WorldError {
    fn from(e: WalletError) -> Self {
        WorldError::Wallet(e)
    }
}

impl From<ofl_ipfs::swarm::IpfsError> for WorldError {
    fn from(e: ofl_ipfs::swarm::IpfsError) -> Self {
        WorldError::Ipfs(e)
    }
}

impl core::fmt::Display for WorldError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WorldError::Wallet(e) => write!(f, "wallet: {e}"),
            WorldError::Rpc(e) => write!(f, "rpc: {e}"),
            WorldError::TxDropped(h) => write!(f, "transaction {h} dropped without receipt"),
            WorldError::ConfirmationTimeout {
                slots_mined,
                pending,
            } => {
                write!(
                    f,
                    "confirmation wait gave up after mining {slots_mined} slots; still pending:"
                )?;
                for h in pending {
                    write!(f, " {h}")?;
                }
                Ok(())
            }
            WorldError::Ipfs(e) => write!(f, "ipfs: {e}"),
        }
    }
}

impl std::error::Error for WorldError {}

/// Everything one shard needs to come up: chain parameters, genesis
/// balances, and the endpoint's fault/quota/staleness decorators.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Chain parameters (all shards of one world must share `block_time`,
    /// so slot boundaries line up).
    pub chain: ChainConfig,
    /// Genesis balances funded on this shard.
    pub genesis: Vec<(H160, U256)>,
    /// The endpoint's seeded decorators: drops, quotas, stale reads,
    /// spikes, batch reordering and push lag (the default is a clean,
    /// reliable endpoint).
    pub faults: EndpointFaults,
}

impl ShardConfig {
    /// A reliable shard with the given parameters and funding.
    pub fn new(chain: ChainConfig, genesis: Vec<(H160, U256)>) -> ShardConfig {
        ShardConfig {
            chain,
            genesis,
            faults: EndpointFaults::default(),
        }
    }

    /// A shard funded with `genesis` that takes `market`'s chain
    /// parameters and endpoint decorators.
    pub fn for_market(market: &MarketConfig, genesis: Vec<(H160, U256)>) -> ShardConfig {
        ShardConfig {
            chain: market.chain.clone(),
            genesis,
            faults: market.faults,
        }
    }

    /// The decorator knobs, in the shape the stack builders take.
    pub fn knobs(&self) -> EndpointFaults {
        self.faults
    }
}

/// Where one shard of the pool runs: in this process, behind a socket to
/// an `rpcd` daemon, or as a pre-built provider stack handed in by the
/// caller (how tests mount the deterministic in-memory pipe).
pub enum ShardSpec {
    /// An in-process backend built from the config.
    Local(ShardConfig),
    /// An out-of-process backend: the world connects to the daemon at
    /// `endpoint`, provisions it with the config's chain + genesis, and
    /// wraps the socket in the same client-side decorator stack a local
    /// shard gets — so a remote shard prices, faults, and meters
    /// identically.
    Remote {
        /// Where the `rpcd` daemon listens.
        endpoint: RemoteEndpoint,
        /// Chain parameters, genesis, and decorator knobs.
        config: ShardConfig,
    },
    /// An already-built (and, if remote, already-provisioned) provider
    /// stack, mounted as-is.
    Mounted(Box<dyn NodeProvider>),
}

impl core::fmt::Debug for ShardSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShardSpec::Local(config) => f.debug_tuple("Local").field(config).finish(),
            ShardSpec::Remote { endpoint, config } => f
                .debug_struct("Remote")
                .field("endpoint", endpoint)
                .field("config", config)
                .finish(),
            ShardSpec::Mounted(_) => f.write_str("Mounted(<provider stack>)"),
        }
    }
}

impl ShardSpec {
    /// A reliable in-process shard with the given parameters and funding.
    pub fn new(chain: ChainConfig, genesis: Vec<(H160, U256)>) -> ShardSpec {
        ShardSpec::Local(ShardConfig::new(chain, genesis))
    }

    /// Converts an in-process spec into a remote mount of the same shard
    /// (same chain, genesis, and decorator knobs, served by the daemon at
    /// `endpoint`). A `Mounted` spec is returned unchanged.
    pub fn into_remote(self, endpoint: RemoteEndpoint) -> ShardSpec {
        match self {
            ShardSpec::Local(config) | ShardSpec::Remote { config, .. } => {
                ShardSpec::Remote { endpoint, config }
            }
            mounted @ ShardSpec::Mounted(_) => mounted,
        }
    }

    /// Builds this shard's endpoint stack.
    fn into_endpoint(self, profile: NetworkProfile, envelope_bytes: u64) -> Box<dyn NodeProvider> {
        match self {
            ShardSpec::Local(config) => build_provider(
                Chain::new(config.chain.clone(), &config.genesis),
                Swarm::new(),
                profile,
                envelope_bytes,
                config.knobs(),
            ),
            ShardSpec::Remote { endpoint, config } => {
                let transport = endpoint
                    .connect()
                    .unwrap_or_else(|e| panic!("cannot mount remote shard at {endpoint}: {e}"));
                let knobs = config.knobs();
                provision_socket_provider(
                    transport,
                    config.chain,
                    config.genesis,
                    profile,
                    envelope_bytes,
                    knobs,
                )
                .unwrap_or_else(|e| panic!("cannot provision remote shard at {endpoint}: {e}"))
            }
            ShardSpec::Mounted(provider) => provider,
        }
    }
}

/// The request-envelope wire size every world prices RPC traffic with —
/// exported so out-of-world endpoint builders (tests mounting pipe-backed
/// shards, benches) decorate their stacks identically.
pub const DEFAULT_TX_WIRE_BYTES: u64 = 250;

/// The shared substrate every participant interacts with.
pub struct World {
    /// Virtual time.
    pub clock: SimClock,
    /// The endpoint pool fronting every shard's chain + swarm.
    pool: ProviderPool,
    /// Each endpoint's chain parameters, fetched once at mount time via a
    /// backstage op (so a remote shard's config is its daemon's truth, not
    /// a local assumption).
    chain_configs: Vec<ChainConfig>,
    /// Link models.
    pub profile: NetworkProfile,
    /// Approximate wire size of a request envelope (for RPC timing).
    pub tx_wire_bytes: u64,
    /// How many times a transient (timed-out or rate-limited) request is
    /// retried before the world gives up with [`WorldError::Rpc`].
    pub max_rpc_retries: u32,
    /// Push notifications pumped out of every endpoint at slot boundaries,
    /// parked per `(endpoint, sub_id)` until a watcher takes them.
    inbox: BTreeMap<(EndpointId, u64), Vec<Notification>>,
}

impl World {
    /// Builds a single-shard world with genesis balances and a clean
    /// provider.
    pub fn new(
        chain_config: ChainConfig,
        genesis: &[(H160, U256)],
        profile: NetworkProfile,
    ) -> World {
        World::with_faults(chain_config, genesis, profile, None)
    }

    /// Builds a single-shard world whose endpoint injects the given RPC
    /// faults (`None` = reliable endpoint).
    pub fn with_faults(
        chain_config: ChainConfig,
        genesis: &[(H160, U256)],
        profile: NetworkProfile,
        faults: Option<FaultProfile>,
    ) -> World {
        World::from_shards(
            vec![ShardSpec::Local(ShardConfig {
                faults: EndpointFaults {
                    faults,
                    ..EndpointFaults::default()
                },
                ..ShardConfig::new(chain_config, genesis.to_vec())
            })],
            profile,
        )
    }

    /// Builds a world from explicit shard specifications: one endpoint
    /// stack per spec, addressed by `EndpointId(i)` in spec order. Local
    /// shards come up in-process; [`ShardSpec::Remote`] shards are
    /// connected, provisioned, and wrapped in the identical client-side
    /// decorator stack, so the rest of the system cannot tell them apart.
    pub fn from_shards(shards: Vec<ShardSpec>, profile: NetworkProfile) -> World {
        assert!(!shards.is_empty(), "a world needs at least one shard");
        let tx_wire_bytes = DEFAULT_TX_WIRE_BYTES;
        let endpoints = shards
            .into_iter()
            .map(|spec| spec.into_endpoint(profile, tx_wire_bytes))
            .collect();
        World::from_endpoints(endpoints, profile)
    }

    /// Builds a world directly over pre-built endpoint stacks (however
    /// they are backed — in-process, socket, or pipe). Each endpoint's
    /// chain parameters are fetched through the backstage channel, and all
    /// endpoints must share the slot cadence.
    pub fn from_endpoints(endpoints: Vec<Box<dyn NodeProvider>>, profile: NetworkProfile) -> World {
        assert!(!endpoints.is_empty(), "a world needs at least one shard");
        let mut pool = ProviderPool::new(endpoints);
        let chain_configs: Vec<ChainConfig> = (0..pool.len())
            .map(|i| {
                pool.endpoint(EndpointId(i))
                    .backstage(&BackstageOp::Config)
                    .into_config()
            })
            .collect();
        let block_time = chain_configs[0].block_time;
        assert!(
            chain_configs.iter().all(|c| c.block_time == block_time),
            "all shards must share the slot cadence"
        );
        World {
            clock: SimClock::new(),
            pool,
            chain_configs,
            profile,
            tx_wire_bytes: DEFAULT_TX_WIRE_BYTES,
            max_rpc_retries: 6,
            inbox: BTreeMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Provider access.
    // ------------------------------------------------------------------

    /// How many endpoints (shards) the world fronts.
    pub fn endpoints(&self) -> usize {
        self.pool.len()
    }

    /// One endpoint's provider stack — what typed contract bindings
    /// dispatch through.
    pub fn eth(&mut self, endpoint: EndpointId) -> &mut dyn NodeProvider {
        self.pool.endpoint(endpoint)
    }

    /// One endpoint's client view: its provider stack with the world's
    /// retry budget — what every piece of a market's
    /// own traffic (signing reads, broadcasts, IPFS transfers, contract
    /// reads) goes through.
    pub fn endpoint(&mut self, endpoint: EndpointId) -> Endpoint<'_> {
        Endpoint {
            provider: self.pool.endpoint(endpoint),
            max_rpc_retries: self.max_rpc_retries,
            height: None,
        }
    }

    /// Runs `f` once per `(endpoint, group)` pair — groups name distinct
    /// endpoints in ascending order — on that endpoint's view, the
    /// endpoints on parallel workers ([`ProviderPool::fork_endpoints`]),
    /// and returns the results in `groups` order. Each group's work runs in order on one worker, so
    /// every endpoint sees the calls a serial loop over the groups would
    /// make.
    pub fn fork_endpoints<T, R, F>(&mut self, groups: Vec<(EndpointId, T)>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut Endpoint<'_>, &mut T) -> R + Sync,
    {
        let max_rpc_retries = self.max_rpc_retries;
        self.pool.fork_endpoints(groups, |_, provider, group| {
            let mut endpoint = Endpoint {
                provider,
                max_rpc_retries,
                height: None,
            };
            f(&mut endpoint, group)
        })
    }

    /// Direct backstage chain access for one shard — **in-process shards
    /// only** (a remote shard has no chain reference to give; this panics
    /// there). Simulation drivers use the wire-able backstage helpers
    /// below; this accessor remains for tests and local-only tooling.
    pub fn chain(&self, endpoint: EndpointId) -> &Chain {
        self.pool.get(endpoint).chain()
    }

    /// Mutable direct backstage chain access (in-process shards only).
    pub fn chain_mut(&mut self, endpoint: EndpointId) -> &mut Chain {
        self.pool.endpoint(endpoint).chain_mut()
    }

    /// Direct backstage swarm access (in-process shards only).
    pub fn swarm(&self, endpoint: EndpointId) -> &Swarm {
        self.pool.get(endpoint).swarm()
    }

    /// Mutable direct backstage swarm access (in-process shards only).
    pub fn swarm_mut(&mut self, endpoint: EndpointId) -> &mut Swarm {
        self.pool.endpoint(endpoint).swarm_mut()
    }

    // ------------------------------------------------------------------
    // Wire-able backstage operations — the simulator's hands on a shard's
    // infrastructure, which work identically for in-process and remote
    // endpoints (one frame round trip there, never client traffic).
    // ------------------------------------------------------------------

    /// One shard's chain parameters (cached from mount time — they are
    /// static for a chain's lifetime).
    pub fn chain_config(&self, endpoint: EndpointId) -> &ChainConfig {
        &self.chain_configs[endpoint.0]
    }

    /// Backstage mempool occupancy.
    pub fn mempool_len(&mut self, endpoint: EndpointId) -> usize {
        self.pool
            .endpoint(endpoint)
            .backstage(&BackstageOp::MempoolLen)
            .into_u64() as usize
    }

    /// Backstage receipt lookup — ground truth for "was it actually
    /// mined", where a client poll may be faulted or stale.
    pub fn receipt_of(&mut self, endpoint: EndpointId, hash: &H256) -> Option<Receipt> {
        self.pool
            .endpoint(endpoint)
            .backstage(&BackstageOp::ReceiptOf { hash: *hash })
            .into_receipt()
    }

    /// Backstage mempool membership — distinguishes "still queued" from
    /// "silently evicted".
    pub fn is_pending(&mut self, endpoint: EndpointId, hash: &H256) -> bool {
        self.pool
            .endpoint(endpoint)
            .backstage(&BackstageOp::IsPending { hash: *hash })
            .into_flag()
    }

    /// Backstage sum of all live balances (conservation checks).
    pub fn total_supply(&mut self, endpoint: EndpointId) -> U256 {
        self.pool
            .endpoint(endpoint)
            .backstage(&BackstageOp::TotalSupply)
            .into_wei()
    }

    /// Backstage EIP-1559 burn total (conservation checks).
    pub fn burned(&mut self, endpoint: EndpointId) -> U256 {
        self.pool
            .endpoint(endpoint)
            .backstage(&BackstageOp::Burned)
            .into_wei()
    }

    /// Spawns one IPFS node per label into one shard's swarm, in label
    /// order, returning their indices — how a session's nodes come up on
    /// a shard wherever it runs, in one backstage round trip.
    pub fn spawn_ipfs_nodes(&mut self, endpoint: EndpointId, labels: Vec<String>) -> Vec<usize> {
        self.pool
            .endpoint(endpoint)
            .backstage(&BackstageOp::SpawnIpfsNodes { labels })
            .into_node_indices()
            .into_iter()
            .map(|node| node as usize)
            .collect()
    }

    /// One endpoint's metering snapshot: per-method call counts and
    /// virtual-time totals that endpoint's decorator stack observed.
    pub fn rpc_metrics(&self, endpoint: EndpointId) -> ProviderMetrics {
        self.pool.metrics(endpoint).unwrap_or_default()
    }

    /// Every endpoint's metering snapshot, in endpoint order.
    pub fn rpc_metrics_per_endpoint(&self) -> Vec<ProviderMetrics> {
        self.pool.metrics_per_endpoint()
    }

    /// All endpoints' metering rolled up into one run-level snapshot.
    pub fn rpc_metrics_merged(&self) -> ProviderMetrics {
        self.pool.metrics_merged()
    }

    // ------------------------------------------------------------------
    // Pure timing queries (no clock movement) — what the event engine
    // schedules with.
    // ------------------------------------------------------------------

    /// RPC time to broadcast a signed transaction carrying `data_len` bytes
    /// of calldata.
    pub fn tx_submit_time(&self, data_len: usize) -> SimDuration {
        self.profile
            .rpc
            .transfer_time(self.tx_wire_bytes + data_len as u64)
    }

    /// The first slot boundary (in whole seconds) strictly after instant
    /// `at` — when a transaction in a mempool at `at` can first be mined.
    /// All shards share the cadence (asserted at construction).
    pub fn next_slot_secs(&self, at: SimInstant) -> u64 {
        let block_time = self.chain_config(EndpointId(0)).block_time;
        (at.0 / 1_000_000 / block_time + 1) * block_time
    }

    // ------------------------------------------------------------------
    // Slots.
    // ------------------------------------------------------------------

    /// Advances the clock to the slot boundary at `slot_secs` and mines
    /// that slot's block on **every** shard (backstage: the networks
    /// produce blocks whether or not any client is watching), notifying
    /// window-based decorators of the boundary. Returns the blocks in
    /// endpoint order.
    pub fn mine_slot(&mut self, slot_secs: u64) -> Vec<Block> {
        self.clock.advance_to(SimInstant(slot_secs * 1_000_000));
        let _span = ofl_trace::trace_span!(
            ofl_trace::Category::World,
            "world.mine_slot",
            "slot_secs" => slot_secs,
            "shards" => self.pool.len(),
        );
        // Shards mine independently: the pool fans the op out to parallel
        // workers and hands the blocks back in endpoint order.
        let blocks = self
            .pool
            .backstage_all(&BackstageOp::MineSlot { slot_secs })
            .into_iter()
            .map(|reply| reply.into_block())
            .collect();
        self.pool.on_slot();
        // The slot pump: the mine round trips above arrive *after* the
        // pushes they caused (the daemon's ordering contract), and on_slot
        // just advanced any sub-lag decorators — so draining here sees
        // every notification due this slot, on every backend kind.
        self.pump_notifications();
        blocks
    }

    // ------------------------------------------------------------------
    // Push subscriptions (client traffic; delivery pumped at slot
    // boundaries by `mine_slot`).
    // ------------------------------------------------------------------

    /// Opens a push subscription on one endpoint's backend, returning the
    /// backend-assigned id. Notifications accumulate in the world's inbox
    /// each slot until [`World::take_notifications`] collects them.
    pub fn subscribe(&mut self, endpoint: EndpointId, kind: SubscriptionKind) -> u64 {
        self.pool.endpoint(endpoint).subscribe(kind)
    }

    /// Cancels a subscription; `false` when the id was unknown. Already
    /// parked notifications stay takeable.
    pub fn unsubscribe(&mut self, endpoint: EndpointId, sub_id: u64) -> bool {
        self.pool.endpoint(endpoint).unsubscribe(sub_id)
    }

    /// Takes everything parked for `(endpoint, sub_id)` since the last
    /// take, in delivery order. Empty when nothing arrived.
    pub fn take_notifications(&mut self, endpoint: EndpointId, sub_id: u64) -> Vec<Notification> {
        self.inbox.remove(&(endpoint, sub_id)).unwrap_or_default()
    }

    /// Drains every endpoint's pending pushes into the inbox. `mine_slot`
    /// calls this at each slot boundary; it is public so drivers that mine
    /// backstage through other paths can pump explicitly.
    pub fn pump_notifications(&mut self) {
        for (endpoint, notes) in self.pool.drain_notifications_all() {
            for note in notes {
                self.inbox
                    .entry((endpoint, note.sub_id))
                    .or_default()
                    .push(note);
            }
        }
    }

    // ------------------------------------------------------------------
    // Confirmation: one slot-poll policy, run by the event engine once per
    // mined slot and by the DApp's blocking clicks through `confirm`.
    // ------------------------------------------------------------------

    /// Polls receipts for hashes spread across **several** shards in one
    /// pass: the pool fans the tagged batch out, one wire round trip per
    /// endpoint involved. Returns per-item receipts in input order plus
    /// each endpoint's summed poll cost, indexed by `EndpointId.0`.
    fn poll_receipts_sharded(
        &mut self,
        items: &[(EndpointId, H256)],
    ) -> (Vec<Option<Receipt>>, Vec<SimDuration>) {
        let mut costs = vec![SimDuration::ZERO; self.pool.len()];
        if items.is_empty() {
            return (Vec::new(), costs);
        }
        let requests: Vec<(EndpointId, RpcRequest)> = items
            .iter()
            .enumerate()
            .map(|(i, (ep, h))| {
                (
                    *ep,
                    RpcRequest::new(i as u64, RpcMethod::GetTransactionReceipt { hash: *h }),
                )
            })
            .collect();
        let responses = self.pool.batch(&requests);
        for ((ep, _), response) in items.iter().zip(&responses) {
            costs[ep.0] = costs[ep.0].saturating_add(response.cost);
        }
        (responses.into_iter().map(receipt_of).collect(), costs)
    }

    /// The slot poll, run once after each mined slot: marks every pending
    /// transaction that the slot's `blocks` (one per endpoint, as
    /// [`World::mine_slot`] returns them) carried, then polls the
    /// mined-but-undelivered ones in one sharded pass, one wire round trip
    /// per endpoint involved. A transaction still waiting out mempool
    /// congestion costs no poll. Takes every pending transaction and hands
    /// each back, in order, with its receipt or `None` (unmined, or the
    /// poll missed it); the caller keeps the `None`s pending. Also returns
    /// each endpoint's summed poll cost, indexed by `EndpointId.0`, for the
    /// caller to charge.
    pub(crate) fn poll_mined<W>(
        &mut self,
        blocks: &[Block],
        pending: &mut Vec<PendingTx<W>>,
    ) -> (
        impl Iterator<Item = (PendingTx<W>, Option<Receipt>)>,
        Vec<SimDuration>,
    ) {
        let carried: Vec<BTreeSet<H256>> = blocks
            .iter()
            .map(|b| b.tx_hashes.iter().copied().collect())
            .collect();
        for p in pending.iter_mut() {
            p.mined |= carried[p.endpoint.0].contains(&p.hash);
        }
        let items: Vec<(EndpointId, H256)> = pending
            .iter()
            .filter(|p| p.mined)
            .map(|p| (p.endpoint, p.hash))
            .collect();
        let (receipts, costs) = self.poll_receipts_sharded(&items);
        // The answers cover the mined entries, in order.
        let mut polled = receipts.into_iter();
        let answers = std::mem::take(pending).into_iter().map(move |p| {
            let receipt = if p.mined {
                polled.next().expect("one poll answer per mined tx")
            } else {
                None
            };
            (p, receipt)
        });
        (answers, costs)
    }

    /// The backstage verdict on transactions the slot poll left pending.
    /// One a flaky or stale poll merely missed has a receipt and is
    /// re-polled next slot. One neither mined nor in its mempool was
    /// evicted ([`WorldError::TxDropped`]). One still queued times out
    /// ([`WorldError::ConfirmationTimeout`]) once its shard has mined
    /// [`ChainConfig::max_wait_slots`] blocks since the broadcast. Each
    /// endpoint's height is read once, not once per transaction: on a
    /// remote shard every backstage op is a wire round trip.
    pub(crate) fn check_unconfirmed<W>(
        &mut self,
        pending: &[PendingTx<W>],
    ) -> Result<(), WorldError> {
        let mut heights = BTreeMap::new();
        let mut timed_out = Vec::new();
        let mut slots_mined = 0u64;
        for p in pending {
            if self.receipt_of(p.endpoint, &p.hash).is_some() {
                continue;
            }
            if !self.is_pending(p.endpoint, &p.hash) {
                return Err(WorldError::TxDropped(p.hash));
            }
            let height = *heights
                .entry(p.endpoint)
                .or_insert_with(|| self.endpoint(p.endpoint).height());
            let waited = height.saturating_sub(p.submitted_height);
            if waited >= self.chain_config(p.endpoint).max_wait_slots {
                timed_out.push(p.hash);
                slots_mined = slots_mined.max(waited);
            }
        }
        if timed_out.is_empty() {
            Ok(())
        } else {
            Err(WorldError::ConfirmationTimeout {
                slots_mined,
                pending: timed_out,
            })
        }
    }

    /// Blocks (in virtual time) until every hash, just broadcast to
    /// `endpoint`, is confirmed, and returns the receipts in `hashes`
    /// order. It runs the event engine's policy one slot at a time: mine
    /// the next slot, poll the receipts of what it carried, charge the
    /// poll, and ask backstage about the rest. An evicted transaction
    /// fails with [`WorldError::TxDropped`]; one still queued after
    /// [`ChainConfig::max_wait_slots`] blocks with
    /// [`WorldError::ConfirmationTimeout`]. No hashes return at once, with
    /// no slot mined and no request sent.
    pub fn confirm(
        &mut self,
        endpoint: EndpointId,
        hashes: &[H256],
    ) -> Result<Vec<Receipt>, WorldError> {
        if hashes.is_empty() {
            return Ok(Vec::new());
        }
        let submitted_height = self.endpoint(endpoint).height();
        let mut pending: Vec<PendingTx<usize>> = hashes
            .iter()
            .enumerate()
            .map(|(k, &hash)| PendingTx::new(endpoint, hash, submitted_height, k))
            .collect();
        let mut receipts = vec![None; hashes.len()];
        while !pending.is_empty() {
            let slot = self.next_slot_secs(self.clock.now());
            let blocks = self.mine_slot(slot);
            let (answers, costs) = self.poll_mined(&blocks, &mut pending);
            self.clock.advance(costs[endpoint.0]);
            for (p, receipt) in answers {
                match receipt {
                    Some(receipt) => receipts[p.wake] = Some(receipt),
                    None => pending.push(p),
                }
            }
            self.check_unconfirmed(&pending)?;
        }
        Ok(receipts.into_iter().flatten().collect())
    }

    /// Submits a transaction via a wallet and blocks (in virtual time) until
    /// it is mined ([`World::confirm`]). Returns the receipt.
    pub fn send_and_confirm(
        &mut self,
        endpoint: EndpointId,
        wallet: &Wallet,
        from: &H160,
        to: Option<H160>,
        value: U256,
        data: Vec<u8>,
    ) -> Result<Receipt, WorldError> {
        // RPC submission (calldata rides along).
        self.clock.advance(self.tx_submit_time(data.len()));
        let (hash, preflight) = self
            .endpoint(endpoint)
            .submit_tx(wallet, from, to, value, data)?;
        self.clock.advance(preflight);
        Ok(self.confirm(endpoint, &[hash])?.remove(0))
    }
}

/// A broadcast transaction waiting for its receipt under the slot poll
/// ([`World::poll_mined`]), with whoever waits on it.
pub(crate) struct PendingTx<W> {
    /// Which shard the transaction was broadcast to.
    pub(crate) endpoint: EndpointId,
    hash: H256,
    /// The shard's height right after the broadcast; the confirmation
    /// timeout counts blocks from here.
    submitted_height: u64,
    /// Set once the hash appears in a mined block: only then does the
    /// per-slot receipt poll spend client RPC traffic on it. A mined
    /// transaction whose poll misses (flaky drop, stale replica) stays
    /// flagged and is re-polled next slot.
    mined: bool,
    /// Who waits on the receipt; the world only hands it back.
    pub(crate) wake: W,
}

impl<W> PendingTx<W> {
    /// A transaction just broadcast to `endpoint` at shard height
    /// `submitted_height`, not yet seen in a block.
    pub(crate) fn new(endpoint: EndpointId, hash: H256, submitted_height: u64, wake: W) -> Self {
        PendingTx {
            endpoint,
            hash,
            submitted_height,
            mined: false,
            wake,
        }
    }
}

/// One endpoint of a [`World`], borrowed for client traffic (see
/// [`World::endpoint`]): the endpoint's provider stack plus the world's
/// retry budget. A view touches nothing but its own
/// endpoint, so views of different endpoints can work on different threads
/// ([`World::fork_endpoints`]).
///
/// A view never sees its shard's chain grow: a block is mined only by
/// [`World::mine_slot`], which needs the `&mut World` every view borrows,
/// and no view method mines. So a view reads the shard's height at most
/// once ([`Endpoint::height`]).
pub struct Endpoint<'a> {
    provider: &'a mut dyn NodeProvider,
    /// How many times a transient (timed-out or rate-limited) request is
    /// retried before giving up ([`World::max_rpc_retries`]).
    max_rpc_retries: u32,
    /// The shard's height, once this view has read it.
    height: Option<u64>,
}

impl Endpoint<'_> {
    /// Runs one provider operation with transient-failure retries, summing
    /// every attempt's cost. The caller charges the returned duration to
    /// its clock or timeline.
    pub fn eth_retry<T, E: Retryable>(
        &mut self,
        mut op: impl FnMut(&mut dyn NodeProvider) -> Billed<Result<T, E>>,
    ) -> (Result<T, E>, SimDuration) {
        let mut total = SimDuration::ZERO;
        let mut attempt = 0u32;
        loop {
            let Billed { value, cost } = op(&mut *self.provider);
            total = total.saturating_add(cost);
            match value {
                Err(e) if e.is_transient() && attempt < self.max_rpc_retries => {
                    attempt += 1;
                }
                other => return (other, total),
            }
        }
    }

    /// Fetches everything a wallet needs before signing — chain id, nonce,
    /// gas estimate, gas price — as **one** batched round trip, retrying
    /// transient failures. Returns the environment and the total cost of
    /// every attempt (the caller charges it). Because these are ordinary
    /// envelopes, a flaky or throttling endpoint faults the signing path
    /// too.
    pub fn tx_env(
        &mut self,
        from: &H160,
        to: Option<&H160>,
        data: &[u8],
    ) -> Result<(TxEnv, SimDuration), WorldError> {
        let requests = vec![
            RpcRequest::new(0, RpcMethod::ChainId),
            RpcRequest::new(1, RpcMethod::GetTransactionCount { address: *from }),
            RpcRequest::new(
                2,
                RpcMethod::EstimateGas {
                    from: *from,
                    to: to.copied(),
                    data: data.to_vec(),
                },
            ),
            RpcRequest::new(3, RpcMethod::GasPrice),
        ];
        let (env, cost) = self.eth_retry(|eth| {
            // Tag-match the reply array: a reordering endpoint shuffles it,
            // and the four sub-results here are decoded by position.
            let responses = match_to_requests(&requests, eth.batch(&requests));
            Billed {
                cost: responses
                    .iter()
                    .fold(SimDuration::ZERO, |acc, r| acc.saturating_add(r.cost)),
                value: decode_tx_env(&responses),
            }
        });
        Ok((env.map_err(WorldError::Rpc)?, cost))
    }

    /// Signs a transaction (environment from [`Endpoint::tx_env`]) and
    /// broadcasts it (`eth_sendRawTransaction`) without waiting for it to
    /// be mined — the non-blocking half of [`World::send_and_confirm`].
    /// The successful broadcast itself is never charged here: the caller
    /// prices it from [`World::tx_submit_time`], a blocking click on the
    /// global clock, the engine on the owner's timeline. The returned
    /// duration is the signing preflight plus any wasted retried round
    /// trips, for the caller to charge.
    pub fn submit_tx(
        &mut self,
        wallet: &Wallet,
        from: &H160,
        to: Option<H160>,
        value: U256,
        data: Vec<u8>,
    ) -> Result<(H256, SimDuration), WorldError> {
        let (env, mut cost) = self.tx_env(from, to.as_ref(), &data)?;
        let raw = wallet.sign_with_env(&env, from, to, value, data)?;
        let mut attempt = 0u32;
        loop {
            let Billed { value, cost: c } = self.provider.send_raw_transaction(&raw);
            match value {
                Ok(hash) => return Ok((hash, cost)),
                Err(e) if e.is_transient() && attempt < self.max_rpc_retries => {
                    cost = cost.saturating_add(c);
                    attempt += 1;
                }
                Err(e) => return Err(WorldError::Rpc(e)),
            }
        }
    }

    /// Broadcasts an already-signed raw transaction
    /// (`eth_sendRawTransaction`), retrying transient failures. Returns the
    /// outcome and the summed cost of every attempt — the caller charges
    /// it.
    pub fn broadcast_raw(&mut self, raw: &[u8]) -> (Result<H256, RpcError>, SimDuration) {
        self.eth_retry(|eth| eth.send_raw_transaction(raw))
    }

    /// `ipfs add` on `node` of the endpoint's swarm: stores + pins, returns
    /// the root CID and the priced LAN transfer time.
    pub fn ipfs_add(&mut self, node: usize, data: &[u8]) -> Billed<AddResult> {
        self.provider.add(node, data)
    }

    /// `ipfs cat` on `node` of the endpoint's swarm: bitswaps the DAG under
    /// `cid` and returns the bytes, transfer stats, and priced LAN time.
    pub fn ipfs_cat(
        &mut self,
        node: usize,
        cid: &Cid,
    ) -> Billed<Result<(Vec<u8>, FetchStats), ofl_ipfs::swarm::IpfsError>> {
        self.provider.cat(node, cid)
    }

    /// Backstage chain height (the driver's truth, unaffected by stale or
    /// flaky client reads). The first call reads it; later calls on the
    /// same view return that value, since nothing a view does mines (see
    /// [`Endpoint`]).
    pub fn height(&mut self) -> u64 {
        *self
            .height
            .get_or_insert_with(|| self.provider.backstage(&BackstageOp::Height).into_u64())
    }

    /// The CIDs (text form) that some node of the endpoint's swarm can
    /// still serve, in the order given — what a buyer retrieves, asked in
    /// one backstage round trip. Text that is no CID is never served.
    pub fn retrievable(&mut self, cids: &[String]) -> Vec<String> {
        let (texts, cids): (Vec<&String>, Vec<Cid>) = cids
            .iter()
            .filter_map(|text| Cid::parse(text).ok().map(|cid| (text, cid)))
            .unzip();
        let served = self
            .provider
            .backstage(&BackstageOp::SwarmHas { cids })
            .into_flags();
        texts
            .into_iter()
            .zip(served)
            .filter(|(_, served)| *served)
            .map(|(text, _)| text.clone())
            .collect()
    }

    /// Failure injection (backstage): unpin + garbage-collect `cid` on one
    /// node of the endpoint's swarm, so the content vanishes from that
    /// peer.
    pub fn drop_ipfs_block(&mut self, node: usize, cid: &Cid) {
        self.provider.backstage(&BackstageOp::DropIpfsBlock {
            node: node as u64,
            cid: cid.clone(),
        });
    }
}

fn receipt_of(response: RpcResponse) -> Option<Receipt> {
    match response.result {
        Ok(RpcResult::Receipt(receipt)) => receipt,
        _ => None,
    }
}

/// Unpacks the signing-environment batch (`eth_chainId`,
/// `eth_getTransactionCount`, `eth_estimateGas`, `eth_gasPrice`), surfacing
/// the first transport error so a dropped batch retries as a unit.
fn decode_tx_env(responses: &[RpcResponse]) -> Result<TxEnv, RpcError> {
    let result = |i: usize| -> Result<&RpcResult, RpcError> {
        responses
            .get(i)
            .ok_or(RpcError::UnexpectedResponse)?
            .result
            .as_ref()
            .map_err(Clone::clone)
    };
    let chain_id = match result(0)? {
        RpcResult::ChainId(id) => *id,
        _ => return Err(RpcError::UnexpectedResponse),
    };
    let nonce = match result(1)? {
        RpcResult::TransactionCount(n) => *n,
        _ => return Err(RpcError::UnexpectedResponse),
    };
    let gas_estimate = match result(2)? {
        RpcResult::GasEstimate(g) => *g,
        _ => return Err(RpcError::UnexpectedResponse),
    };
    let base_fee = match result(3)? {
        RpcResult::GasPrice(p) => *p,
        _ => return Err(RpcError::UnexpectedResponse),
    };
    Ok(TxEnv {
        chain_id,
        nonce,
        gas_estimate,
        base_fee,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_eth::tx::{sign_tx, TxRequest};
    use ofl_primitives::wei_per_eth;
    use ofl_rpc::RateLimitProfile;

    const EP: EndpointId = EndpointId(0);

    #[test]
    fn send_and_confirm_waits_for_slot() {
        let wallet = Wallet::from_seed("world-test", 2);
        let addrs = wallet.addresses();
        let world_genesis: Vec<(H160, U256)> = addrs.iter().map(|a| (*a, wei_per_eth())).collect();
        let mut world = World::new(
            ChainConfig::default(),
            &world_genesis,
            NetworkProfile::campus(),
        );
        let receipt = world
            .send_and_confirm(
                EP,
                &wallet,
                &addrs[0],
                Some(addrs[1]),
                U256::from(5u64),
                vec![],
            )
            .unwrap();
        assert!(receipt.is_success());
        // Must have waited at least until the first 12 s slot.
        assert!(world.clock.elapsed_secs() >= 12.0);
        assert!(world.clock.elapsed_secs() < 25.0);
        assert_eq!(world.chain(EP).height(), 1);
    }

    #[test]
    fn sequential_txs_land_in_sequential_slots() {
        let wallet = Wallet::from_seed("world-test-2", 2);
        let addrs = wallet.addresses();
        let genesis: Vec<(H160, U256)> = addrs.iter().map(|a| (*a, wei_per_eth())).collect();
        let mut world = World::new(ChainConfig::default(), &genesis, NetworkProfile::campus());
        let r1 = world
            .send_and_confirm(EP, &wallet, &addrs[0], Some(addrs[1]), U256::ONE, vec![])
            .unwrap();
        let r2 = world
            .send_and_confirm(EP, &wallet, &addrs[0], Some(addrs[1]), U256::ONE, vec![])
            .unwrap();
        assert!(r2.block_number > r1.block_number);
        assert!(world.clock.elapsed_secs() >= 24.0);
    }

    #[test]
    fn submit_tx_is_non_blocking_and_shares_blocks() {
        // Two senders submit before any slot boundary: one mined block
        // carries both — the contention the serial path could never create.
        let wallet = Wallet::from_seed("world-test-4", 2);
        let addrs = wallet.addresses();
        let genesis: Vec<(H160, U256)> = addrs.iter().map(|a| (*a, wei_per_eth())).collect();
        let mut world = World::new(ChainConfig::default(), &genesis, NetworkProfile::campus());
        let (h1, _) = world
            .endpoint(EP)
            .submit_tx(&wallet, &addrs[0], Some(addrs[1]), U256::ONE, vec![])
            .unwrap();
        let (h2, _) = world
            .endpoint(EP)
            .submit_tx(&wallet, &addrs[1], Some(addrs[0]), U256::ONE, vec![])
            .unwrap();
        assert_eq!(world.clock.elapsed_secs(), 0.0, "submission never blocks");
        assert_eq!(world.chain(EP).mempool_len(), 2);
        let slot = world.next_slot_secs(world.clock.now());
        let blocks = world.mine_slot(slot);
        assert_eq!(blocks[0].tx_hashes.len(), 2);
        assert!(world.chain(EP).receipt(&h1).is_some());
        assert!(world.chain(EP).receipt(&h2).is_some());
    }

    #[test]
    fn signing_reads_travel_as_one_metered_batch() {
        let wallet = Wallet::from_seed("world-sign", 2);
        let addrs = wallet.addresses();
        let genesis: Vec<(H160, U256)> = addrs.iter().map(|a| (*a, wei_per_eth())).collect();
        let mut world = World::new(ChainConfig::default(), &genesis, NetworkProfile::campus());
        let (env, cost) = world
            .endpoint(EP)
            .tx_env(&addrs[0], Some(&addrs[1]), &[])
            .unwrap();
        assert_eq!(env.nonce, 0);
        assert_eq!(env.gas_estimate, 21_000);
        assert_eq!(env.chain_id, world.chain(EP).config().chain_id);
        assert_eq!(env.base_fee, world.chain(EP).base_fee());
        assert!(cost > SimDuration::ZERO, "the preflight is priced traffic");
        let metrics = world.rpc_metrics(EP);
        // Four signing reads, one wire round trip.
        assert_eq!(metrics.round_trips, 1);
        for method in [
            "eth_chainId",
            "eth_getTransactionCount",
            "eth_estimateGas",
            "eth_gasPrice",
        ] {
            assert_eq!(metrics.method(method).calls, 1, "{method}");
        }
    }

    #[test]
    fn faults_cover_the_signing_path() {
        // A provider that drops everything fails the submit inside the
        // signing preflight — no local chain read can paper over it.
        let wallet = Wallet::from_seed("world-sign-flaky", 1);
        let a = wallet.addresses()[0];
        let mut world = World::with_faults(
            ChainConfig::default(),
            &[(a, wei_per_eth())],
            NetworkProfile::campus(),
            Some(FaultProfile::new(1, 1.0)),
        );
        match world
            .endpoint(EP)
            .submit_tx(&wallet, &a, None, U256::ZERO, vec![])
        {
            Err(WorldError::Rpc(RpcError::Timeout)) => {}
            other => panic!("expected signing-path timeout, got {other:?}"),
        }
        let metrics = world.rpc_metrics(EP);
        assert!(metrics.method("eth_chainId").errors > 0);
        assert_eq!(metrics.method("eth_sendRawTransaction").calls, 0);
    }

    #[test]
    fn confirm_timeout_is_typed_and_configurable() {
        let wallet = Wallet::from_seed("world-test-5", 1);
        let a = wallet.addresses()[0];
        let config = ChainConfig {
            max_wait_slots: 3,
            ..ChainConfig::default()
        };
        let mut world = World::new(config, &[(a, wei_per_eth())], NetworkProfile::campus());
        // A future-nonce transaction can never be mined on its own.
        let key = wallet.account(&a).unwrap().private_key;
        let req = TxRequest {
            chain_id: world.chain(EP).config().chain_id,
            nonce: 5,
            max_priority_fee_per_gas: U256::from(1_500_000_000u64),
            max_fee_per_gas: U256::from(40_000_000_000u64),
            gas_limit: 21_000,
            to: Some(H160::from_slice(&[9; 20])),
            value: U256::ONE,
            data: Vec::new(),
        };
        let hash = world
            .chain_mut(EP)
            .submit(sign_tx(req, &key).unwrap())
            .unwrap();
        match world.confirm(EP, &[hash]) {
            Err(WorldError::ConfirmationTimeout {
                slots_mined,
                pending,
            }) => {
                assert_eq!(slots_mined, 3);
                assert_eq!(pending, vec![hash]);
            }
            other => panic!("expected ConfirmationTimeout, got {other:?}"),
        }
        assert_eq!(world.chain(EP).height(), 3);
    }

    #[test]
    fn confirm_reports_an_evicted_same_nonce_transfer_after_one_slot() {
        let wallet = Wallet::from_seed("world-evict", 2);
        let [a, b]: [H160; 2] = wallet.addresses().try_into().unwrap();
        let mut world = World::new(
            ChainConfig::default(),
            &[(a, wei_per_eth())],
            NetworkProfile::campus(),
        );
        // Both transfers read nonce 0 before either is mined; the first one
        // mined takes it, and the builder evicts the second.
        let (first, _) = world
            .endpoint(EP)
            .submit_tx(&wallet, &a, Some(b), U256::ONE, vec![])
            .unwrap();
        let (second, _) = world
            .endpoint(EP)
            .submit_tx(&wallet, &a, Some(b), U256::from(2u64), vec![])
            .unwrap();
        assert_ne!(first, second);
        match world.confirm(EP, &[second]) {
            Err(WorldError::TxDropped(hash)) => assert_eq!(hash, second),
            other => panic!("expected TxDropped, got {other:?}"),
        }
        assert_eq!(
            world.chain(EP).height(),
            1,
            "one slot tells evicted from slow"
        );
        assert!(world.chain(EP).receipt(&first).is_some());
    }

    /// A provider stack that counts the backstage ops passing through it.
    struct CountBackstage {
        inner: Box<dyn NodeProvider>,
        ops: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl ofl_rpc::EthApi for CountBackstage {
        fn execute(&mut self, request: &RpcRequest) -> RpcResponse {
            self.inner.execute(request)
        }
        fn batch(&mut self, requests: &[RpcRequest]) -> Vec<RpcResponse> {
            self.inner.batch(requests)
        }
    }

    impl ofl_rpc::IpfsApi for CountBackstage {
        fn add(&mut self, node: usize, data: &[u8]) -> Billed<AddResult> {
            self.inner.add(node, data)
        }
        fn cat(
            &mut self,
            node: usize,
            cid: &Cid,
        ) -> Billed<Result<(Vec<u8>, FetchStats), ofl_ipfs::swarm::IpfsError>> {
            self.inner.cat(node, cid)
        }
        fn pin(
            &mut self,
            node: usize,
            cid: &Cid,
        ) -> Billed<Result<(), ofl_ipfs::swarm::IpfsError>> {
            self.inner.pin(node, cid)
        }
    }

    impl NodeProvider for CountBackstage {
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
            self.inner.on_slot()
        }
        fn backstage(&mut self, op: &BackstageOp) -> ofl_rpc::BackstageReply {
            self.ops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.backstage(op)
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

    #[test]
    fn confirm_with_no_hashes_returns_at_once() {
        use std::sync::atomic::Ordering;
        let ops = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let profile = NetworkProfile::campus();
        let stack = ShardSpec::new(ChainConfig::default(), Vec::new())
            .into_endpoint(profile, DEFAULT_TX_WIRE_BYTES);
        let mut world = World::from_endpoints(
            vec![Box::new(CountBackstage {
                inner: stack,
                ops: ops.clone(),
            })],
            profile,
        );
        let ops_before = ops.load(Ordering::Relaxed);
        assert!(
            ops_before > 0,
            "the counter sees the mount-time config read"
        );
        assert!(world.confirm(EP, &[]).unwrap().is_empty());
        assert_eq!(world.clock.now(), SimInstant(0), "no slot mined");
        assert_eq!(world.chain(EP).height(), 0);
        assert_eq!(world.rpc_metrics(EP).round_trips, 0, "no request sent");
        assert_eq!(ops.load(Ordering::Relaxed), ops_before, "no backstage read");
    }

    #[test]
    fn next_slot_is_strictly_after() {
        let wallet = Wallet::from_seed("world-test-6", 1);
        let a = wallet.addresses()[0];
        let world = World::new(
            ChainConfig::default(),
            &[(a, wei_per_eth())],
            NetworkProfile::campus(),
        );
        assert_eq!(world.next_slot_secs(SimInstant(0)), 12);
        assert_eq!(world.next_slot_secs(SimInstant(11_999_999)), 12);
        assert_eq!(world.next_slot_secs(SimInstant(12_000_000)), 24);
    }

    #[test]
    fn flaky_world_retries_and_charges_the_wasted_round_trips() {
        // A 60% drop rate forces visible retries; the session must still
        // complete, just later in virtual time than the clean run.
        let run = |faults: Option<FaultProfile>| {
            let wallet = Wallet::from_seed("world-flaky", 2);
            let addrs = wallet.addresses();
            let genesis: Vec<(H160, U256)> = addrs.iter().map(|a| (*a, wei_per_eth())).collect();
            let mut world = World::with_faults(
                ChainConfig::default(),
                &genesis,
                NetworkProfile::campus(),
                faults,
            );
            world
                .send_and_confirm(EP, &wallet, &addrs[0], Some(addrs[1]), U256::ONE, vec![])
                .unwrap();
            (world.clock.elapsed_secs(), world.rpc_metrics(EP))
        };
        let (clean_secs, clean_metrics) = run(None);
        let (flaky_secs, flaky_metrics) = run(Some(FaultProfile::new(9, 0.6)));
        assert_eq!(clean_metrics.total_errors(), 0);
        assert!(flaky_metrics.total_errors() > 0, "60% drops must be seen");
        // Timeouts waste retried round trips and priced virtual time. (The
        // *elapsed* clock may tie with the clean run when the retries fit
        // inside the slot wait the sender was paying anyway.)
        assert!(flaky_metrics.round_trips > clean_metrics.round_trips);
        assert!(flaky_metrics.total_cost() > clean_metrics.total_cost());
        assert!(flaky_secs >= clean_secs);
        // Determinism: the same fault seed reproduces the exact timing.
        let (again_secs, again_metrics) = run(Some(FaultProfile::new(9, 0.6)));
        assert_eq!(flaky_secs, again_secs);
        assert_eq!(flaky_metrics, again_metrics);
    }

    #[test]
    fn receipt_polls_batch_into_one_round_trip() {
        let wallet = Wallet::from_seed("world-batch", 4);
        let addrs = wallet.addresses();
        let genesis: Vec<(H160, U256)> = addrs.iter().map(|a| (*a, wei_per_eth())).collect();
        let mut world = World::new(ChainConfig::default(), &genesis, NetworkProfile::campus());
        let hashes: Vec<H256> = (0..4)
            .map(|i| {
                world
                    .endpoint(EP)
                    .submit_tx(
                        &wallet,
                        &addrs[i],
                        Some(addrs[(i + 1) % 4]),
                        U256::ONE,
                        vec![],
                    )
                    .unwrap()
                    .0
            })
            .collect();
        // `confirm` mines the 12 s slot, then polls all four receipts.
        let before = world.rpc_metrics(EP).round_trips;
        let batched = world.confirm(EP, &hashes).unwrap();
        let batched_cost = world.clock.now().since(SimInstant(12_000_000));
        assert_eq!(batched.len(), 4);
        assert_eq!(world.rpc_metrics(EP).round_trips, before + 1);

        // The same receipts asked for one direct request at a time: four
        // round trips.
        let mut per_call_cost = SimDuration::ZERO;
        for (hash, receipt) in hashes.iter().zip(&batched) {
            let billed = world.eth(EP).get_transaction_receipt(*hash);
            per_call_cost = per_call_cost.saturating_add(billed.cost);
            assert_eq!(billed.value.unwrap().as_ref(), Some(receipt));
        }
        assert_eq!(world.rpc_metrics(EP).round_trips, before + 1 + 4);
        // The batched bill is far cheaper than four separate round trips.
        assert!(batched_cost.as_secs_f64() * 2.0 < per_call_cost.as_secs_f64());
    }

    #[test]
    fn sharded_worlds_keep_independent_chains_but_one_clock() {
        let wallet = Wallet::from_seed("world-shards", 2);
        let [a, b]: [H160; 2] = wallet.addresses().try_into().unwrap();
        let mut world = World::from_shards(
            vec![
                ShardSpec::new(ChainConfig::default(), vec![(a, wei_per_eth())]),
                ShardSpec::new(ChainConfig::default(), vec![(b, wei_per_eth())]),
            ],
            NetworkProfile::campus(),
        );
        assert_eq!(world.endpoints(), 2);
        // Account `a` exists on shard 0 only.
        assert_eq!(world.chain(EndpointId(0)).balance(&a), wei_per_eth());
        assert_eq!(world.chain(EndpointId(1)).balance(&a), U256::ZERO);
        // Same-instant submissions on different shards mine into different
        // chains' blocks at the same slot boundary.
        let (h0, _) = world
            .endpoint(EndpointId(0))
            .submit_tx(&wallet, &a, Some(b), U256::ONE, vec![])
            .unwrap();
        let (h1, _) = world
            .endpoint(EndpointId(1))
            .submit_tx(&wallet, &b, Some(a), U256::ONE, vec![])
            .unwrap();
        let blocks = world.mine_slot(12);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].tx_hashes, vec![h0]);
        assert_eq!(blocks[1].tx_hashes, vec![h1]);
        // The sharded poll answers both in one pass, one round trip per
        // endpoint, each shard paying its own bill.
        let items = vec![(EndpointId(0), h0), (EndpointId(1), h1)];
        let (receipts, costs) = world.poll_receipts_sharded(&items);
        assert!(receipts.iter().all(Option::is_some));
        assert!(costs[0] > SimDuration::ZERO && costs[1] > SimDuration::ZERO);
        // Per-endpoint metering stays disjoint and rolls up.
        let per = world.rpc_metrics_per_endpoint();
        assert_eq!(per[0].method("eth_sendRawTransaction").calls, 1);
        assert_eq!(per[1].method("eth_sendRawTransaction").calls, 1);
        let merged = world.rpc_metrics_merged();
        assert_eq!(merged.method("eth_sendRawTransaction").calls, 2);
        assert_eq!(merged.round_trips, per[0].round_trips + per[1].round_trips);
    }

    #[test]
    fn push_subscriptions_deliver_per_shard_at_slot_boundaries() {
        use ofl_rpc::SubEvent;
        let wallet = Wallet::from_seed("world-subs", 2);
        let [a, b]: [H160; 2] = wallet.addresses().try_into().unwrap();
        let mut world = World::from_shards(
            vec![
                ShardSpec::new(ChainConfig::default(), vec![(a, wei_per_eth())]),
                ShardSpec::new(ChainConfig::default(), vec![(b, wei_per_eth())]),
            ],
            NetworkProfile::campus(),
        );
        let heads0 = world.subscribe(EndpointId(0), SubscriptionKind::NewHeads);
        let pend1 = world.subscribe(EndpointId(1), SubscriptionKind::PendingTxs);
        // Ids are per-backend: both shards hand out 1 first.
        assert_eq!((heads0, pend1), (1, 1));
        let (h1, _) = world
            .endpoint(EndpointId(1))
            .submit_tx(&wallet, &b, Some(a), U256::ONE, vec![])
            .unwrap();
        // Nothing delivered before the slot boundary pump.
        assert!(world.take_notifications(EndpointId(1), pend1).is_empty());
        world.mine_slot(12);
        let heads = world.take_notifications(EndpointId(0), heads0);
        assert_eq!(heads.len(), 1);
        assert!(matches!(&heads[0].event, SubEvent::NewHead(block) if block.header.number == 1));
        let pending = world.take_notifications(EndpointId(1), pend1);
        assert_eq!(pending.len(), 1);
        assert!(matches!(&pending[0].event, SubEvent::PendingTx(p) if p.hash == h1));
        // Taken means taken; shard 1's head went nowhere (no subscriber).
        assert!(world.take_notifications(EndpointId(0), heads0).is_empty());
        assert!(world.take_notifications(EndpointId(1), pend1).is_empty());
        assert!(world.take_notifications(EndpointId(1), 99).is_empty());
        assert!(world.unsubscribe(EndpointId(0), heads0));
        assert!(!world.unsubscribe(EndpointId(0), 42));
    }

    #[test]
    fn rate_limited_world_survives_via_backoff_retries() {
        let wallet = Wallet::from_seed("world-429", 2);
        let addrs = wallet.addresses();
        let genesis: Vec<(H160, U256)> = addrs.iter().map(|a| (*a, wei_per_eth())).collect();
        let mut world = World::from_shards(
            vec![ShardSpec::Local(ShardConfig {
                faults: EndpointFaults {
                    rate_limit: Some(RateLimitProfile::new(7, 1)),
                    ..EndpointFaults::default()
                },
                ..ShardConfig::new(ChainConfig::default(), genesis)
            })],
            NetworkProfile::campus(),
        );
        // The signing preflight and the broadcast blow a 1-request budget
        // within one slot window; back-off retries still land the transfer.
        let receipt = world
            .send_and_confirm(EP, &wallet, &addrs[0], Some(addrs[1]), U256::ONE, vec![])
            .unwrap();
        assert!(receipt.is_success());
        let metrics = world.rpc_metrics(EP);
        assert!(metrics.total_errors() > 0, "429s must have fired");
    }
}
