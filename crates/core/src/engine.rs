//! The discrete-event session engine, the one driver of every market
//! session: concurrent owners, shared blocks, multi-market worlds.
//!
//! It drives the [`MarketSession`] primitives from an [`EventQueue`]:
//!
//! - Each owner is a **state machine** (Train → Upload → SendCid → Done)
//!   whose steps fire as events on the owner's own timeline; the world
//!   advances to the earliest pending event, so owners overlap in time.
//! - Transaction submission is **non-blocking**: `uploadCid` calls from
//!   many owners (and deploys/payments from many buyers) sit in their
//!   shard's mempool until a `Mine` event fires at the next 12-second slot
//!   boundary, which packs them into *shared* blocks. Base-fee movement,
//!   per-block gas pressure, and confirmation-wait distributions emerge
//!   from that contention rather than being serialized away.
//! - [`MultiMarket`] runs N complete marketplace sessions over **one**
//!   world whose provider pool fronts one or more shards. Markets placed
//!   on the same [`EndpointId`] contend for the same blocks exactly as a
//!   single-chain world; markets placed on different shards land their CID
//!   transactions in different chains' blocks, which is how the engine
//!   compares same-shard against cross-shard contention.
//!
//! The paper's serial workflow
//! ([`Marketplace::run`](crate::market::Marketplace::run)) is one market
//! whose owners arrive [`Arrivals::OneAtATime`]: owner 0 when the deploy
//! confirms, each next owner when the previous one is resolved. So a
//! 20-owner session pays 20 blockchain waits, and every block carries one
//! transaction.
//!
//! Same-instant runs: the engine pops every consecutive event of one step
//! kind due at the same instant (all owners arriving at t = 0, every
//! owner's CID broadcast after the deploy confirms, every market's
//! finalize) and splits each step into a *prepare* half — the work that
//! touches only the step's own owner or market and its market's endpoint:
//! training, IPFS transfers, signing reads, signing and broadcasts, CID
//! download, aggregation — and a *commit* half: timelines, phase
//! recorders, pending receipts, scheduling, the `engine.dispatch` trace
//! event. The prepare halves run as one fork/join (training over owners,
//! everything else over endpoints, each endpoint's steps in pop order on
//! one worker); the commits run on the engine thread in pop order. A run
//! of one is the same code.
//!
//! Determinism: the queue delivers simultaneous events in scheduling
//! order, all state is seeded, and nothing iterates a hash map — a run is
//! a pure function of `(configs, placements, failures, arrivals)`. A
//! prepare half depends on no earlier commit of its run, and the only
//! commit that reaches an endpoint (the slot barrier) belongs to runs
//! whose prepare halves reach none — so each endpoint sees the client
//! calls a one-at-a-time engine would make. Backstage reads are grouped
//! per run: an endpoint's prepare group reads its height once (nothing
//! mines inside a run), a finalize asks after all its CIDs at once, and a
//! finished buyer takes its payment receipts from the slot polls that
//! delivered them. Trace
//! events a prepare half records are captured and replayed by its commit,
//! so the trace is byte-identical too.

use crate::config::MarketConfig;
use crate::market::{
    buyer_phase, owner_phase, Aggregation, LooPayments, MarketError, MarketSession, OwnerState,
    PaymentRow, SessionBlueprint, SessionReport,
};
use crate::scenario::FailurePlan;
use crate::world::{Endpoint, PendingTx, ShardConfig, ShardSpec, World};
use ofl_eth::block::Receipt;
use ofl_eth::chain::LogFilter;
use ofl_eth::contracts::upload_cid_selector;
use ofl_eth::tx::{sign_tx, TxRequest};
use ofl_netsim::clock::{SimDuration, SimInstant};
use ofl_netsim::link::Link;
use ofl_netsim::par::fork_join_mut;
use ofl_netsim::sched::{EventQueue, Timeline};
use ofl_primitives::u256::U256;
use ofl_primitives::{H160, H256};
use ofl_rpc::{EndpointId, ModelMarketContract, ProviderMetrics, SubEvent, SubscriptionKind};
use ofl_trace::Captured;
use std::collections::BTreeSet;

/// When each owner shows up to start training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Everyone starts at t = 0 (maximum contention).
    Simultaneous,
    /// Owner `i` arrives at `i × interval` (a rolling-admission session).
    Staggered(SimDuration),
    /// The paper's serial workflow: owner 0 arrives when the deploy
    /// confirms, owner `i + 1` when owner `i` is resolved (confirmed,
    /// reverted, or dropped out).
    OneAtATime,
}

impl Arrivals {
    /// When owner `i` arrives, counted from t = 0; `None` when its arrival
    /// waits on the session's progress instead.
    fn offset(&self, owner_index: usize) -> Option<SimDuration> {
        match self {
            Arrivals::Simultaneous => Some(SimDuration::ZERO),
            Arrivals::Staggered(interval) => Some(SimDuration(interval.0 * owner_index as u64)),
            Arrivals::OneAtATime => None,
        }
    }
}

/// Engine knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Owner arrival pattern (per market).
    pub arrivals: Arrivals,
    /// Open push subscriptions (`newHeads`, all-logs, `pendingTxs`) on
    /// every shard and fold each delivery into
    /// [`EngineReport::event_digest`], keyed `(slot, shard, seq)` — the
    /// knob the tri-backend pinning tests flip to prove in-process, pipe,
    /// and TCP worlds emit bit-identical event streams.
    pub watch_events: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            arrivals: Arrivals::Simultaneous,
            watch_events: false,
        }
    }
}

/// Per-session facts the engine observed that a [`SessionReport`] does
/// not carry; the scenario layer distills outcomes from it.
#[derive(Debug, Clone, Default)]
pub struct SessionDetail {
    /// Every CID the market's contract returned at finalize time.
    pub cids_onchain: Vec<String>,
    /// The subset of CIDs some peer could still serve.
    pub cids_retrieved: Vec<String>,
    /// Injected transactions that (as intended) reverted on-chain.
    pub reverted_tx_count: usize,
    /// Victim `uploadCid` broadcasts the mempool-watching adversary outbid
    /// (zero unless the market's plan set
    /// [`FailurePlan::mempool_front_run`]).
    pub front_run_count: usize,
}

/// What a whole engine run produced.
pub struct EngineReport {
    /// One report per market, in construction order.
    pub sessions: Vec<SessionReport>,
    /// Engine-level facts per market.
    pub details: Vec<SessionDetail>,
    /// Virtual time from world start to the last buyer's completion.
    pub total_sim_seconds: f64,
    /// `(endpoint, block_number, distinct owners whose uploadCid landed
    /// there)` for every block that carried at least one CID transaction —
    /// cross-shard placements show up as rows with different endpoints.
    pub cid_txs_per_block: Vec<(EndpointId, u64, usize)>,
    /// Provider metering for the whole run: every endpoint's counters
    /// rolled up into one snapshot.
    pub rpc: ProviderMetrics,
    /// Per-endpoint provider metering, indexed by `EndpointId.0` — what a
    /// sharded run uses to see which shard carried which traffic.
    pub rpc_per_endpoint: Vec<ProviderMetrics>,
    /// Push deliveries the engine's own watchers received (zero unless
    /// [`EngineConfig::watch_events`] was set).
    pub events_observed: u64,
    /// Order-sensitive FNV-1a digest of the watched event stream, keyed
    /// `(slot, shard, sub, seq, event)` — identical across in-process,
    /// pipe, and TCP shard mountings of the same fleet.
    pub event_digest: u64,
    /// Total blocks mined across all shards (one per shard per slot) —
    /// the denominator of the push-vs-poll comparison: a cursor-polling
    /// watcher pays per mined block, a subscription watcher does not.
    pub blocks_mined: u64,
}

impl EngineReport {
    /// The largest number of distinct owners sharing one block (on any
    /// shard) — ≥ 2 is the contention one-at-a-time arrivals never
    /// produce.
    pub fn max_owners_sharing_block(&self) -> usize {
        self.cid_txs_per_block
            .iter()
            .map(|(_, _, n)| *n)
            .max()
            .unwrap_or(0)
    }

    /// The shards that carried at least one CID transaction, deduplicated
    /// in endpoint order.
    pub fn shards_with_cid_txs(&self) -> Vec<EndpointId> {
        let mut shards: Vec<EndpointId> =
            self.cid_txs_per_block.iter().map(|(e, _, _)| *e).collect();
        shards.sort();
        shards.dedup();
        shards
    }
}

/// N concurrent marketplace sessions sharing one world: one provider pool
/// of one or more shards, each market pinned to its
/// [`MarketConfig::placement`] endpoint.
pub struct MultiMarket {
    /// The shared substrate.
    pub world: World,
    /// The markets, each with its own buyer, owners, contract, and budget.
    pub sessions: Vec<MarketSession>,
}

impl MultiMarket {
    /// Builds a shared world from explicit per-market configurations, with
    /// exactly as many shards as the largest placement requires. The first
    /// market's chain parameters, network profile, and fault/quota knobs
    /// govern every shard; market 0 derives unlabelled (a solo
    /// [`Marketplace`](crate::market::Marketplace) is market 0 of a
    /// one-market world), later markets are namespaced `m1/`, `m2/`, …
    pub fn new(configs: Vec<MarketConfig>) -> MultiMarket {
        let shards = configs
            .iter()
            .map(|c| c.placement.0 + 1)
            .max()
            .expect("at least one market required");
        MultiMarket::with_shards(configs, shards)
    }

    /// Like [`MultiMarket::new`], but with an explicit shard count (≥ the
    /// largest placement + 1) — how a world keeps idle endpoints around,
    /// e.g. to show that two markets pinned to shard 0 of a 2-shard pool
    /// behave bit-identically to a 1-shard world.
    pub fn with_shards(configs: Vec<MarketConfig>, shards: usize) -> MultiMarket {
        MultiMarket::with_shards_via(configs, shards, ShardSpec::Local)
    }

    /// Like [`MultiMarket::with_shards`], but every shard's specification
    /// passes through `mount` before the world comes up — how a scenario
    /// moves one (or every) shard out of process: return
    /// `spec.into_remote(endpoint)` (or a pre-built
    /// [`ShardSpec::Mounted`] stack) for the shards a daemon should serve,
    /// and `ShardSpec::Local(config)` for the rest.
    pub fn with_shards_via(
        configs: Vec<MarketConfig>,
        shards: usize,
        mut mount: impl FnMut(ShardConfig) -> ShardSpec,
    ) -> MultiMarket {
        assert!(!configs.is_empty(), "at least one market required");
        assert!(
            configs.iter().all(|c| c.placement.0 < shards),
            "every placement must name an existing shard"
        );
        // Each blueprint is a pure function of its market's config: build
        // them on every core and take them back in market order. A
        // blueprint built on a spawned worker moves its silos and test set
        // onto this thread's heap, where the run allocates: left in the
        // worker's allocator arena for the whole run, they raised the
        // `fleet-tcp` peak RSS by 10%.
        let caller = std::thread::current().id();
        let mut jobs: Vec<&MarketConfig> = configs.iter().collect();
        let blueprints: Vec<SessionBlueprint> = fork_join_mut(&mut jobs, |m, c| {
            let label = if m == 0 {
                String::new()
            } else {
                format!("m{m}/")
            };
            let blueprint = SessionBlueprint::new((*c).clone(), &label);
            (blueprint, std::thread::current().id())
        })
        .into_iter()
        .map(|(mut blueprint, built_on)| {
            if built_on != caller {
                blueprint.rehome_data();
            }
            blueprint
        })
        .collect();
        // Each shard funds exactly the markets placed on it.
        let specs: Vec<ShardSpec> = (0..shards)
            .map(|s| {
                let genesis: Vec<(H160, U256)> = blueprints
                    .iter()
                    .zip(&configs)
                    .filter(|(_, c)| c.placement.0 == s)
                    .flat_map(|(b, _)| b.genesis().iter().cloned())
                    .collect();
                mount(ShardConfig::for_market(&configs[0], genesis))
            })
            .collect();
        let mut world = World::from_shards(specs, configs[0].profile);
        let sessions = blueprints
            .into_iter()
            .zip(&configs)
            .map(|(b, c)| b.instantiate_with(|labels| world.spawn_ipfs_nodes(c.placement, labels)))
            .collect();
        MultiMarket { world, sessions }
    }

    /// `markets` copies of `base` with decorrelated data/model seeds — the
    /// "4×8" style regimes — all placed on one shard.
    pub fn replicated(base: &MarketConfig, markets: usize) -> MultiMarket {
        MultiMarket::new(Self::replica_configs(base, markets, 1))
    }

    /// `markets` decorrelated copies of `base` spread round-robin across
    /// `shards` chains — the cross-shard contention regime. A shard count
    /// of 0 is treated as 1 (a pool cannot be empty).
    pub fn replicated_sharded(base: &MarketConfig, markets: usize, shards: usize) -> MultiMarket {
        let shards = shards.max(1);
        MultiMarket::with_shards(Self::replica_configs(base, markets, shards), shards)
    }

    /// The decorrelated per-market configurations `replicated`/
    /// `replicated_sharded` build — public so callers can reuse the exact
    /// same fleet with a different shard mounting.
    pub fn replica_configs(
        base: &MarketConfig,
        markets: usize,
        shards: usize,
    ) -> Vec<MarketConfig> {
        (0..markets)
            .map(|m| {
                let mut c = base.clone();
                c.seed = base.seed.wrapping_add(m as u64 * 7919);
                c.train.seed = base.train.seed.wrapping_add(m as u64 * 104_729);
                c.placement = EndpointId(m % shards.max(1));
                c
            })
            .collect()
    }

    /// Runs every session to completion on the event queue. `failures[m]`
    /// is market m's injection plan (missing entries mean clean).
    pub fn run(
        mut self,
        engine: &EngineConfig,
        failures: &[FailurePlan],
    ) -> Result<(MultiMarket, EngineReport), MarketError> {
        let report = {
            let mut driver = Driver::new(&mut self.world, &mut self.sessions, engine, failures);
            driver.run()?
        };
        Ok((self, report))
    }
}

// ----------------------------------------------------------------------
// The event loop.
// ----------------------------------------------------------------------

/// Events. `m` indexes the market, `i` the owner within it. `Submit*`
/// events fire at the instant the transaction *reaches the mempool* (the
/// RPC broadcast time has already elapsed); `phase_start` pins where the
/// participant's blockchain phase began for Fig 7 accounting.
enum Ev {
    SubmitDeploy {
        m: usize,
    },
    OwnerArrive {
        m: usize,
        i: usize,
    },
    OwnerTrained {
        m: usize,
        i: usize,
    },
    OwnerUploaded {
        m: usize,
        i: usize,
    },
    OwnerSubmitCid {
        m: usize,
        i: usize,
        phase_start: SimInstant,
    },
    Mine {
        slot_secs: u64,
    },
    BuyerFinalize {
        m: usize,
    },
    BuyerSubmitPayments {
        m: usize,
    },
    BuyerDone {
        m: usize,
    },
}

impl Ev {
    /// Whether two events are the same step kind — what the steps of one
    /// same-instant run share.
    fn same_step(a: &Ev, b: &Ev) -> bool {
        std::mem::discriminant(a) == std::mem::discriminant(b)
    }

    /// The market the step belongs to (`None` for the slot barrier).
    fn market(&self) -> Option<usize> {
        match *self {
            Ev::SubmitDeploy { m }
            | Ev::OwnerArrive { m, .. }
            | Ev::OwnerTrained { m, .. }
            | Ev::OwnerUploaded { m, .. }
            | Ev::OwnerSubmitCid { m, .. }
            | Ev::BuyerFinalize { m }
            | Ev::BuyerSubmitPayments { m }
            | Ev::BuyerDone { m } => Some(m),
            Ev::Mine { .. } => None,
        }
    }
}

/// One endpoint's share of a same-instant run: the markets placed there
/// and its steps (with their index in the run), in pop order.
#[derive(Default)]
struct Shard<'a> {
    markets: Vec<(usize, &'a mut MarketSession, &'a MarketRun)>,
    steps: Vec<(usize, &'a Ev)>,
}

/// What a step's prepare half hands its commit half.
enum Prepared {
    /// The step has no prepare half (the slot barrier; an uploaded owner's
    /// hand-off to the chain).
    Nothing,
    /// Owner work (training, upload) that takes this long on the owner's
    /// timeline.
    Took(SimDuration),
    /// A broadcast transaction: its hash, the signing preflight, and the
    /// shard's backstage height right after the send.
    Sent {
        hash: H256,
        preflight: SimDuration,
        height: u64,
    },
    /// The buyer's finalize pipeline.
    Finalized(Box<Finalized>),
    /// The buyer's payment broadcast: the signing preflight, then per
    /// payment `(recipient, amount, hash, height after the send)`.
    Paid {
        env_cost: SimDuration,
        sent: Vec<(H160, U256, H256, u64)>,
    },
    /// Every owner's local test accuracy, for the session report.
    Done(Vec<f64>),
}

/// The buyer's download → retrieve → aggregate → /loo pipeline: what it
/// found and how long each stage takes.
struct Finalized {
    cids_onchain: Vec<String>,
    cids_retrieved: Vec<String>,
    download: SimDuration,
    retrieve: SimDuration,
    aggregate: SimDuration,
    loo: SimDuration,
    finalize: (Aggregation, LooPayments),
}

/// Runs one prepare half under the engine thread's trace context
/// `(source, vtime)`, holding back its trace events for the commit to
/// replay.
fn traced<T>(ctx: (u32, u64), f: impl FnOnce() -> T) -> (T, Captured) {
    let _ctx = ofl_trace::source_scope(ctx.0, ctx.1);
    ofl_trace::capture(f)
}

/// The prepare half of an endpoint-bound step: the work that touches only
/// the step's own market and its market's endpoint.
fn prepare_step(
    endpoint: &mut Endpoint,
    session: &mut MarketSession,
    run: &MarketRun,
    lan: &Link,
    ev: &Ev,
) -> Result<Prepared, MarketError> {
    match *ev {
        Ev::SubmitDeploy { .. } => {
            let buyer = session.buyer.address;
            let (hash, preflight) = endpoint.submit_tx(
                &session.wallet,
                &buyer,
                None,
                U256::ZERO,
                ModelMarketContract::init_code(),
            )?;
            let height = endpoint.height();
            Ok(Prepared::Sent {
                hash,
                preflight,
                height,
            })
        }
        Ev::OwnerTrained { i, .. } => {
            let (_cid, duration) = session.upload_owner(endpoint, i)?;
            Ok(Prepared::Took(duration))
        }
        Ev::OwnerSubmitCid { i, .. } => {
            let data = run.failures.cid_tx_calldata(session, i)?;
            let (hash, preflight) = session.submit_cid(endpoint, i, data)?;
            let height = endpoint.height();
            Ok(Prepared::Sent {
                hash,
                preflight,
                height,
            })
        }
        Ev::BuyerFinalize { .. } => {
            run.failures.drop_blocks(session, endpoint);
            let (cids_onchain, download) = session.download_cids_computed(endpoint)?;
            // A production client gives up on unfetchable CIDs; retrieve
            // only content some peer on the market's shard can still serve.
            let cids_retrieved = endpoint.retrievable(&cids_onchain);
            let (_n, retrieve) = session.retrieve_models_computed(endpoint, &cids_retrieved)?;
            let (agg, aggregate) = session.aggregate_computed(lan)?;
            let (payments, loo) = session.loo_payments_computed(lan, &agg);
            Ok(Prepared::Finalized(Box::new(Finalized {
                cids_onchain,
                cids_retrieved,
                download,
                retrieve,
                aggregate,
                loo,
                finalize: (agg, payments),
            })))
        }
        Ev::BuyerSubmitPayments { .. } => {
            let (agg, loo) = run.finalize.as_ref().expect("finalize precedes payments");
            // Fee terms are priced at broadcast time, against the base fee
            // the market's shard has *now* — not at finalize time.
            let (env, env_cost) = session.payment_env(endpoint, agg)?;
            let txs = match env {
                Some(env) => session.build_payment_txs(&env, agg, loo),
                None => Vec::new(),
            };
            let mut sent = Vec::with_capacity(txs.len());
            for (address, amount, tx) in txs {
                // The one RPC transfer for the payment batch was charged on
                // the buyer's timeline at finalize; retries (flaky
                // provider) smear onto the global clock inside
                // `broadcast_raw`'s bill, which the engine deliberately
                // leaves unapplied.
                let (result, _cost) = endpoint.broadcast_raw(&tx.encode());
                let hash = result.map_err(|e| MarketError::TxFailed(format!("payment: {e}")))?;
                sent.push((address, amount, hash, endpoint.height()));
            }
            Ok(Prepared::Paid { env_cost, sent })
        }
        Ev::BuyerDone { .. } => Ok(Prepared::Done(session.local_accuracies())),
        Ev::OwnerArrive { .. } | Ev::OwnerUploaded { .. } | Ev::Mine { .. } => {
            unreachable!("prepared off the endpoints")
        }
    }
}

/// Records the `engine.dispatch` trace event for one step.
fn trace_dispatch(ev: &Ev) {
    if !(ofl_trace::tracing_enabled() && ofl_trace::category_enabled(ofl_trace::Category::Engine)) {
        return;
    }
    use ofl_trace::FieldValue;
    let (label, tail): (&'static str, Vec<(&'static str, FieldValue)>) = match ev {
        Ev::SubmitDeploy { m } => ("submit_deploy", vec![("m", (*m).into())]),
        Ev::OwnerArrive { m, i } => ("owner_arrive", vec![("m", (*m).into()), ("i", (*i).into())]),
        Ev::OwnerTrained { m, i } => (
            "owner_trained",
            vec![("m", (*m).into()), ("i", (*i).into())],
        ),
        Ev::OwnerUploaded { m, i } => (
            "owner_uploaded",
            vec![("m", (*m).into()), ("i", (*i).into())],
        ),
        Ev::OwnerSubmitCid { m, i, .. } => (
            "owner_submit_cid",
            vec![("m", (*m).into()), ("i", (*i).into())],
        ),
        Ev::Mine { slot_secs } => ("mine", vec![("slot_secs", (*slot_secs).into())]),
        Ev::BuyerFinalize { m } => ("buyer_finalize", vec![("m", (*m).into())]),
        Ev::BuyerSubmitPayments { m } => ("buyer_submit_payments", vec![("m", (*m).into())]),
        Ev::BuyerDone { m } => ("buyer_done", vec![("m", (*m).into())]),
    };
    let mut fields = vec![("ev", FieldValue::from(label))];
    fields.extend(tail);
    ofl_trace::record_event(
        ofl_trace::Category::Engine,
        ofl_trace::EventKind::Instant,
        "engine.dispatch",
        fields,
    );
}

/// Who is waiting on a mined receipt.
enum Wake {
    Deploy {
        m: usize,
    },
    OwnerCid {
        m: usize,
        i: usize,
        phase_start: SimInstant,
    },
    /// Market `m`'s payment `k` (its index in the broadcast order).
    Payment {
        m: usize,
        k: usize,
    },
}

/// Per-market run state.
struct MarketRun {
    failures: FailurePlan,
    /// Each owner's local time: where that owner's Train → Upload → SendCid
    /// machine has progressed to, independent of the global clock.
    owner_timelines: Vec<Timeline>,
    /// The buyer's local time (deploy wait, finalize pipeline, payment).
    buyer_timeline: Timeline,
    deploy_phase_start: SimInstant,
    contract_ready: bool,
    /// Owners whose CID is ready but whose contract isn't deployed yet.
    parked: Vec<usize>,
    owners_unresolved: usize,
    payment_phase_start: SimInstant,
    outstanding_payments: usize,
    paid: Vec<(H160, U256)>,
    /// Each payment's receipt, in broadcast order, as the slot poll
    /// delivered it.
    payment_receipts: Vec<Option<Receipt>>,
    finalize: Option<(Aggregation, LooPayments)>,
    /// The adversary's `pendingTxs` subscription on the market's shard
    /// (only when the plan front-runs).
    freeload_sub: Option<u64>,
    /// Locally-tracked adversary nonce: several junk registrations can be
    /// broadcast within one slot, before any of them confirms.
    adversary_nonce: u64,
    detail: SessionDetail,
    report: Option<SessionReport>,
}

struct Driver<'a> {
    world: &'a mut World,
    sessions: &'a mut [MarketSession],
    arrivals: Arrivals,
    queue: EventQueue<Ev>,
    pending: Vec<PendingTx<Wake>>,
    scheduled_slots: BTreeSet<u64>,
    markets: Vec<MarketRun>,
    /// The engine's own watchers (one `newHeads` + all-logs + `pendingTxs`
    /// triple per shard) when [`EngineConfig::watch_events`] is set.
    event_subs: Vec<(EndpointId, u64)>,
    events_observed: u64,
    event_digest: u64,
    blocks_mined: u64,
}

impl<'a> Driver<'a> {
    fn new(
        world: &'a mut World,
        sessions: &'a mut [MarketSession],
        engine: &EngineConfig,
        failures: &[FailurePlan],
    ) -> Driver<'a> {
        let mut event_subs = Vec::new();
        if engine.watch_events {
            // Subscribe in (shard, kind) order so ids — and therefore the
            // digest — are identical on every backend kind.
            for ep in (0..world.endpoints()).map(EndpointId) {
                for kind in [
                    SubscriptionKind::NewHeads,
                    SubscriptionKind::Logs {
                        filter: LogFilter::all(),
                    },
                    SubscriptionKind::PendingTxs,
                ] {
                    event_subs.push((ep, world.subscribe(ep, kind)));
                }
            }
        }
        let markets = (0..sessions.len())
            .map(|m| {
                let failures = failures.get(m).cloned().unwrap_or_default();
                failures.shrink_freeloaders(&mut sessions[m]);
                let freeload_sub = (failures.mempool_front_run && sessions[m].adversary.is_some())
                    .then(|| world.subscribe(sessions[m].placement, SubscriptionKind::PendingTxs));
                MarketRun {
                    failures,
                    owner_timelines: vec![Timeline::default(); sessions[m].owners.len()],
                    buyer_timeline: Timeline::default(),
                    deploy_phase_start: SimInstant(0),
                    contract_ready: false,
                    parked: Vec::new(),
                    owners_unresolved: sessions[m].owners.len(),
                    payment_phase_start: SimInstant(0),
                    outstanding_payments: 0,
                    paid: Vec::new(),
                    payment_receipts: Vec::new(),
                    finalize: None,
                    freeload_sub,
                    adversary_nonce: 0,
                    detail: SessionDetail::default(),
                    report: None,
                }
            })
            .collect();
        Driver {
            world,
            sessions,
            arrivals: engine.arrivals,
            queue: EventQueue::new(),
            pending: Vec::new(),
            scheduled_slots: BTreeSet::new(),
            markets,
            event_subs,
            events_observed: 0,
            event_digest: 0xcbf29ce484222325,
            blocks_mined: 0,
        }
    }

    fn run(&mut self) -> Result<EngineReport, MarketError> {
        // Seed the queue: every buyer broadcasts its deploy immediately;
        // every owner arrives per the schedule.
        for m in 0..self.sessions.len() {
            let deploy_rpc = self
                .world
                .tx_submit_time(ModelMarketContract::init_code().len());
            self.queue
                .schedule(SimInstant(deploy_rpc.0), Ev::SubmitDeploy { m });
            for i in 0..self.sessions[m].owners.len() {
                if let Some(offset) = self.arrivals.offset(i) {
                    self.queue
                        .schedule(SimInstant(offset.0), Ev::OwnerArrive { m, i });
                }
            }
        }

        while let Some((t, run)) = self.queue.pop_run(Ev::same_step) {
            self.world.clock.advance_to(t);
            // Prepare every step of the run off the engine thread, then
            // commit them in pop order. Each commit first records its
            // dispatch and replays what its prepare half traced, so the
            // trace reads exactly as if the steps had run one at a time.
            let prepared = self.prepare(&run);
            for (ev, (step, events)) in run.into_iter().zip(prepared) {
                trace_dispatch(&ev);
                events.replay();
                self.commit(ev, step?, t)?;
            }
        }

        let sessions: Vec<SessionReport> = self
            .markets
            .iter_mut()
            .map(|run| run.report.take().expect("every market completed"))
            .collect();
        let details: Vec<SessionDetail> =
            self.markets.iter().map(|run| run.detail.clone()).collect();
        let cid_txs_per_block = self.cid_block_occupancy();
        Ok(EngineReport {
            sessions,
            details,
            total_sim_seconds: self.world.clock.elapsed_secs(),
            cid_txs_per_block,
            rpc: self.world.rpc_metrics_merged(),
            rpc_per_endpoint: self.world.rpc_metrics_per_endpoint(),
            events_observed: self.events_observed,
            event_digest: self.event_digest,
            blocks_mined: self.blocks_mined,
        })
    }

    // -- scheduling helpers ------------------------------------------------

    /// Schedules a `Mine` event for the given slot (once per slot).
    fn schedule_mine(&mut self, slot_secs: u64) {
        if self.scheduled_slots.insert(slot_secs) {
            self.queue
                .schedule(SimInstant(slot_secs * 1_000_000), Ev::Mine { slot_secs });
        }
    }

    /// Schedules owner `i`'s CID broadcast: the owner's timeline advances
    /// to `now` (it may have been blocked waiting for the contract), the
    /// RPC transfer runs from there, and the mempool sees the transaction
    /// when it completes.
    fn schedule_cid_submit(&mut self, m: usize, i: usize, now: SimInstant) {
        let data_len = self.markets[m]
            .failures
            .cid_tx_calldata(&self.sessions[m], i)
            .map_or(4, |data| data.len());
        let rpc = self.world.tx_submit_time(data_len);
        let timeline = &mut self.markets[m].owner_timelines[i];
        let phase_start = timeline.advance_to(now);
        let submit_at = timeline.advance(rpc);
        self.queue
            .schedule(submit_at, Ev::OwnerSubmitCid { m, i, phase_start });
    }

    /// Marks an owner finished (confirmed, reverted, or dropped out); the
    /// next owner arrives now when owners come one at a time, and the
    /// buyer finalizes once every owner is resolved.
    fn resolve_owner(&mut self, m: usize, at: SimInstant) {
        let run = &mut self.markets[m];
        run.owners_unresolved -= 1;
        if run.owners_unresolved == 0 {
            self.queue.schedule(at, Ev::BuyerFinalize { m });
        } else if self.arrivals == Arrivals::OneAtATime {
            let i = self.sessions[m].owners.len() - run.owners_unresolved;
            self.queue.schedule(at, Ev::OwnerArrive { m, i });
        }
    }

    // -- same-instant runs --------------------------------------------------

    /// The prepare halves of a same-instant run, in pop order. Training
    /// forks over owners; every other step forks over endpoints, each
    /// endpoint's steps in pop order on one worker, so every endpoint sees
    /// the calls the one-at-a-time engine made.
    fn prepare(&mut self, run: &[Ev]) -> Vec<(Result<Prepared, MarketError>, Captured)> {
        // Every prepare half starts from the context a popped step would
        // see on the engine thread.
        let ctx = (ofl_trace::source(), ofl_trace::vtime());
        match run[0] {
            Ev::Mine { .. } | Ev::OwnerUploaded { .. } => run
                .iter()
                .map(|_| (Ok(Prepared::Nothing), Captured::default()))
                .collect(),
            Ev::OwnerArrive { .. } => self.prepare_training(run, ctx),
            _ => self.prepare_on_endpoints(run, ctx),
        }
    }

    /// Trains every arriving owner of the run as one fork/join over owners:
    /// training touches only the owner's own silo and model.
    fn prepare_training(
        &mut self,
        run: &[Ev],
        ctx: (u32, u64),
    ) -> Vec<(Result<Prepared, MarketError>, Captured)> {
        let mut owners: Vec<(&MarketConfig, Vec<Option<&mut OwnerState>>)> = self
            .sessions
            .iter_mut()
            .map(|MarketSession { config, owners, .. }| {
                (&*config, owners.iter_mut().map(Some).collect())
            })
            .collect();
        let mut work: Vec<(&MarketConfig, &mut OwnerState, usize)> = run
            .iter()
            .map(|ev| {
                let Ev::OwnerArrive { m, i } = *ev else {
                    unreachable!("a run shares one step kind")
                };
                let (config, slots) = &mut owners[m];
                let owner = slots[i].take().expect("each owner arrives once");
                (*config, owner, i)
            })
            .collect();
        fork_join_mut(&mut work, |_, (config, owner, i)| {
            traced(ctx, || Ok(Prepared::Took(owner.train(config, *i))))
        })
    }

    /// Prepares the run's endpoint-bound steps as one fork/join over
    /// endpoints: each endpoint's worker holds the sessions placed on it
    /// and runs its share of the run in pop order.
    fn prepare_on_endpoints(
        &mut self,
        run: &[Ev],
        ctx: (u32, u64),
    ) -> Vec<(Result<Prepared, MarketError>, Captured)> {
        let lan = self.world.profile.lan;
        let placement: Vec<EndpointId> = self.sessions.iter().map(|s| s.placement).collect();
        let market_of = |ev: &Ev| ev.market().expect("endpoint steps belong to a market");
        let mut shards: Vec<Shard> = (0..self.world.endpoints())
            .map(|_| Shard::default())
            .collect();
        for (k, ev) in run.iter().enumerate() {
            shards[placement[market_of(ev)].0].steps.push((k, ev));
        }
        for (m, (session, market)) in self.sessions.iter_mut().zip(&self.markets).enumerate() {
            let shard = &mut shards[placement[m].0];
            if !shard.steps.is_empty() {
                shard.markets.push((m, session, market));
            }
        }
        let groups = shards
            .into_iter()
            .enumerate()
            .filter(|(_, shard)| !shard.steps.is_empty())
            .map(|(e, shard)| (EndpointId(e), shard))
            .collect();
        let answers = self.world.fork_endpoints(groups, |endpoint, shard| {
            shard
                .steps
                .iter()
                .map(|&(k, ev)| {
                    let at = shard
                        .markets
                        .binary_search_by_key(&market_of(ev), |(m, _, _)| *m)
                        .expect("the step's market is placed on its endpoint");
                    let (_, session, market) = &mut shard.markets[at];
                    let (step, events) =
                        traced(ctx, || prepare_step(endpoint, session, market, &lan, ev));
                    (k, step, events)
                })
                .collect::<Vec<_>>()
        });
        // Back from per-endpoint groups to pop order.
        let mut prepared: Vec<_> = answers.into_iter().flatten().collect();
        prepared.sort_unstable_by_key(|&(k, _, _)| k);
        prepared
            .into_iter()
            .map(|(_, step, events)| (step, events))
            .collect()
    }

    /// A step's commit half, on the engine thread in pop order: timelines,
    /// phase recorders, pending receipts, and scheduling.
    fn commit(&mut self, ev: Ev, step: Prepared, t: SimInstant) -> Result<(), MarketError> {
        match (ev, step) {
            (
                Ev::SubmitDeploy { m },
                Prepared::Sent {
                    hash,
                    preflight,
                    height,
                },
            ) => {
                // The wallet's signing reads ride the buyer's own timeline;
                // the deploy-confirm wake will advance past them anyway.
                self.markets[m].buyer_timeline.advance(preflight);
                self.push_pending(m, hash, height, Wake::Deploy { m }, t);
            }
            (Ev::OwnerArrive { m, i }, Prepared::Took(duration)) => {
                self.sessions[m].owner_recorders[i].add(owner_phase::TRAIN, duration);
                let timeline = &mut self.markets[m].owner_timelines[i];
                timeline.advance_to(t);
                let done = timeline.advance(duration);
                self.queue.schedule(done, Ev::OwnerTrained { m, i });
            }
            (Ev::OwnerTrained { m, i }, Prepared::Took(duration)) => {
                self.sessions[m].owner_recorders[i].add(owner_phase::UPLOAD, duration);
                let timeline = &mut self.markets[m].owner_timelines[i];
                timeline.advance_to(t);
                let done = timeline.advance(duration);
                self.queue.schedule(done, Ev::OwnerUploaded { m, i });
            }
            (Ev::OwnerUploaded { m, i }, Prepared::Nothing) => {
                if self.markets[m].failures.dropout.contains(&i) {
                    // Silent dropout: trained and uploaded, never tells the
                    // chain.
                    self.resolve_owner(m, t);
                } else if self.markets[m].contract_ready {
                    self.schedule_cid_submit(m, i, t);
                } else {
                    // The contract isn't deployed yet; the owner's DApp
                    // polls and submits the moment the deployment confirms.
                    self.markets[m].parked.push(i);
                }
            }
            (
                Ev::OwnerSubmitCid { m, i, phase_start },
                Prepared::Sent {
                    hash,
                    preflight,
                    height,
                },
            ) => {
                // The signing reads ride the owner's own timeline; the
                // receipt wake advances past them.
                self.markets[m].owner_timelines[i].advance(preflight);
                let wake = Wake::OwnerCid { m, i, phase_start };
                self.push_pending(m, hash, height, wake, t);
            }
            (Ev::Mine { slot_secs }, Prepared::Nothing) => self.on_mine(slot_secs)?,
            (Ev::BuyerFinalize { m }, Prepared::Finalized(f)) => {
                let Finalized {
                    cids_onchain,
                    cids_retrieved,
                    download,
                    retrieve,
                    aggregate,
                    loo,
                    finalize,
                } = *f;
                let recorder = &mut self.sessions[m].buyer_recorder;
                recorder.add(buyer_phase::DOWNLOAD_CIDS, download);
                recorder.add(buyer_phase::RETRIEVE, retrieve);
                recorder.add(buyer_phase::AGGREGATE, aggregate);
                // The buyer pipelines download → retrieve → aggregate →
                // /loo → payment broadcast on its own timeline; payments
                // reach the mempool together after one RPC transfer.
                let pay_rpc = self.world.tx_submit_time(0);
                let run = &mut self.markets[m];
                run.detail.cids_onchain = cids_onchain;
                run.detail.cids_retrieved = cids_retrieved;
                run.finalize = Some(finalize);
                run.buyer_timeline.advance_to(t);
                run.buyer_timeline.advance(download);
                run.buyer_timeline.advance(retrieve);
                run.payment_phase_start = run.buyer_timeline.advance(aggregate);
                run.buyer_timeline.advance(loo);
                let pay_at = run.buyer_timeline.advance(pay_rpc);
                self.queue.schedule(pay_at, Ev::BuyerSubmitPayments { m });
            }
            (Ev::BuyerSubmitPayments { m }, Prepared::Paid { env_cost, sent }) => {
                // The signing environment is RPC traffic like everything
                // else; its preflight rides the buyer's timeline.
                self.markets[m].buyer_timeline.advance(env_cost);
                for (k, &(_, _, hash, height)) in sent.iter().enumerate() {
                    self.push_pending(m, hash, height, Wake::Payment { m, k }, t);
                }
                let run = &mut self.markets[m];
                run.outstanding_payments = sent.len();
                run.payment_receipts = vec![None; sent.len()];
                run.paid = sent
                    .iter()
                    .map(|&(address, amount, _, _)| (address, amount))
                    .collect();
                if sent.is_empty() {
                    self.queue.schedule(t, Ev::BuyerDone { m });
                }
            }
            (Ev::BuyerDone { m }, Prepared::Done(local_accuracies)) => {
                self.on_buyer_done(m, t, local_accuracies)
            }
            _ => unreachable!("every step kind prepares its own output"),
        }
        Ok(())
    }

    /// Parks market `m`'s transaction broadcast at `t` until its receipt is
    /// polled, and makes sure the next slot mines.
    fn push_pending(&mut self, m: usize, hash: H256, height: u64, wake: Wake, t: SimInstant) {
        let endpoint = self.sessions[m].placement;
        self.pending
            .push(PendingTx::new(endpoint, hash, height, wake));
        let slot = self.world.next_slot_secs(t);
        self.schedule_mine(slot);
    }

    fn on_mine(&mut self, slot_secs: u64) -> Result<(), MarketError> {
        self.scheduled_slots.remove(&slot_secs);
        // The adversary races the slot boundary: everything broadcast since
        // the last slot is still in the mempool, so a junk registration
        // outbidding a victim's tip lands *ahead* of it in this very block.
        self.front_run_mempool()?;
        let blocks = self.world.mine_slot(slot_secs);
        self.blocks_mined += blocks.len() as u64;
        self.harvest_watched_events(slot_secs);
        let now = self.world.clock.now();

        // Poll what the slot's blocks carried; every waiter wakes when its
        // own shard's answer lands.
        let (answers, poll_costs) = self.world.poll_mined(&blocks, &mut self.pending);
        for (p, receipt) in answers {
            let Some(receipt) = receipt else {
                self.pending.push(p);
                continue;
            };
            let wake_at = SimInstant(now.0 + poll_costs[p.endpoint.0].0);
            match p.wake {
                Wake::Deploy { m } => self.on_deploy_confirmed(m, &receipt, wake_at)?,
                Wake::OwnerCid { m, i, phase_start } => {
                    let run = &mut self.markets[m];
                    let session = &mut self.sessions[m];
                    if run.failures.settle_cid_tx(session, i, &receipt)? {
                        run.detail.reverted_tx_count += 1;
                    } else {
                        session.owner_recorders[i]
                            .add(owner_phase::SEND_CID, wake_at.since(phase_start));
                        run.owner_timelines[i].advance_to(wake_at);
                    }
                    self.resolve_owner(m, wake_at);
                }
                Wake::Payment { m, k } => {
                    self.markets[m].payment_receipts[k] = Some(receipt);
                    self.markets[m].outstanding_payments -= 1;
                    if self.markets[m].outstanding_payments == 0 {
                        self.queue.schedule(wake_at, Ev::BuyerDone { m });
                    }
                }
            }
        }
        // Anything still undelivered: evicted, timed out, or re-polled next
        // slot.
        self.world.check_unconfirmed(&self.pending)?;

        // Keep slots coming while work is queued on any shard — or while a
        // flaky poll left receipts undelivered (the next slot's poll
        // retries them).
        let any_mempool =
            (0..self.world.endpoints()).any(|i| self.world.mempool_len(EndpointId(i)) > 0);
        if any_mempool || !self.pending.is_empty() {
            let block_time = self.world.chain_config(EndpointId(0)).block_time;
            self.schedule_mine(slot_secs + block_time);
        }
        Ok(())
    }

    /// The mempool freeloader: markets whose plan set
    /// [`FailurePlan::mempool_front_run`] drain the adversary's
    /// `pendingTxs` subscription just before the slot seals, and outbid
    /// every victim `uploadCid` broadcast with a junk registration at the
    /// victim's tip + 1 wei — the junk lands *ahead* of the victim in the
    /// same block. The junk CID parses as nothing, so the buyer never
    /// retrieves (or pays for) it: the front-runner burns gas on a
    /// worthless contract slot, which is exactly the attack the incentive
    /// layer must price at zero.
    fn front_run_mempool(&mut self) -> Result<(), MarketError> {
        if self.markets.iter().all(|run| run.freeload_sub.is_none()) {
            return Ok(());
        }
        // Pull everything broadcast since the last slot into the inbox; the
        // post-mine pump inside `mine_slot` continues from here, so watched
        // streams see the same deliveries whether or not anyone front-runs.
        self.world.pump_notifications();
        let selector = upload_cid_selector();
        for m in 0..self.markets.len() {
            let Some(sub) = self.markets[m].freeload_sub else {
                continue;
            };
            let ep = self.sessions[m].placement;
            let adversary = self.sessions[m]
                .adversary
                .expect("freeload_sub implies a funded adversary");
            let key = self.sessions[m]
                .wallet
                .account(&adversary)
                .expect("adversary key lives in the session wallet")
                .private_key;
            let chain_id = self.world.chain_config(ep).chain_id;
            for note in self.world.take_notifications(ep, sub) {
                let SubEvent::PendingTx(p) = note.event else {
                    continue;
                };
                if p.sender == adversary || p.selector != Some(selector) {
                    continue;
                }
                let Some(contract) = p.to else { continue };
                // Deliberately unparseable as a CID, unique per victim so
                // each junk registration occupies its own contract slot.
                let junk = format!("junk-{}", self.markets[m].detail.front_run_count);
                let request = TxRequest {
                    chain_id,
                    // Tracked locally: several junk broadcasts can share a
                    // slot, before any of them confirms.
                    nonce: self.markets[m].adversary_nonce,
                    max_priority_fee_per_gas: p.tip.wrapping_add(&U256::ONE),
                    max_fee_per_gas: U256::from(100_000_000_000u64),
                    gas_limit: 300_000,
                    to: Some(contract),
                    value: U256::ZERO,
                    data: ModelMarketContract::upload_cid_calldata(&junk),
                };
                let tx = sign_tx(request, &key)
                    .map_err(|e| MarketError::TxFailed(format!("front-run signing: {e:?}")))?;
                let (result, _cost) = self.world.endpoint(ep).broadcast_raw(&tx.encode());
                result.map_err(|e| MarketError::TxFailed(format!("front-run broadcast: {e}")))?;
                self.markets[m].adversary_nonce += 1;
                self.markets[m].detail.front_run_count += 1;
            }
        }
        Ok(())
    }

    /// Folds every delivery on the engine's own watchers into the report's
    /// event digest. Runs right after `mine_slot`, whose pump has just
    /// parked this slot's notifications (heads, logs, pendings — plus
    /// anything a laggy decorator released) in the world's inbox.
    fn harvest_watched_events(&mut self, slot_secs: u64) {
        if self.event_subs.is_empty() {
            return;
        }
        let mut digest = self.event_digest;
        let mut observed = self.events_observed;
        {
            let mut eat = |bytes: &[u8]| {
                for &b in bytes {
                    digest = (digest ^ b as u64).wrapping_mul(0x100000001b3);
                }
            };
            for (ep, sub) in self.event_subs.clone() {
                for note in self.world.take_notifications(ep, sub) {
                    eat(&slot_secs.to_le_bytes());
                    eat(&(ep.0 as u64).to_le_bytes());
                    eat(&note.sub_id.to_le_bytes());
                    eat(&note.seq.to_le_bytes());
                    eat(format!("{:?}", note.event).as_bytes());
                    observed += 1;
                }
            }
        }
        self.event_digest = digest;
        self.events_observed = observed;
    }

    fn on_deploy_confirmed(
        &mut self,
        m: usize,
        receipt: &Receipt,
        wake_at: SimInstant,
    ) -> Result<(), MarketError> {
        self.sessions[m].finish_deploy(receipt)?;
        let start = self.markets[m].deploy_phase_start;
        self.sessions[m]
            .buyer_recorder
            .add(buyer_phase::DEPLOY, wake_at.since(start));
        self.markets[m].buyer_timeline.advance_to(wake_at);
        self.markets[m].contract_ready = true;
        // Release owners who finished uploading before the contract existed.
        let parked = std::mem::take(&mut self.markets[m].parked);
        for i in parked {
            self.schedule_cid_submit(m, i, wake_at);
        }
        if self.arrivals == Arrivals::OneAtATime {
            self.queue.schedule(wake_at, Ev::OwnerArrive { m, i: 0 });
        }
        Ok(())
    }

    fn on_buyer_done(&mut self, m: usize, t: SimInstant, local_accuracies: Vec<f64>) {
        let ep = self.sessions[m].placement;
        let run = &mut self.markets[m];
        let payments = run
            .paid
            .iter()
            .zip(std::mem::take(&mut run.payment_receipts))
            .map(|(&(address, amount_wei), receipt)| PaymentRow {
                address,
                amount_wei,
                receipt: receipt.expect("every payment's receipt was delivered"),
            })
            .collect();
        run.buyer_timeline.advance_to(t);
        let session = &mut self.sessions[m];
        session
            .buyer_recorder
            .add(buyer_phase::PAYMENT, t.since(run.payment_phase_start));
        let (agg, loo) = run.finalize.take().expect("finalize state present");
        let total_secs = run.buyer_timeline.now().0 as f64 / 1e6;
        run.report = Some(session.assemble_report(
            &agg,
            &loo,
            local_accuracies,
            payments,
            total_secs,
            self.world.rpc_metrics(ep),
        ));
    }

    /// For every mined block on every shard, how many distinct owners'
    /// `uploadCid` transactions it carries (across all markets placed
    /// there).
    fn cid_block_occupancy(&self) -> Vec<(EndpointId, u64, usize)> {
        let mut per_block: std::collections::BTreeMap<(EndpointId, u64), usize> =
            std::collections::BTreeMap::new();
        for session in self.sessions.iter() {
            for owner in &session.owners {
                if let Some(receipt) = &owner.upload_receipt {
                    *per_block
                        .entry((session.placement, receipt.block_number))
                        .or_insert(0) += 1;
                }
            }
        }
        per_block
            .into_iter()
            .map(|((ep, block), n)| (ep, block, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarketConfig;
    use crate::market::Marketplace;

    fn tiny(n_owners: usize) -> MarketConfig {
        MarketConfig {
            n_owners,
            n_train: 100 * n_owners,
            n_test: 80,
            train: ofl_fl::client::TrainConfig {
                dims: vec![784, 16, 10],
                epochs: 1,
                ..ofl_fl::client::TrainConfig::default()
            },
            ..MarketConfig::small_test()
        }
    }

    /// Each of the small market's nine transactions (deploy, four
    /// `uploadCid`, four payments) has its receipt read once, whether the
    /// owners arrive one at a time or all at once.
    #[test]
    fn serial_and_event_driven_runs_read_each_receipt_once() {
        let config = MarketConfig::small_test();
        let (_, serial) = Marketplace::run(config.clone()).expect("serial run");
        let (_, event) = MultiMarket::new(vec![config])
            .run(&EngineConfig::default(), &[])
            .expect("event-driven run");
        let receipt_reads = |rpc: &ProviderMetrics| rpc.method("eth_getTransactionReceipt").calls;
        assert_eq!(receipt_reads(&serial.rpc), 9);
        assert_eq!(receipt_reads(&event.rpc), 9);
        assert_eq!(serial.rpc.round_trips, 31);
    }

    #[test]
    fn concurrent_owners_share_blocks_and_finish_sooner() {
        let config = tiny(4);
        let (_, serial_report) = Marketplace::run(config.clone()).expect("serial run");
        let mm = MultiMarket::new(vec![config]);
        let (mm, report) = mm
            .run(&EngineConfig::default(), &[])
            .expect("event-driven run");
        assert_eq!(report.sessions.len(), 1);
        // All four CID transactions land in one block.
        assert!(report.max_owners_sharing_block() >= 2);
        // Concurrency strictly beats the serial schedule.
        assert!(
            report.sessions[0].total_sim_seconds < serial_report.total_sim_seconds,
            "event {} vs serial {}",
            report.sessions[0].total_sim_seconds,
            serial_report.total_sim_seconds
        );
        // Same participants, same models, same CIDs — only the schedule
        // changed.
        assert_eq!(report.sessions[0].cids, serial_report.cids);
        assert_eq!(
            report.sessions[0].payments.len(),
            serial_report.payments.len()
        );
        assert!(mm.world.chain(EndpointId(0)).height() >= 1);
    }

    #[test]
    fn multi_market_sessions_complete_on_one_chain() {
        let mm = MultiMarket::replicated(&tiny(3), 2);
        assert_eq!(mm.sessions.len(), 2);
        let genesis_supply = mm.world.chain(EndpointId(0)).state().total_supply();
        let (mm, report) = mm.run(&EngineConfig::default(), &[]).expect("runs");
        assert_eq!(report.sessions.len(), 2);
        for session_report in &report.sessions {
            assert_eq!(session_report.payments.len(), 3);
        }
        // Distinct markets, distinct CIDs (decorrelated seeds).
        assert_ne!(report.sessions[0].cids, report.sessions[1].cids);
        // One shared chain conserved ETH across both markets.
        let live = mm.world.chain(EndpointId(0)).state().total_supply();
        let burned = mm.world.chain(EndpointId(0)).burned();
        assert_eq!(live.wrapping_add(&burned), genesis_supply);
    }

    #[test]
    fn staggered_arrivals_spread_cid_blocks() {
        let config = tiny(3);
        let engine = EngineConfig {
            arrivals: Arrivals::Staggered(SimDuration::from_secs(30)),
            ..EngineConfig::default()
        };
        let (_, report) = MultiMarket::new(vec![config])
            .run(&engine, &[])
            .expect("runs");
        // 30 s apart with 12 s slots: every owner's CID lands in its own
        // block.
        assert!(report.cid_txs_per_block.len() >= 2);
        assert_eq!(report.max_owners_sharing_block(), 1);
    }

    #[test]
    fn engine_reruns_are_deterministic() {
        let run = || {
            let (_, report) = MultiMarket::replicated(&tiny(3), 2)
                .run(&EngineConfig::default(), &[])
                .expect("runs");
            report
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_sim_seconds, b.total_sim_seconds);
        assert_eq!(a.cid_txs_per_block, b.cid_txs_per_block);
        for (ra, rb) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(ra.cids, rb.cids);
            assert_eq!(ra.total_sim_seconds, rb.total_sim_seconds);
            assert_eq!(
                ra.payments.iter().map(|p| p.amount_wei).collect::<Vec<_>>(),
                rb.payments.iter().map(|p| p.amount_wei).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn cross_shard_markets_land_in_different_chains_blocks() {
        let mm = MultiMarket::replicated_sharded(&tiny(3), 2, 2);
        assert_eq!(mm.world.endpoints(), 2);
        let (mm, report) = mm.run(&EngineConfig::default(), &[]).expect("runs");
        assert_eq!(report.sessions.len(), 2);
        for session_report in &report.sessions {
            assert_eq!(session_report.payments.len(), 3);
        }
        // CID transactions landed on both chains — and only each market's
        // own shard carries its transactions.
        assert_eq!(
            report.shards_with_cid_txs(),
            vec![EndpointId(0), EndpointId(1)]
        );
        assert!(mm.world.chain(EndpointId(0)).height() >= 1);
        assert!(mm.world.chain(EndpointId(1)).height() >= 1);
        // Both endpoints metered their own market's traffic, and the
        // rollup equals the per-endpoint sum.
        let per = &report.rpc_per_endpoint;
        assert!(per[0].total_calls() > 0 && per[1].total_calls() > 0);
        assert_eq!(
            report.rpc.total_calls(),
            per[0].total_calls() + per[1].total_calls()
        );
        assert_eq!(
            report.rpc.round_trips,
            per[0].round_trips + per[1].round_trips
        );
        // Each session report carries its own endpoint's snapshot.
        assert_eq!(report.sessions[0].rpc.total_calls(), per[0].total_calls());
        assert_eq!(report.sessions[1].rpc.total_calls(), per[1].total_calls());
    }

    #[test]
    fn watched_event_streams_are_deterministic() {
        let watched = EngineConfig {
            watch_events: true,
            ..EngineConfig::default()
        };
        let run = || {
            let (_, report) = MultiMarket::new(vec![tiny(3)])
                .run(&watched, &[])
                .expect("watched run");
            (report.events_observed, report.event_digest)
        };
        let a = run();
        // Heads and pending transactions both crossed the watchers.
        assert!(a.0 > 0, "watchers must observe the run's events");
        assert_eq!(a, run(), "the event stream digest is a pure function");
        // An unwatched run opens no subscriptions and observes nothing.
        let (_, quiet) = MultiMarket::new(vec![tiny(3)])
            .run(&EngineConfig::default(), &[])
            .expect("unwatched run");
        assert_eq!(quiet.events_observed, 0);
    }

    #[test]
    fn engine_supports_failure_injection() {
        let config = tiny(4);
        let failures = FailurePlan {
            dropout: vec![1],
            revert_cid_tx: vec![2],
            ..FailurePlan::clean()
        };
        let (_, report) = MultiMarket::new(vec![config])
            .run(&EngineConfig::default(), &[failures])
            .expect("runs");
        let detail = &report.details[0];
        assert_eq!(detail.cids_onchain.len(), 2);
        assert_eq!(detail.reverted_tx_count, 1);
        assert_eq!(report.sessions[0].payments.len(), 2);
    }
}
