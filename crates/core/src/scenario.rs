//! Scenario harness: parameterized, failure-injecting marketplace sessions.
//!
//! The integration suites and the paper-figure binaries all need the same
//! thing — "run the 7-step workflow under regime X and compare outcomes" —
//! and before this module each caller hand-rolled the session loop. A
//! [`Scenario`] bundles a [`MarketConfig`] (owner count, partition scheme,
//! seed) with a [`FailurePlan`] (dropped IPFS blocks, reverted transactions,
//! freeloading owners, silent dropouts) and an [`ExecutionMode`] (how many
//! markets share one world, on how many shards, and how their owners
//! arrive — one at a time for the paper's serial workflow), and runs the
//! workflow on the event engine with the failures injected at the layer
//! where they would really occur. Each injection is one [`FailurePlan`]
//! method, called in one place by the engine:
//!
//! - **Freeloaders** train on a 3-example silo, so their "model" is noise —
//!   the incentive layer should price them near zero. Their silos shrink
//!   once, before any step runs.
//! - **Dropouts** train and upload to IPFS but never send their CID, so the
//!   chain (and therefore the buyer) never learns about them.
//! - **Reverted transactions** replace the owner's `uploadCid` call with an
//!   unknown-selector call the contract rejects; the owner pays gas, the
//!   CID never lands on-chain.
//! - **Dropped IPFS blocks** garbage-collect the owner's model *after* its
//!   CID was registered on-chain, just before the buyer downloads — the
//!   buyer sees the CID but no peer can serve the content, the classic
//!   availability failure of content-addressed storage.
//!
//! Every session produces a [`ScenarioOutcome`] carrying the quantities the
//! paper's figures compare (accuracy, payments, gas, timing) plus
//! system-level invariants (ETH conservation, budget exhaustion), and
//! [`ScenarioSuite`] runs whole regime sweeps. Outcomes are `PartialEq` and
//! hashable via [`ScenarioOutcome::fingerprint`], which is what the
//! determinism regression tests compare — in every execution mode.

use crate::config::{MarketConfig, PartitionScheme};
use crate::engine::{Arrivals, EngineConfig, MultiMarket};
use crate::market::{MarketError, MarketSession};
use crate::world::Endpoint;
use ofl_eth::block::Receipt;
use ofl_netsim::clock::SimDuration;
use ofl_primitives::u256::U256;
use ofl_primitives::{format_eth, H160};
use ofl_rpc::{
    EndpointId, FaultProfile, RateLimitProfile, ReorderProfile, SpikeProfile, StaleProfile,
    SubLagProfile,
};

/// Which owners misbehave (indices into the owner list) and how.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailurePlan {
    /// Owners whose model blocks vanish from the swarm after their CID is
    /// registered on-chain.
    pub drop_ipfs_blocks: Vec<usize>,
    /// Owners whose `uploadCid` transaction reverts on-chain.
    pub revert_cid_tx: Vec<usize>,
    /// Owners who train on an (effectively empty) 3-example silo.
    pub freeload: Vec<usize>,
    /// Owners who never send their CID to the contract.
    pub dropout: Vec<usize>,
    /// A funded non-participant watches the mempool over a `pendingTxs`
    /// subscription and front-runs every `uploadCid` broadcast with a junk
    /// registration at tip + 1 wei (event-driven modes only; requires
    /// [`MarketConfig::fund_adversary`], which
    /// [`Scenario::with_mempool_freeloader`] sets alongside this flag).
    pub mempool_front_run: bool,
}

impl FailurePlan {
    /// A plan with no injected failures.
    pub fn clean() -> FailurePlan {
        FailurePlan::default()
    }

    /// True when nothing is injected.
    pub fn is_clean(&self) -> bool {
        self == &FailurePlan::default()
    }

    /// Owners that never get a usable CID on-chain (reverted or dropout).
    fn is_offchain(&self, owner: usize) -> bool {
        self.revert_cid_tx.contains(&owner) || self.dropout.contains(&owner)
    }

    /// Shrinks every freeloader's silo to (at most) 3 examples, before any
    /// step runs; the owner still goes through the whole honest protocol.
    pub(crate) fn shrink_freeloaders(&self, session: &mut MarketSession) {
        for &i in &self.freeload {
            if let Some(owner) = session.owners.get_mut(i) {
                let keep: Vec<usize> = (0..owner.data.len().min(3)).collect();
                owner.data = owner.data.subset(&keep);
            }
        }
    }

    /// The calldata owner `i`'s CID transaction carries: for an owner whose
    /// transaction the plan reverts, an unknown selector the contract's
    /// dispatcher rejects (the owner pays intrinsic + execution gas, no CID
    /// lands); otherwise the real `uploadCid` call.
    pub(crate) fn cid_tx_calldata(
        &self,
        session: &MarketSession,
        i: usize,
    ) -> Result<Vec<u8>, MarketError> {
        if self.revert_cid_tx.contains(&i) {
            Ok(vec![0xde, 0xad, 0xbe, 0xef])
        } else {
            session.cid_calldata(i)
        }
    }

    /// Settles owner `i`'s mined CID transaction. An injected revert must
    /// have reverted on-chain, and yields `true`; any other receipt is the
    /// owner's `uploadCid` ([`MarketSession::finish_cid`]) and yields
    /// `false`.
    pub(crate) fn settle_cid_tx(
        &self,
        session: &mut MarketSession,
        i: usize,
        receipt: &Receipt,
    ) -> Result<bool, MarketError> {
        if !self.revert_cid_tx.contains(&i) {
            session.finish_cid(i, receipt)?;
            return Ok(false);
        }
        if receipt.is_success() {
            return Err(MarketError::TxFailed(format!(
                "injected revert for owner {i} unexpectedly succeeded"
            )));
        }
        Ok(true)
    }

    /// Unpins and garbage-collects every planned owner's model on its IPFS
    /// node — called once the CIDs are public, before the buyer downloads.
    /// Like every other injection, an index past the owner list names
    /// nobody.
    pub(crate) fn drop_blocks(&self, session: &MarketSession, endpoint: &mut Endpoint) {
        for &i in &self.drop_ipfs_blocks {
            let Some(owner) = session.owners.get(i) else {
                continue;
            };
            if let Some(cid) = &owner.cid {
                endpoint.drop_ipfs_block(owner.ipfs_node, cid);
            }
        }
    }
}

/// How a scenario's session(s) are driven: `markets` replicated sessions
/// sharing one world on the event engine. With `shards == 1` every market
/// contends for one chain's blocks; with more, markets are spread
/// round-robin across the pool's endpoints and contend only with
/// same-shard siblings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionMode {
    /// How many concurrent marketplace sessions.
    pub markets: usize,
    /// Owner arrival pattern (per market).
    pub arrivals: Arrivals,
    /// How many chains the world's provider pool fronts.
    pub shards: usize,
}

impl ExecutionMode {
    /// The paper's workflow: one market on one chain, its owners arriving
    /// one at a time.
    pub const SERIAL: ExecutionMode = ExecutionMode {
        markets: 1,
        arrivals: Arrivals::OneAtATime,
        shards: 1,
    };
}

/// One parameterized marketplace session.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (used in reports and assertions).
    pub name: String,
    /// Full marketplace configuration (owners, partition, seed, chain…).
    pub config: MarketConfig,
    /// Injected failures.
    pub failures: FailurePlan,
    /// Markets, shards and owner arrivals.
    pub mode: ExecutionMode,
    /// Open the engine's event watchers.
    pub watch_events: bool,
}

impl Scenario {
    /// A scenario from an explicit config, with no failures, run serially.
    pub fn new(name: impl Into<String>, config: MarketConfig) -> Scenario {
        Scenario {
            name: name.into(),
            config,
            failures: FailurePlan::clean(),
            mode: ExecutionMode::SERIAL,
            watch_events: false,
        }
    }

    /// A fast test-sized scenario (4 owners, small silos) under the given
    /// partition scheme and seed.
    pub fn small(name: impl Into<String>, partition: PartitionScheme, seed: u64) -> Scenario {
        Scenario::new(
            name,
            MarketConfig {
                partition,
                seed,
                ..MarketConfig::small_test()
            },
        )
    }

    /// Attaches a failure plan.
    pub fn with_failures(mut self, failures: FailurePlan) -> Scenario {
        self.failures = failures;
        self
    }

    /// Runs the session against a seeded flaky RPC provider — the
    /// infrastructure-fault regime (timeouts and retries instead of
    /// misbehaving participants).
    pub fn with_rpc_faults(mut self, faults: FaultProfile) -> Scenario {
        self.config.faults.faults = Some(faults);
        self
    }

    /// Runs the session against a seeded request-quota endpoint — the
    /// rate-limit regime (429s and back-off retries instead of misbehaving
    /// participants).
    pub fn with_rate_limit(mut self, quota: RateLimitProfile) -> Scenario {
        self.config.faults.rate_limit = Some(quota);
        self
    }

    /// Runs the session against a seeded lagging-replica endpoint — the
    /// stale-reads regime (head and receipt reads served late; clients
    /// re-poll through the inconsistency instead of failing).
    pub fn with_stale_reads(mut self, stale: StaleProfile) -> Scenario {
        self.config.faults.stale = Some(stale);
        self
    }

    /// Runs the session against a seeded spiking endpoint — the
    /// latency-spike regime (whole slots where every exchange stalls;
    /// sessions finish late but intact).
    pub fn with_latency_spikes(mut self, spike: SpikeProfile) -> Scenario {
        self.config.faults.spike = Some(spike);
        self
    }

    /// Runs the session against an endpoint that shuffles its batch reply
    /// arrays — the reordered-batch regime (clients must pair answers by
    /// correlation tag, never by position).
    pub fn with_reordered_batches(mut self, reorder: ReorderProfile) -> Scenario {
        self.config.faults.reorder = Some(reorder);
        self
    }

    /// Runs the session against an endpoint whose push subscriptions lag —
    /// the laggy-subscription regime (each subscription's deliveries slip a
    /// seeded number of slots; pollers are unaffected).
    pub fn with_sub_lag(mut self, lag: SubLagProfile) -> Scenario {
        self.config.faults.sub_lag = Some(lag);
        self
    }

    /// Opens the engine's own event watchers during event-driven runs (see
    /// [`EngineConfig::watch_events`]) — what the laggy-subscription regime
    /// flips so the lag decorator actually has traffic to delay.
    pub fn with_event_watch(mut self) -> Scenario {
        self.watch_events = true;
        self
    }

    /// Funds a mempool-watching adversary and lets it front-run every
    /// `uploadCid` broadcast — the push-streaming attack regime. The attack
    /// targets a contended mempool, so the serial mode becomes one
    /// concurrent market.
    pub fn with_mempool_freeloader(mut self) -> Scenario {
        self.config.fund_adversary = true;
        self.failures.mempool_front_run = true;
        if self.mode == ExecutionMode::SERIAL {
            self = self.concurrent();
        }
        self
    }

    /// Sets the execution mode.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Scenario {
        self.mode = mode;
        self
    }

    /// Shorthand: one market, all owners arriving at once.
    pub fn concurrent(self) -> Scenario {
        self.with_mode(ExecutionMode {
            arrivals: Arrivals::Simultaneous,
            ..ExecutionMode::SERIAL
        })
    }

    /// Executes the workflow under this scenario's mode and injections and
    /// distills every market's session into one comparable record
    /// (accuracies averaged, payments/gas/CIDs concatenated in market
    /// order).
    pub fn run(&self) -> Result<ScenarioOutcome, MarketError> {
        let ExecutionMode {
            markets,
            arrivals,
            shards,
        } = self.mode;
        let markets = markets.max(1);
        let engine = EngineConfig {
            arrivals,
            watch_events: self.watch_events,
        };
        let failures = vec![self.failures.clone(); markets];
        let (mut mm, report) = MultiMarket::replicated_sharded(&self.config, markets, shards)
            .run(&engine, &failures)?;

        let honest = (0..self.config.n_owners)
            .filter(|&i| !self.failures.is_offchain(i))
            .count();
        for detail in &report.details {
            // The front-runner shadows every honest registration with a
            // junk one, doubling the contract's CID list.
            if self.failures.mempool_front_run {
                assert_eq!(
                    detail.front_run_count, honest,
                    "{}: every honest uploadCid must be front-run exactly once",
                    self.name
                );
            }
            assert_eq!(
                detail.cids_onchain.len(),
                honest + detail.front_run_count,
                "{}: injected off-chain failures must match the contract state",
                self.name
            );
        }

        // ETH conservation: what the markets' genesis allocations funded ==
        // live balances + EIP-1559 burn, summed over the world's shards.
        let genesis = mm
            .sessions
            .iter()
            .fold(U256::ZERO, |acc, s| acc.wrapping_add(&s.genesis_wei));
        let held = (0..mm.world.endpoints())
            .map(EndpointId)
            .fold(U256::ZERO, |acc, ep| {
                let supply = mm.world.total_supply(ep);
                acc.wrapping_add(&supply).wrapping_add(&mm.world.burned(ep))
            });
        let eth_conserved = held == genesis;

        let mut local_accuracies = Vec::new();
        let mut payments = Vec::new();
        let mut gas_rows = Vec::new();
        let mut cids_onchain = Vec::new();
        let mut cids_retrieved = Vec::new();
        let mut total_paid = U256::ZERO;
        let mut budget = U256::ZERO;
        let mut accuracy_sum = 0.0;
        let mut reverted_tx_count = 0;
        for (m, (session, detail)) in report.sessions.iter().zip(&report.details).enumerate() {
            local_accuracies.extend_from_slice(&session.local_accuracies);
            payments.extend(session.payments.iter().map(|p| (p.address, p.amount_wei)));
            // Market 0 stays unprefixed, matching the blueprint labels.
            let prefix = if m == 0 {
                String::new()
            } else {
                format!("m{m}/")
            };
            gas_rows.extend(
                session
                    .gas
                    .iter()
                    .map(|g| (format!("{prefix}{}", g.label), g.gas_used)),
            );
            cids_onchain.extend_from_slice(&detail.cids_onchain);
            cids_retrieved.extend_from_slice(&detail.cids_retrieved);
            total_paid = total_paid.wrapping_add(&session.total_paid());
            budget = budget.wrapping_add(&self.config.budget_wei);
            accuracy_sum += session.aggregated_accuracy;
            reverted_tx_count += detail.reverted_tx_count;
        }
        let n_sessions = report.sessions.len().max(1);
        let rpc = mm.world.rpc_metrics_merged();
        Ok(ScenarioOutcome {
            name: self.name.clone(),
            seed: self.config.seed,
            n_owners: self.config.n_owners * n_sessions,
            n_models_aggregated: cids_retrieved.len(),
            aggregated_accuracy: accuracy_sum / n_sessions as f64,
            total_paid_wei: total_paid,
            local_accuracies,
            payments,
            budget_wei: budget,
            total_gas: gas_rows.iter().map(|(_, g)| g).sum(),
            gas_rows,
            reverted_tx_count,
            eth_conserved,
            cids_onchain,
            cids_retrieved,
            total_sim_seconds: report.total_sim_seconds,
            rpc_round_trips: rpc.round_trips,
            rpc_timeouts: rpc.total_errors(),
            rpc_cost_micros: rpc.total_cost().as_micros(),
        })
    }
}

/// The comparable distillation of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name (copied from [`Scenario::name`]).
    pub name: String,
    /// Master seed the session ran under.
    pub seed: u64,
    /// Configured owner count (summed across markets).
    pub n_owners: usize,
    /// Models the buyer(s) actually retrieved and aggregated.
    pub n_models_aggregated: usize,
    /// Test accuracy of the aggregated model (mean across markets).
    pub aggregated_accuracy: f64,
    /// Per-owner local accuracies (all owners, including failed ones).
    pub local_accuracies: Vec<f64>,
    /// `(recipient, wei)` rows, in retrieval order.
    pub payments: Vec<(H160, U256)>,
    /// Sum of all payments.
    pub total_paid_wei: U256,
    /// Configured buyer budget (summed across markets).
    pub budget_wei: U256,
    /// `(label, gas_used)` per transaction.
    pub gas_rows: Vec<(String, u64)>,
    /// Total gas across deploy/upload/payment transactions.
    pub total_gas: u64,
    /// Injected transactions that (as intended) reverted on-chain.
    pub reverted_tx_count: usize,
    /// Genesis supply == balances + burn held at session end.
    pub eth_conserved: bool,
    /// Every CID the contract(s) returned.
    pub cids_onchain: Vec<String>,
    /// The subset of CIDs the buyer(s) could still fetch.
    pub cids_retrieved: Vec<String>,
    /// Virtual seconds the whole session took.
    pub total_sim_seconds: f64,
    /// Provider round trips the session's traffic cost (metered).
    pub rpc_round_trips: u64,
    /// Provider requests that timed out (non-zero under a flaky provider).
    pub rpc_timeouts: u64,
    /// Total virtual microseconds priced onto provider traffic.
    pub rpc_cost_micros: u64,
}

impl ScenarioOutcome {
    /// Payments exhausted the budget exactly (the Table 1 invariant).
    pub fn budget_exhausted(&self) -> bool {
        self.total_paid_wei == self.budget_wei
    }

    /// An order-sensitive digest of everything comparable in the outcome.
    /// Two runs of the same scenario must produce identical fingerprints;
    /// this is what the determinism regression tests assert.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        eat(self.name.as_bytes());
        eat(&self.seed.to_le_bytes());
        eat(&(self.n_owners as u64).to_le_bytes());
        eat(&(self.n_models_aggregated as u64).to_le_bytes());
        eat(&self.aggregated_accuracy.to_le_bytes());
        for acc in &self.local_accuracies {
            eat(&acc.to_le_bytes());
        }
        for (addr, amount) in &self.payments {
            eat(addr.as_bytes());
            eat(&amount.to_be_bytes());
        }
        eat(&self.total_paid_wei.to_be_bytes());
        eat(&self.budget_wei.to_be_bytes());
        for (label, gas) in &self.gas_rows {
            eat(label.as_bytes());
            eat(&gas.to_le_bytes());
        }
        eat(&self.total_gas.to_le_bytes());
        eat(&(self.reverted_tx_count as u64).to_le_bytes());
        eat(&[self.eth_conserved as u8]);
        for cid in &self.cids_onchain {
            eat(cid.as_bytes());
        }
        for cid in &self.cids_retrieved {
            eat(cid.as_bytes());
        }
        eat(&self.total_sim_seconds.to_le_bytes());
        eat(&self.rpc_round_trips.to_le_bytes());
        eat(&self.rpc_timeouts.to_le_bytes());
        eat(&self.rpc_cost_micros.to_le_bytes());
        h
    }

    /// One table row: name, models, accuracy, payments, gas, conservation.
    pub fn render_row(&self) -> String {
        format!(
            "{:<28} {:>2}/{:<2} {:>7.2}%  paid {:>10} ETH  gas {:>9}  {}",
            self.name,
            self.n_models_aggregated,
            self.n_owners,
            self.aggregated_accuracy * 100.0,
            format_eth(&self.total_paid_wei, 6),
            self.total_gas,
            if self.eth_conserved {
                "eth-ok"
            } else {
                "ETH-LEAK"
            },
        )
    }
}

/// A named batch of scenarios run back to back.
#[derive(Debug, Clone, Default)]
pub struct ScenarioSuite {
    /// The scenarios, in execution order.
    pub scenarios: Vec<Scenario>,
}

impl ScenarioSuite {
    /// An empty suite.
    pub fn new() -> ScenarioSuite {
        ScenarioSuite::default()
    }

    /// Adds a scenario (builder style).
    pub fn push(mut self, scenario: Scenario) -> ScenarioSuite {
        self.scenarios.push(scenario);
        self
    }

    /// The four partition regimes of the integration suite, failure-free,
    /// at test scale.
    pub fn partition_sweep(seed: u64) -> ScenarioSuite {
        ScenarioSuite::new()
            .push(Scenario::small("iid", PartitionScheme::Iid, seed))
            .push(Scenario::small(
                "dirichlet-0.5",
                PartitionScheme::Dirichlet { alpha: 0.5 },
                seed.wrapping_add(1),
            ))
            .push(Scenario::small(
                "shards-2",
                PartitionScheme::Shards { per_client: 2 },
                seed.wrapping_add(2),
            ))
            .push(Scenario::small(
                "label-skew-3",
                PartitionScheme::LabelSkew { classes: 3 },
                seed.wrapping_add(3),
            ))
    }

    /// Failure-injection regimes at test scale: availability loss, on-chain
    /// revert, freeloading, dropout, a combined storm, and the five
    /// infrastructure regimes (flaky provider, rate limiting, stale reads,
    /// latency spikes, reordered batches).
    pub fn failure_sweep(seed: u64) -> ScenarioSuite {
        ScenarioSuite::new()
            .push(
                Scenario::small("dropped-ipfs-block", PartitionScheme::Iid, seed).with_failures(
                    FailurePlan {
                        drop_ipfs_blocks: vec![1],
                        ..FailurePlan::clean()
                    },
                ),
            )
            .push(
                Scenario::small(
                    "reverted-cid-tx",
                    PartitionScheme::Iid,
                    seed.wrapping_add(1),
                )
                .with_failures(FailurePlan {
                    revert_cid_tx: vec![2],
                    ..FailurePlan::clean()
                }),
            )
            .push(
                Scenario::small(
                    "freeloading-owner",
                    PartitionScheme::Dirichlet { alpha: 0.5 },
                    seed.wrapping_add(2),
                )
                .with_failures(FailurePlan {
                    freeload: vec![0],
                    ..FailurePlan::clean()
                }),
            )
            .push(
                Scenario::small("silent-dropout", PartitionScheme::Iid, seed.wrapping_add(3))
                    .with_failures(FailurePlan {
                        dropout: vec![3],
                        ..FailurePlan::clean()
                    }),
            )
            .push(
                Scenario::small(
                    "failure-storm",
                    PartitionScheme::Dirichlet { alpha: 0.5 },
                    seed.wrapping_add(4),
                )
                .with_failures(FailurePlan {
                    drop_ipfs_blocks: vec![0],
                    revert_cid_tx: vec![1],
                    freeload: vec![2],
                    ..FailurePlan::clean()
                }),
            )
            .push(
                // The infrastructure is what misbehaves here: a seeded
                // flaky RPC endpoint drops ~15% of requests, the world
                // retries, and the session completes late but intact.
                Scenario::small("flaky-provider", PartitionScheme::Iid, seed.wrapping_add(5))
                    .with_rpc_faults(FaultProfile::new(seed ^ 0xF1A5, 0.15)),
            )
            .push(
                // A quota-enforcing endpoint: bursts past ~6 requests per
                // slot draw 429s, clients back off and retry, and the
                // session completes late but intact.
                Scenario::small("rate-limited", PartitionScheme::Iid, seed.wrapping_add(6))
                    .with_rate_limit(RateLimitProfile::new(seed ^ 0x0429, 6)),
            )
            .push(
                // A lagging replica: head and receipt reads run up to two
                // slots behind the canonical chain, so confirmations arrive
                // late and clients re-poll — but every model still lands.
                Scenario::small("stale-reads", PartitionScheme::Iid, seed.wrapping_add(7))
                    .with_stale_reads(StaleProfile::new(seed ^ 0x57A1, 2)),
            )
            .push(
                // A congested provider: seeded coin flips open 2-slot
                // windows where every exchange stalls an extra 2 seconds,
                // then the endpoint recovers — sessions run late but land.
                Scenario::small("latency-spike", PartitionScheme::Iid, seed.wrapping_add(8))
                    .with_latency_spikes(SpikeProfile::new(seed ^ 0x591C, 0.3)),
            )
            .push(
                // An out-of-order server: every batch reply array comes
                // back seeded-shuffled with its tags intact, and clients
                // pair answers by tag — the outcome matches a clean run.
                Scenario::small(
                    "reordered-batch",
                    PartitionScheme::Iid,
                    seed.wrapping_add(9),
                )
                .with_reordered_batches(ReorderProfile::new(seed ^ 0x0BAD)),
            )
            .push(
                // A mempool-watching adversary: a funded non-participant
                // subscribes to pendingTxs and shadows every uploadCid
                // broadcast with an outbidding junk registration — the junk
                // lands first on-chain but is never retrieved or paid.
                Scenario::small(
                    "mempool-freeloader",
                    PartitionScheme::Iid,
                    seed.wrapping_add(10),
                )
                .with_mempool_freeloader(),
            )
            .push(
                // A laggy push endpoint: every subscription's deliveries
                // slip a seeded number of slots while polled reads stay
                // fresh — watchers run late but the outcome is unchanged.
                Scenario::small("sub-lag", PartitionScheme::Iid, seed.wrapping_add(11))
                    .with_sub_lag(SubLagProfile::new(seed ^ 0x1A66, 2))
                    .with_event_watch()
                    .concurrent(),
            )
    }

    /// Concurrency regimes: the same sessions driven by the discrete-event
    /// engine — simultaneous owners, staggered arrivals, several markets on
    /// one chain, and failure injection under contention.
    pub fn concurrency_sweep(seed: u64) -> ScenarioSuite {
        let eight_owners = MarketConfig {
            n_owners: 8,
            partition: PartitionScheme::Iid,
            seed,
            ..MarketConfig::small_test()
        };
        ScenarioSuite::new()
            .push(Scenario::new("concurrent-8", eight_owners).concurrent())
            .push(
                Scenario::small("staggered-4", PartitionScheme::Iid, seed.wrapping_add(1))
                    .with_mode(ExecutionMode {
                        markets: 1,
                        arrivals: Arrivals::Staggered(SimDuration::from_secs(10)),
                        shards: 1,
                    }),
            )
            .push(
                Scenario::small(
                    "multi-2x4",
                    PartitionScheme::Dirichlet { alpha: 0.5 },
                    seed.wrapping_add(2),
                )
                .with_mode(ExecutionMode {
                    markets: 2,
                    arrivals: Arrivals::Simultaneous,
                    shards: 1,
                }),
            )
            .push(
                // The same two markets, but placed on different chains of a
                // 2-shard pool: their CID transactions land in different
                // chains' blocks instead of contending for one mempool.
                Scenario::small(
                    "sharded-2x4",
                    PartitionScheme::Dirichlet { alpha: 0.5 },
                    seed.wrapping_add(4),
                )
                .with_mode(ExecutionMode {
                    markets: 2,
                    arrivals: Arrivals::Simultaneous,
                    shards: 2,
                }),
            )
            .push(
                Scenario::small(
                    "concurrent-dropout",
                    PartitionScheme::Iid,
                    seed.wrapping_add(3),
                )
                .with_failures(FailurePlan {
                    dropout: vec![2],
                    ..FailurePlan::clean()
                })
                .concurrent(),
            )
    }

    /// Partition sweep plus failure sweep plus concurrency sweep — the full
    /// regression surface.
    pub fn full(seed: u64) -> ScenarioSuite {
        let mut suite = ScenarioSuite::partition_sweep(seed);
        suite
            .scenarios
            .extend(ScenarioSuite::failure_sweep(seed.wrapping_add(100)).scenarios);
        suite
            .scenarios
            .extend(ScenarioSuite::concurrency_sweep(seed.wrapping_add(200)).scenarios);
        suite
    }

    /// Runs every scenario, failing fast on the first error.
    pub fn run(&self) -> Result<Vec<ScenarioOutcome>, MarketError> {
        self.scenarios.iter().map(Scenario::run).collect()
    }

    /// Renders outcomes as an ASCII table.
    pub fn render_table(outcomes: &[ScenarioOutcome]) -> String {
        let mut out = String::from("scenario                     models    acc     payments          gas        invariants\n");
        for outcome in outcomes {
            out.push_str(&outcome.render_row());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_rpc::EndpointFaults;

    fn quick(partition: PartitionScheme, seed: u64) -> Scenario {
        let mut scenario = Scenario::small("quick", partition, seed);
        // Even smaller than small_test: unit tests here only check the
        // orchestration, not model quality.
        scenario.config.n_train = 400;
        scenario.config.n_test = 100;
        scenario.config.train.epochs = 1;
        scenario
    }

    #[test]
    fn clean_scenario_aggregates_everyone_and_conserves_eth() {
        let outcome = quick(PartitionScheme::Iid, 5).run().expect("runs");
        assert_eq!(outcome.n_models_aggregated, outcome.n_owners);
        assert_eq!(outcome.cids_onchain, outcome.cids_retrieved);
        assert!(outcome.eth_conserved);
        assert!(outcome.budget_exhausted());
        assert_eq!(outcome.reverted_tx_count, 0);
        assert_eq!(outcome.payments.len(), outcome.n_owners);
    }

    #[test]
    fn dropout_and_revert_shrink_the_onchain_set() {
        let outcome = quick(PartitionScheme::Iid, 6)
            .with_failures(FailurePlan {
                revert_cid_tx: vec![0],
                dropout: vec![1],
                ..FailurePlan::clean()
            })
            .run()
            .expect("runs");
        assert_eq!(outcome.n_owners, 4);
        assert_eq!(outcome.cids_onchain.len(), 2);
        assert_eq!(outcome.n_models_aggregated, 2);
        assert_eq!(outcome.reverted_tx_count, 1);
        // The reverted transaction still burned gas but landed no CID.
        assert!(outcome.eth_conserved);
        assert!(outcome.budget_exhausted());
    }

    #[test]
    fn dropped_block_is_on_chain_but_not_retrieved() {
        let outcome = quick(PartitionScheme::Iid, 7)
            .with_failures(FailurePlan {
                drop_ipfs_blocks: vec![2],
                ..FailurePlan::clean()
            })
            .run()
            .expect("runs");
        // The CID made it on-chain — the *content* is what vanished.
        assert_eq!(outcome.cids_onchain.len(), 4);
        assert_eq!(outcome.cids_retrieved.len(), 3);
        assert_eq!(outcome.n_models_aggregated, 3);
        assert!(outcome.budget_exhausted());
    }

    #[test]
    fn fingerprint_separates_scenarios_but_not_reruns() {
        let a = quick(PartitionScheme::Iid, 8).run().expect("runs");
        let b = quick(PartitionScheme::Iid, 8).run().expect("runs");
        let c = quick(PartitionScheme::Iid, 9).run().expect("runs");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn concurrent_mode_is_deterministic_and_faster() {
        let serial = quick(PartitionScheme::Iid, 11).run().expect("serial runs");
        let concurrent = || quick(PartitionScheme::Iid, 11).concurrent().run();
        let a = concurrent().expect("concurrent runs");
        let b = concurrent().expect("concurrent reruns");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        // Same participants and models, less virtual time.
        assert_eq!(a.cids_onchain, serial.cids_onchain);
        assert!(a.total_sim_seconds < serial.total_sim_seconds);
        assert!(a.eth_conserved && a.budget_exhausted());

        // Both arrival patterns inject each failure through the same plan
        // methods, so under every plan they agree on what landed, what the
        // buyer could fetch, and what it aggregated and paid.
        let storm = FailurePlan {
            drop_ipfs_blocks: vec![1],
            revert_cid_tx: vec![2],
            freeload: vec![0],
            dropout: vec![3],
            ..FailurePlan::clean()
        };
        let plans = [
            FailurePlan {
                drop_ipfs_blocks: storm.drop_ipfs_blocks.clone(),
                ..FailurePlan::clean()
            },
            FailurePlan {
                revert_cid_tx: storm.revert_cid_tx.clone(),
                ..FailurePlan::clean()
            },
            FailurePlan {
                freeload: storm.freeload.clone(),
                ..FailurePlan::clean()
            },
            FailurePlan {
                dropout: storm.dropout.clone(),
                ..FailurePlan::clean()
            },
            storm.clone(),
        ];
        let sorted = |cids: &[String]| {
            let mut cids = cids.to_vec();
            cids.sort();
            cids
        };
        for plan in plans {
            let run = |scenario: Scenario| scenario.with_failures(plan.clone()).run();
            let serial = run(quick(PartitionScheme::Iid, 11)).expect("serial runs");
            let event = run(quick(PartitionScheme::Iid, 11).concurrent()).expect("engine runs");
            // The engine orders a shared block by tip, so only the on-chain
            // set has to agree.
            assert_eq!(
                sorted(&serial.cids_onchain),
                sorted(&event.cids_onchain),
                "{plan:?}"
            );
            assert_eq!(serial.cids_retrieved, event.cids_retrieved, "{plan:?}");
            assert_eq!(
                serial.n_models_aggregated, event.n_models_aggregated,
                "{plan:?}"
            );
            assert_eq!(
                serial.reverted_tx_count, event.reverted_tx_count,
                "{plan:?}"
            );
            assert_eq!(serial.local_accuracies, event.local_accuracies, "{plan:?}");
            assert_eq!(serial.payments, event.payments, "{plan:?}");
            assert_eq!(
                serial.aggregated_accuracy, event.aggregated_accuracy,
                "{plan:?}"
            );
        }
    }

    #[test]
    fn multi_market_outcome_merges_sessions() {
        let mut scenario = quick(PartitionScheme::Iid, 12).with_mode(ExecutionMode {
            markets: 2,
            arrivals: Arrivals::Simultaneous,
            shards: 1,
        });
        scenario.name = "multi".into();
        let outcome = scenario.run().expect("runs");
        assert_eq!(outcome.n_owners, 8);
        assert_eq!(outcome.n_models_aggregated, 8);
        assert_eq!(outcome.payments.len(), 8);
        // Two budgets, both exhausted.
        assert!(outcome.budget_exhausted());
        assert!(outcome.eth_conserved);
        // Gas rows are namespaced per market.
        assert!(outcome.gas_rows.iter().any(|(l, _)| l == "deploy"));
        assert!(outcome.gas_rows.iter().any(|(l, _)| l == "m1/deploy"));
    }

    #[test]
    fn suite_builders_cover_the_advertised_regimes() {
        let partitions = ScenarioSuite::partition_sweep(1);
        assert_eq!(partitions.scenarios.len(), 4);
        assert!(partitions.scenarios.iter().all(|s| s.failures.is_clean()));
        let failures = ScenarioSuite::failure_sweep(1);
        assert!(failures.scenarios.len() >= 2);
        // Every regime injects *something*: misbehaving participants or a
        // faulty (flaky or throttling) provider.
        assert!(failures
            .scenarios
            .iter()
            .all(|s| !s.failures.is_clean() || s.config.faults != EndpointFaults::default()));
        let any = |knob: fn(&EndpointFaults) -> bool| {
            failures.scenarios.iter().any(|s| knob(&s.config.faults))
        };
        assert!(any(|f| f.faults.is_some()));
        assert!(any(|f| f.rate_limit.is_some()));
        assert!(any(|f| f.stale.is_some()));
        assert!(any(|f| f.spike.is_some()));
        assert!(any(|f| f.reorder.is_some()));
        assert!(any(|f| f.sub_lag.is_some()));
        assert!(failures
            .scenarios
            .iter()
            .any(|s| s.failures.mempool_front_run));
        let concurrency = ScenarioSuite::concurrency_sweep(1);
        assert!(concurrency.scenarios.len() >= 3);
        // The sweep exercises both same-shard and cross-shard placement.
        assert!(concurrency.scenarios.iter().any(|s| s.mode.shards > 1));
        assert!(concurrency
            .scenarios
            .iter()
            .all(|s| s.mode != ExecutionMode::SERIAL));
        let full = ScenarioSuite::full(1);
        assert_eq!(
            full.scenarios.len(),
            partitions.scenarios.len() + failures.scenarios.len() + concurrency.scenarios.len()
        );
    }

    #[test]
    fn flaky_provider_is_deterministic_and_costs_time() {
        let clean = quick(PartitionScheme::Iid, 14).run().expect("clean runs");
        let flaky = || {
            quick(PartitionScheme::Iid, 14)
                .with_rpc_faults(FaultProfile::new(0xF1A5, 0.2))
                .run()
                .expect("flaky session completes via retries")
        };
        let a = flaky();
        let b = flaky();
        // Bit-identical under equal fault seeds, including the rpc counters.
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Faults were actually injected, retried, and survived.
        assert!(a.rpc_timeouts > 0, "20% drops must surface");
        assert_eq!(a.n_models_aggregated, a.n_owners);
        assert!(a.eth_conserved && a.budget_exhausted());
        // Timeouts and retries cost extra round trips and virtual time.
        assert!(a.rpc_round_trips > clean.rpc_round_trips);
        assert!(a.total_sim_seconds > clean.total_sim_seconds);
        // Same marketplace outcome, worse infrastructure: identical CIDs.
        assert_eq!(a.cids_onchain, clean.cids_onchain);
    }

    #[test]
    fn stale_reads_delay_but_never_break_the_session() {
        let clean = quick(PartitionScheme::Iid, 15).run().expect("clean runs");
        let stale = |seed: u64| {
            quick(PartitionScheme::Iid, 15)
                .with_stale_reads(StaleProfile::new(seed, 2))
                .run()
                .expect("stale session completes via re-polls")
        };
        let a = stale(0x57A1);
        let b = stale(0x57A1);
        // Bit-identical under equal staleness seeds.
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Same marketplace outcome, slower confirmations: identical CIDs,
        // at least as much virtual time and polling traffic.
        assert_eq!(a.cids_onchain, clean.cids_onchain);
        assert_eq!(a.n_models_aggregated, a.n_owners);
        assert!(a.eth_conserved && a.budget_exhausted());
        assert!(a.total_sim_seconds >= clean.total_sim_seconds);
        assert!(a.rpc_round_trips >= clean.rpc_round_trips);
    }

    #[test]
    fn latency_spikes_stall_slots_but_never_break_the_session() {
        let clean = quick(PartitionScheme::Iid, 16).run().expect("clean runs");
        let spiked = |seed: u64| {
            quick(PartitionScheme::Iid, 16)
                .with_latency_spikes(SpikeProfile::new(seed, 0.5))
                .run()
                .expect("spiked session completes, just later")
        };
        let a = spiked(0x591C);
        let b = spiked(0x591C);
        // Bit-identical under equal spike seeds.
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Same marketplace outcome, congested infrastructure: identical
        // CIDs, strictly more virtual time (a 50% spike rate must land at
        // least one stall window across the whole workflow).
        assert_eq!(a.cids_onchain, clean.cids_onchain);
        assert_eq!(a.n_models_aggregated, a.n_owners);
        assert!(a.eth_conserved && a.budget_exhausted());
        assert!(a.total_sim_seconds > clean.total_sim_seconds);
    }

    #[test]
    fn reordered_batches_change_nothing_for_tag_matching_clients() {
        let clean = quick(PartitionScheme::Iid, 17).run().expect("clean runs");
        let shuffled = |seed: u64| {
            quick(PartitionScheme::Iid, 17)
                .with_reordered_batches(ReorderProfile::new(seed))
                .run()
                .expect("reordered session completes")
        };
        let a = shuffled(0x0BAD);
        let b = shuffled(0x0BAD);
        // Bit-identical under equal shuffle seeds.
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Reordering only permutes reply arrays — it drops nothing and
        // prices nothing — so a tag-matching client sees the exact same
        // session a clean run does, shuffled seed or not.
        assert_eq!(a, shuffled(0x0F00D));
        assert_eq!(a.cids_onchain, clean.cids_onchain);
        assert_eq!(a.n_models_aggregated, a.n_owners);
        assert!(a.eth_conserved && a.budget_exhausted());
        assert_eq!(a.total_sim_seconds, clean.total_sim_seconds);
        assert_eq!(a.rpc_round_trips, clean.rpc_round_trips);
    }

    #[test]
    fn mempool_freeloader_front_runs_but_goes_unpaid() {
        let run = || {
            quick(PartitionScheme::Iid, 21)
                .with_mempool_freeloader()
                .run()
                .expect("front-run session completes")
        };
        let a = run();
        let b = run();
        // Deterministic by seed, junk registrations included.
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Every honest registration was shadowed by one junk registration…
        assert_eq!(a.n_owners, 4);
        assert_eq!(a.cids_onchain.len(), 8);
        let junk: Vec<&String> = a
            .cids_onchain
            .iter()
            .filter(|c| c.starts_with("junk-"))
            .collect();
        assert_eq!(junk.len(), 4);
        // …and the outbidding junk registered *before* any honest CID.
        assert!(a.cids_onchain[0].starts_with("junk-"));
        // The junk resolves to no content: never retrieved, never paid.
        assert_eq!(a.cids_retrieved.len(), 4);
        assert!(a.cids_retrieved.iter().all(|c| !c.starts_with("junk-")));
        assert_eq!(a.n_models_aggregated, 4);
        assert_eq!(a.payments.len(), 4);
        assert!(a.budget_exhausted());
        // The adversary's gas still burns inside the ledger.
        assert!(a.eth_conserved);
    }

    #[test]
    fn sub_lag_delays_watchers_but_not_outcomes() {
        let clean = quick(PartitionScheme::Iid, 22)
            .with_event_watch()
            .concurrent()
            .run()
            .expect("clean watched run");
        let lagged = |seed: u64| {
            quick(PartitionScheme::Iid, 22)
                .with_sub_lag(SubLagProfile::new(seed, 2))
                .with_event_watch()
                .concurrent()
                .run()
                .expect("lagged watched run")
        };
        let a = lagged(0x1A66);
        let b = lagged(0x1A66);
        // Bit-identical under equal lag seeds.
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Lag only reschedules push deliveries; the marketplace outcome —
        // polled receipts included — is exactly the clean run's.
        assert_eq!(a.cids_onchain, clean.cids_onchain);
        assert_eq!(a.total_sim_seconds, clean.total_sim_seconds);
        assert!(a.eth_conserved && a.budget_exhausted());
    }

    #[test]
    fn out_of_range_owners_are_skipped_by_every_injection() {
        // Owner 9 of a 4-owner market: no block is dropped, no silo
        // shrinks, no transaction reverts, nobody drops out.
        let past_the_end = FailurePlan {
            drop_ipfs_blocks: vec![9],
            revert_cid_tx: vec![9],
            freeload: vec![9],
            dropout: vec![9],
            ..FailurePlan::clean()
        };
        for scenario in [
            quick(PartitionScheme::Iid, 23),
            quick(PartitionScheme::Iid, 23).concurrent(),
        ] {
            let clean = scenario.run().expect("clean run");
            let outcome = scenario
                .with_failures(past_the_end.clone())
                .run()
                .expect("an out-of-range plan completes");
            assert_eq!(outcome.cids_retrieved.len(), 4);
            assert_eq!(outcome, clean);
        }
    }

    #[test]
    fn offchain_helper_matches_plan() {
        let plan = FailurePlan {
            revert_cid_tx: vec![1],
            dropout: vec![2],
            ..FailurePlan::clean()
        };
        assert!(plan.is_offchain(1));
        assert!(plan.is_offchain(2));
        assert!(!plan.is_offchain(0));
        assert!(!plan.is_clean());
        assert!(FailurePlan::clean().is_clean());
    }
}
