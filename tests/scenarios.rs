//! Scenario-suite integration tests: the partition regimes,
//! failure-injection regimes, and event-driven concurrency regimes of
//! `ofl_core::scenario` run end-to-end, deterministically by seed, with the
//! cross-layer invariants holding in every regime.

use std::sync::OnceLock;

use ofl_w3::core::config::{MarketConfig, PartitionScheme};
use ofl_w3::core::engine::{EngineConfig, MultiMarket};
use ofl_w3::core::market::Marketplace;
use ofl_w3::core::scenario::{Scenario, ScenarioOutcome, ScenarioSuite};
use ofl_w3::rpc::EndpointId;

const SUITE_SEED: u64 = 7;

/// Shrinks a suite to unit-test size so the sweep stays fast; the regimes
/// (partitions, failure plans) are exactly what the builders advertise.
fn trimmed(mut suite: ScenarioSuite) -> ScenarioSuite {
    for scenario in &mut suite.scenarios {
        trim(scenario);
    }
    suite
}

fn trim(scenario: &mut Scenario) {
    scenario.config.n_train = 400;
    scenario.config.n_test = 100;
    scenario.config.train.epochs = 1;
}

fn run_full_suite() -> Vec<ScenarioOutcome> {
    trimmed(ScenarioSuite::full(SUITE_SEED))
        .run()
        .expect("every regime completes")
}

/// One shared sweep: several tests assert different properties of the same
/// outcomes, so run the suite once and let the determinism test do the
/// second, independent run.
fn shared_outcomes() -> &'static [ScenarioOutcome] {
    static OUTCOMES: OnceLock<Vec<ScenarioOutcome>> = OnceLock::new();
    OUTCOMES.get_or_init(run_full_suite)
}

#[test]
fn suite_sweeps_partitions_and_failures_deterministically() {
    let suite = trimmed(ScenarioSuite::full(SUITE_SEED));
    // The acceptance bar: at least 4 partition regimes, at least 2
    // failure-injection regimes, and at least 3 concurrency regimes in one
    // engine.
    let clean = suite
        .scenarios
        .iter()
        .filter(|s| s.failures.is_clean())
        .count();
    let faulty = suite
        .scenarios
        .iter()
        .filter(|s| !s.failures.is_clean())
        .count();
    let concurrent = suite
        .scenarios
        .iter()
        .filter(|s| s.mode != ofl_w3::core::scenario::ExecutionMode::Serial)
        .count();
    assert!(clean >= 4, "partition regimes: {clean}");
    assert!(faulty >= 2, "failure regimes: {faulty}");
    assert!(concurrent >= 3, "concurrency regimes: {concurrent}");

    let first = shared_outcomes();
    let second = run_full_suite();
    assert_eq!(first.len(), suite.scenarios.len());
    // Bit-identical outcomes run to run: same payments, accuracies, gas,
    // CIDs, and virtual timing.
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "{} diverged between runs", a.name);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
    // Run-vs-run equality cannot catch a change that reorders a seeded
    // draw in every run alike, so the fault regimes are also pinned across
    // commits. The fingerprint covers RPC round trips, errors, priced cost,
    // and virtual time; a deliberate behaviour change re-records these.
    let pinned = [
        ("flaky-provider", 0x50af_6ca5_840e_3f8d_u64),
        ("rate-limited", 0x31bd_233a_6b69_4c98),
        ("stale-reads", 0xf514_9b69_8654_7efb),
        ("latency-spike", 0x2f56_c7f5_e934_3b5c),
        ("reordered-batch", 0xed4e_ae38_3188_f135),
        ("sub-lag", 0x3801_2289_a35f_2921),
    ];
    for (name, expected) in pinned {
        let outcome = first
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("scenario {name} missing"));
        assert_eq!(
            outcome.fingerprint(),
            expected,
            "{name}: fingerprint moved (0x{:016x})",
            outcome.fingerprint()
        );
    }
}

#[test]
fn seed_changes_data_models_and_cids() {
    let baseline = shared_outcomes()
        .iter()
        .find(|o| o.name == "iid")
        .expect("iid regime present");
    let mut reseeded = Scenario::small("iid", PartitionScheme::Iid, SUITE_SEED + 1000);
    trim(&mut reseeded);
    let outcome = reseeded.run().expect("completes");
    // Same regime, different seed: different silos, models, and CIDs.
    assert_ne!(outcome.cids_onchain, baseline.cids_onchain);
    // But the same system invariants hold.
    assert!(outcome.eth_conserved && outcome.budget_exhausted());
}

#[test]
fn every_regime_upholds_system_invariants() {
    for outcome in shared_outcomes() {
        // ETH is conserved no matter what was injected.
        assert!(outcome.eth_conserved, "{}: ETH leaked", outcome.name);
        // Whoever was aggregated gets paid from the full budget, exactly.
        assert!(outcome.n_models_aggregated > 0, "{}", outcome.name);
        assert!(outcome.budget_exhausted(), "{}", outcome.name);
        assert_eq!(outcome.payments.len(), outcome.n_models_aggregated);
        // Retrieved CIDs are always a subset of what is on-chain.
        assert!(outcome
            .cids_retrieved
            .iter()
            .all(|cid| outcome.cids_onchain.contains(cid)));
        // The chain dominates virtual time, so sessions take minutes.
        assert!(outcome.total_sim_seconds > 12.0, "{}", outcome.name);
    }
}

#[test]
fn failure_regimes_change_what_the_buyer_aggregates() {
    let outcomes = shared_outcomes();
    let by_name = |name: &str| -> &ScenarioOutcome {
        outcomes
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("scenario {name} missing"))
    };
    // Clean partition regimes aggregate everyone.
    for name in ["iid", "dirichlet-0.5", "shards-2", "label-skew-3"] {
        let outcome = by_name(name);
        assert_eq!(outcome.n_models_aggregated, outcome.n_owners, "{name}");
        assert_eq!(outcome.reverted_tx_count, 0, "{name}");
    }
    // A dropped block leaves the CID on-chain but unfetchable.
    let dropped = by_name("dropped-ipfs-block");
    assert_eq!(dropped.cids_onchain.len(), dropped.n_owners);
    assert_eq!(dropped.n_models_aggregated, dropped.n_owners - 1);
    // A reverted uploadCid never reaches the contract.
    let reverted = by_name("reverted-cid-tx");
    assert_eq!(reverted.reverted_tx_count, 1);
    assert_eq!(reverted.cids_onchain.len(), reverted.n_owners - 1);
    // A freeloader is aggregated, but LOO prices it into the bottom of the
    // payment table (same bar as the seed adversarial suite: bottom two).
    let freeload = by_name("freeloading-owner");
    assert_eq!(freeload.n_models_aggregated, freeload.n_owners);
    let freeloader_payment = freeload.payments[0].1;
    let mut sorted: Vec<_> = freeload.payments.iter().map(|(_, w)| *w).collect();
    sorted.sort();
    assert!(
        freeloader_payment <= sorted[1],
        "freeloader overpaid: {freeloader_payment:?} vs {sorted:?}"
    );
    // A silent dropout simply doesn't participate.
    let dropout = by_name("silent-dropout");
    assert_eq!(dropout.cids_onchain.len(), dropout.n_owners - 1);
    // The combined storm still completes and pays the survivors.
    let storm = by_name("failure-storm");
    assert_eq!(storm.n_models_aggregated, storm.n_owners - 2);
    assert!(storm.budget_exhausted());
    // A flaky RPC provider faults the *infrastructure*, not the owners:
    // requests time out and are retried, every model still lands and is
    // aggregated, and the metering shows the wasted round trips.
    let flaky = by_name("flaky-provider");
    assert!(flaky.rpc_timeouts > 0, "flaky regime must drop requests");
    assert_eq!(flaky.n_models_aggregated, flaky.n_owners);
    assert_eq!(flaky.cids_onchain.len(), flaky.n_owners);
    assert!(flaky.budget_exhausted() && flaky.eth_conserved);
    // A throttling endpoint 429s bursts — including the wallet's signing
    // reads — yet back-off retries land every model and payment.
    let limited = by_name("rate-limited");
    assert!(limited.rpc_timeouts > 0, "429s must surface as rpc errors");
    assert_eq!(limited.n_models_aggregated, limited.n_owners);
    assert!(limited.budget_exhausted() && limited.eth_conserved);
}

/// The flaky-provider regime (and the session reports underneath it) are
/// bit-identical under equal fault seeds — the determinism bar the other
/// failure regimes already meet.
#[test]
fn flaky_provider_sessions_are_bit_identical_by_seed() {
    use ofl_w3::rpc::FaultProfile;

    // Scenario level: same sweep seed, same fingerprint.
    let run_flaky = || {
        let mut scenario = ScenarioSuite::failure_sweep(SUITE_SEED.wrapping_add(100))
            .scenarios
            .into_iter()
            .find(|s| s.name == "flaky-provider")
            .expect("flaky regime in the sweep");
        trim(&mut scenario);
        scenario.run().expect("flaky session completes via retries")
    };
    let a = run_flaky();
    let b = run_flaky();
    assert_eq!(a, b);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(a.rpc_timeouts > 0);

    // SessionReport level: every field of the report, including the
    // provider metering, is identical run to run.
    let config = || MarketConfig {
        seed: 4321,
        n_train: 500,
        n_test: 150,
        rpc_faults: Some(FaultProfile::new(0xBEEF, 0.2)),
        ..MarketConfig::small_test()
    };
    let (_, r1) = Marketplace::run(config()).expect("first flaky run");
    let (_, r2) = Marketplace::run(config()).expect("second flaky run");
    assert_eq!(r1.cids, r2.cids);
    assert_eq!(r1.local_accuracies, r2.local_accuracies);
    assert_eq!(r1.aggregated_accuracy, r2.aggregated_accuracy);
    assert_eq!(r1.total_sim_seconds, r2.total_sim_seconds);
    assert_eq!(r1.rpc, r2.rpc, "provider metering must be deterministic");
    assert!(r1.rpc.total_errors() > 0, "faults must actually fire");
    assert_eq!(
        r1.payments.iter().map(|p| p.amount_wei).collect::<Vec<_>>(),
        r2.payments.iter().map(|p| p.amount_wei).collect::<Vec<_>>()
    );
    assert_eq!(r1.buyer_breakdown, r2.buyer_breakdown);
    assert_eq!(r1.owner_breakdowns, r2.owner_breakdowns);
    // A clean run with the same market seed differs only in infrastructure:
    // same CIDs, fewer round trips.
    let clean = MarketConfig {
        rpc_faults: None,
        ..config()
    };
    let (_, r3) = Marketplace::run(clean).expect("clean run");
    assert_eq!(r1.cids, r3.cids);
    assert!(r1.rpc.round_trips > r3.rpc.round_trips);
}

/// The new concurrency regimes are bit-identically deterministic by seed:
/// rerunning the event-driven sweep reproduces every fingerprint.
#[test]
fn concurrency_regimes_are_deterministic_by_seed() {
    let run = || {
        trimmed(ScenarioSuite::concurrency_sweep(
            SUITE_SEED.wrapping_add(200),
        ))
        .run()
        .expect("every concurrency regime completes")
    };
    let first = run();
    let second = run();
    assert!(first.len() >= 3);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "{} diverged between event-driven reruns", a.name);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", a.name);
        assert!(a.eth_conserved, "{}", a.name);
        assert!(a.budget_exhausted(), "{}", a.name);
    }
}

/// The headline acceptance scenario: 32 owners on the discrete-event
/// engine. Their `uploadCid` transactions pile into the shared mempool and
/// get mined into *shared* blocks — at least one block carries
/// transactions from ≥ 2 distinct owners (in fact all of them) — and the
/// session's total virtual time is strictly less than the serial engine's
/// for the same configuration.
#[test]
fn thirty_two_concurrent_owners_share_blocks_and_beat_serial() {
    let config = MarketConfig {
        n_owners: 32,
        n_train: 640,
        n_test: 60,
        partition: PartitionScheme::Iid,
        seed: 33,
        train: ofl_w3::fl::client::TrainConfig {
            dims: vec![784, 8, 10],
            epochs: 1,
            ..ofl_w3::fl::client::TrainConfig::default()
        },
        ..MarketConfig::small_test()
    };

    // Serial baseline: every owner in turn, one CID transaction per block.
    let serial = Scenario::new("serial-32", config.clone())
        .run()
        .expect("serial 32-owner session completes");
    assert_eq!(serial.n_models_aggregated, 32);

    // Event-driven: same config, same world parameters, concurrent owners.
    let (mm, report) = MultiMarket::new(vec![config])
        .run(&EngineConfig::default(), &[])
        .expect("event-driven 32-owner session completes");
    assert_eq!(report.sessions[0].payments.len(), 32);

    // Shared blocks: some block carries CID transactions from at least two
    // distinct owners (simultaneous arrival packs all 32 into one slot).
    assert!(
        report.max_owners_sharing_block() >= 2,
        "cid txs per block: {:?}",
        report.cid_txs_per_block
    );
    let packed: usize = report.cid_txs_per_block.iter().map(|(_, _, n)| n).sum();
    assert_eq!(packed, 32, "every owner's CID landed");

    // Strictly less virtual time than the serial schedule for the same
    // config (the serial engine pays ~12 s of blockchain wait per owner).
    assert!(
        report.sessions[0].total_sim_seconds < serial.total_sim_seconds,
        "event-driven {} s vs serial {} s",
        report.sessions[0].total_sim_seconds,
        serial.total_sim_seconds
    );

    // Same marketplace outcome, different schedule: identical CID sets.
    let mut event_cids = report.sessions[0].cids.clone();
    let mut serial_cids = serial.cids_onchain.clone();
    event_cids.sort();
    serial_cids.sort();
    assert_eq!(event_cids, serial_cids);

    // The contention actually exercised EIP-1559: the packed block moved
    // the base fee, which a one-tx-per-block serial run barely does.
    assert!(mm.world.chain(EndpointId(0)).height() >= 1);
}

/// Shard determinism, half one: a 2-shard `MultiMarket` run — two markets
/// placed on different chains of one provider pool — is bit-identical by
/// seed, down to per-endpoint RPC metering and per-shard block occupancy.
#[test]
fn two_shard_multimarket_is_bit_identical_by_seed() {
    let base = || MarketConfig {
        n_owners: 3,
        n_train: 300,
        n_test: 80,
        partition: PartitionScheme::Iid,
        seed: 77,
        train: ofl_w3::fl::client::TrainConfig {
            dims: vec![784, 16, 10],
            epochs: 1,
            ..ofl_w3::fl::client::TrainConfig::default()
        },
        ..MarketConfig::small_test()
    };
    let run = || {
        let (_, report) = ofl_w3::core::engine::MultiMarket::replicated_sharded(&base(), 2, 2)
            .run(&EngineConfig::default(), &[])
            .expect("sharded run completes");
        report
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_sim_seconds, b.total_sim_seconds);
    assert_eq!(a.cid_txs_per_block, b.cid_txs_per_block);
    assert_eq!(a.rpc, b.rpc);
    assert_eq!(a.rpc_per_endpoint, b.rpc_per_endpoint);
    for (ra, rb) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(ra.cids, rb.cids);
        assert_eq!(ra.total_sim_seconds, rb.total_sim_seconds);
        assert_eq!(ra.rpc, rb.rpc);
        assert_eq!(
            ra.payments.iter().map(|p| p.amount_wei).collect::<Vec<_>>(),
            rb.payments.iter().map(|p| p.amount_wei).collect::<Vec<_>>()
        );
    }
    // The placement did what it says: both shards carried CID traffic, and
    // each market's report snapshots its own endpoint's counters.
    assert_eq!(a.shards_with_cid_txs(), vec![EndpointId(0), EndpointId(1)]);
    assert_eq!(
        a.rpc.total_calls(),
        a.rpc_per_endpoint[0].total_calls() + a.rpc_per_endpoint[1].total_calls()
    );
    // And the scenario layer reaches the same regime deterministically.
    let scenario_run = || {
        let mut scenario = trimmed(ScenarioSuite::concurrency_sweep(
            SUITE_SEED.wrapping_add(200),
        ))
        .scenarios
        .into_iter()
        .find(|s| s.name == "sharded-2x4")
        .expect("sharded regime in the sweep");
        trim(&mut scenario);
        scenario.run().expect("sharded scenario completes")
    };
    let sa = scenario_run();
    let sb = scenario_run();
    assert_eq!(sa, sb);
    assert_eq!(sa.fingerprint(), sb.fingerprint());
    assert!(sa.eth_conserved && sa.budget_exhausted());
}

/// Shard determinism, half two: when both markets share one shard of a
/// 2-endpoint pool, the idle endpoint meters nothing, the busy endpoint's
/// counters equal the single-endpoint world's totals, and the run itself
/// is bit-identical to the pool-of-one world.
#[test]
fn same_shard_metrics_sum_to_single_endpoint_totals() {
    let base = || MarketConfig {
        n_owners: 3,
        n_train: 300,
        n_test: 80,
        partition: PartitionScheme::Iid,
        seed: 78,
        train: ofl_w3::fl::client::TrainConfig {
            dims: vec![784, 16, 10],
            epochs: 1,
            ..ofl_w3::fl::client::TrainConfig::default()
        },
        ..MarketConfig::small_test()
    };
    let configs = || {
        (0..2)
            .map(|m| {
                let mut c = base();
                c.seed = c.seed.wrapping_add(m as u64 * 7919);
                c.train.seed = c.train.seed.wrapping_add(m as u64 * 104_729);
                c
            })
            .collect::<Vec<_>>()
    };
    let (_, single) = ofl_w3::core::engine::MultiMarket::new(configs())
        .run(&EngineConfig::default(), &[])
        .expect("single-endpoint run");
    let (_, padded) = ofl_w3::core::engine::MultiMarket::with_shards(configs(), 2)
        .run(&EngineConfig::default(), &[])
        .expect("2-endpoint same-placement run");
    // The idle shard saw nothing; the busy shard saw everything.
    assert_eq!(padded.rpc_per_endpoint[1].total_calls(), 0);
    assert_eq!(padded.rpc_per_endpoint[0], single.rpc);
    // Per-endpoint metering sums to the single-endpoint totals.
    assert_eq!(
        padded.rpc_per_endpoint[0].total_calls() + padded.rpc_per_endpoint[1].total_calls(),
        single.rpc.total_calls()
    );
    assert_eq!(padded.rpc, single.rpc);
    // Same-shard placement reproduces the shared-block behavior
    // bit-identically: same blocks, same owners per block, same timing.
    assert_eq!(padded.total_sim_seconds, single.total_sim_seconds);
    assert_eq!(
        padded
            .cid_txs_per_block
            .iter()
            .map(|(_, b, n)| (*b, *n))
            .collect::<Vec<_>>(),
        single
            .cid_txs_per_block
            .iter()
            .map(|(_, b, n)| (*b, *n))
            .collect::<Vec<_>>()
    );
    assert!(padded.max_owners_sharing_block() >= 2);
    for (pa, sb) in padded.sessions.iter().zip(&single.sessions) {
        assert_eq!(pa.cids, sb.cids);
        assert_eq!(pa.total_sim_seconds, sb.total_sim_seconds);
    }
}

/// The determinism regression the roadmap asks for: two `Marketplace::run`
/// calls with the same `MarketConfig.seed` produce identical
/// `SessionReport`s — payments, accuracies, gas, CIDs, and timing.
#[test]
fn same_seed_yields_identical_session_reports() {
    let config = || MarketConfig {
        seed: 1234,
        n_train: 500,
        n_test: 150,
        ..MarketConfig::small_test()
    };
    let (_, a) = Marketplace::run(config()).expect("first run");
    let (_, b) = Marketplace::run(config()).expect("second run");

    assert_eq!(a.aggregated_accuracy, b.aggregated_accuracy);
    assert_eq!(a.local_accuracies, b.local_accuracies);
    assert_eq!(a.loo_drop_accuracies, b.loo_drop_accuracies);
    assert_eq!(a.contributions, b.contributions);
    assert_eq!(a.global_neurons, b.global_neurons);
    assert_eq!(a.cids, b.cids);
    assert_eq!(a.total_sim_seconds, b.total_sim_seconds);
    // Payments: same recipients, same amounts, same receipts' gas.
    assert_eq!(a.payments.len(), b.payments.len());
    for (pa, pb) in a.payments.iter().zip(&b.payments) {
        assert_eq!(pa.address, pb.address);
        assert_eq!(pa.amount_wei, pb.amount_wei);
        assert_eq!(pa.receipt.gas_used, pb.receipt.gas_used);
        assert_eq!(pa.receipt.fee, pb.receipt.fee);
    }
    // Gas table: identical labels and quantities row by row.
    assert_eq!(a.gas.len(), b.gas.len());
    for (ga, gb) in a.gas.iter().zip(&b.gas) {
        assert_eq!(ga.label, gb.label);
        assert_eq!(ga.gas_used, gb.gas_used);
        assert_eq!(ga.fee_wei, gb.fee_wei);
    }
    // Timing breakdowns agree phase by phase.
    assert_eq!(a.buyer_breakdown, b.buyer_breakdown);
    assert_eq!(a.owner_breakdowns, b.owner_breakdowns);
}

// ----------------------------------------------------------------------
// Out-of-process backend: the same scenarios served by an rpcd daemon.
// ----------------------------------------------------------------------

mod remote_backend {
    use super::*;
    use ofl_w3::core::engine::EngineReport;
    use ofl_w3::core::world::{ShardConfig, ShardSpec, DEFAULT_TX_WIRE_BYTES};
    use ofl_w3::netsim::link::NetworkProfile;
    use ofl_w3::rpc::{provision_socket_provider, RemoteEndpoint};
    use ofl_w3::rpcd::{DaemonOptions, PipeTransport};

    /// Mounts one shard through the deterministic in-memory pipe: a real
    /// `rpcd` server connection, the full frame codec in both directions,
    /// zero threads.
    fn pipe_mounted(config: ShardConfig, profile: NetworkProfile) -> ShardSpec {
        ShardSpec::Mounted(
            provision_socket_provider(
                Box::new(PipeTransport::new()),
                config.chain.clone(),
                config.genesis.clone(),
                profile,
                DEFAULT_TX_WIRE_BYTES,
                config.knobs(),
            )
            .expect("pipe provisions"),
        )
    }

    /// Field-by-field equality of two engine runs — session reports,
    /// engine-level facts, and the RPC metering, i.e. "bit-identical" at
    /// the level the scenario layer can observe.
    fn assert_reports_identical(a: &EngineReport, b: &EngineReport) {
        assert_eq!(a.total_sim_seconds, b.total_sim_seconds);
        assert_eq!(a.cid_txs_per_block, b.cid_txs_per_block);
        assert_eq!(a.rpc, b.rpc);
        assert_eq!(a.rpc_per_endpoint, b.rpc_per_endpoint);
        assert_eq!(a.sessions.len(), b.sessions.len());
        for (ra, rb) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(ra.cids, rb.cids);
            assert_eq!(ra.local_accuracies, rb.local_accuracies);
            assert_eq!(ra.aggregated_accuracy, rb.aggregated_accuracy);
            assert_eq!(ra.loo_drop_accuracies, rb.loo_drop_accuracies);
            assert_eq!(ra.total_sim_seconds, rb.total_sim_seconds);
            assert_eq!(ra.rpc, rb.rpc);
            assert_eq!(ra.buyer_breakdown, rb.buyer_breakdown);
            assert_eq!(ra.owner_breakdowns, rb.owner_breakdowns);
            assert_eq!(ra.payments.len(), rb.payments.len());
            for (pa, pb) in ra.payments.iter().zip(&rb.payments) {
                assert_eq!(pa.address, pb.address);
                assert_eq!(pa.amount_wei, pb.amount_wei);
                assert_eq!(pa.receipt, pb.receipt);
            }
            assert_eq!(ra.gas.len(), rb.gas.len());
            for (ga, gb) in ra.gas.iter().zip(&rb.gas) {
                assert_eq!(
                    (&ga.label, ga.gas_used, ga.fee_wei),
                    (&gb.label, gb.gas_used, gb.fee_wei)
                );
            }
        }
        for (da, db) in a.details.iter().zip(&b.details) {
            assert_eq!(da.cids_onchain, db.cids_onchain);
            assert_eq!(da.cids_retrieved, db.cids_retrieved);
            assert_eq!(da.reverted_tx_count, db.reverted_tx_count);
        }
    }

    fn fleet_base(owners: usize, seed: u64) -> MarketConfig {
        MarketConfig {
            n_owners: owners,
            n_train: 100 * owners,
            n_test: 60,
            partition: PartitionScheme::Iid,
            seed,
            train: ofl_w3::fl::client::TrainConfig {
                dims: vec![784, 8, 10],
                epochs: 1,
                ..ofl_w3::fl::client::TrainConfig::default()
            },
            ..MarketConfig::small_test()
        }
    }

    /// CI smoke: a 2-market, 2-shard scenario with one shard served by an
    /// in-memory-piped rpcd connection runs the engine *unchanged* and
    /// reproduces the all-in-process run bit-identically.
    #[test]
    fn pipe_backed_shard_reproduces_in_process_run() {
        let configs = || MultiMarket::replica_configs(&fleet_base(3, 91), 2, 2);
        let profile = fleet_base(3, 91).profile;

        let (_, local) = MultiMarket::with_shards(configs(), 2)
            .run(&EngineConfig::default(), &[])
            .expect("in-process run");

        let mut shard_index = 0usize;
        let (_, piped) = MultiMarket::with_shards_via(configs(), 2, |config| {
            let spec = if shard_index == 1 {
                pipe_mounted(config, profile)
            } else {
                ShardSpec::Local(config)
            };
            shard_index += 1;
            spec
        })
        .run(&EngineConfig::default(), &[])
        .expect("pipe-backed run");

        assert_reports_identical(&local, &piped);
        // Both shards actually carried traffic.
        assert!(piped.rpc_per_endpoint[1].total_calls() > 0);
    }

    /// The headline acceptance criterion: a 32-owner multi-market scenario
    /// (4 markets × 8 owners round-robined over 2 shards) run against a
    /// `ProviderPool` whose shard 1 is a `ShardSpec::Remote` endpoint — a
    /// real TCP socket to an rpcd server — produces `SessionReport`s
    /// bit-identical to the all-in-process run under the same seed.
    #[test]
    fn remote_socket_shard_runs_32_owner_fleet_bit_identically() {
        let base = fleet_base(8, 47);
        let configs = || MultiMarket::replica_configs(&base, 4, 2);

        // All in-process first: the reference run.
        let (_, local) = MultiMarket::with_shards(configs(), 2)
            .run(&EngineConfig::default(), &[])
            .expect("in-process 32-owner fleet");
        let owners: usize = local.sessions.iter().map(|s| s.payments.len()).sum();
        assert_eq!(owners, 32);

        // A real rpcd server on an ephemeral TCP port, one connection.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || ofl_w3::rpcd::serve_listener(listener, Some(1)));

        let mut shard_index = 0usize;
        let (mm, remote) = MultiMarket::with_shards_via(configs(), 2, |config| {
            let spec = if shard_index == 1 {
                ShardSpec::Remote {
                    endpoint: RemoteEndpoint::Tcp(addr.clone()),
                    config,
                }
            } else {
                ShardSpec::Local(config)
            };
            shard_index += 1;
            spec
        })
        .run(&EngineConfig::default(), &[])
        .expect("remote-backed 32-owner fleet");

        assert_reports_identical(&local, &remote);
        // The remote shard really served its two markets' traffic: CID
        // transactions landed on both shards, and endpoint 1's metering —
        // client-side, over the socket — matches the in-process run's.
        assert_eq!(
            remote.shards_with_cid_txs(),
            vec![EndpointId(0), EndpointId(1)]
        );
        assert!(remote.rpc_per_endpoint[1].total_calls() > 0);
        assert_eq!(remote.rpc_per_endpoint[1], local.rpc_per_endpoint[1]);

        // Dropping the world closes the socket; the server thread drains.
        drop(mm);
        server.join().expect("rpcd server thread exits");
    }

    /// Mounts every shard of a fleet over its own TCP connection to one
    /// rpcd daemon and runs the engine.
    fn tcp_fleet_run(
        configs: Vec<MarketConfig>,
        shards: usize,
        engine: &EngineConfig,
    ) -> EngineReport {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            ofl_w3::rpcd::serve_listener_with(listener, DaemonOptions::max(shards))
        });

        let profile = configs[0].profile;
        let (mm, report) = MultiMarket::with_shards_via(configs, shards, |config| {
            let transport = RemoteEndpoint::Tcp(addr.clone())
                .connect()
                .expect("connect to rpcd");
            ShardSpec::Mounted(
                provision_socket_provider(
                    transport,
                    config.chain.clone(),
                    config.genesis.clone(),
                    profile,
                    DEFAULT_TX_WIRE_BYTES,
                    config.knobs(),
                )
                .expect("provision over tcp"),
            )
        })
        .run(engine, &[])
        .expect("socket-backed fleet run");

        drop(mm);
        let stats = server.join().expect("rpcd server thread exits");
        assert_eq!(stats.connections as usize, shards);
        report
    }

    /// The wire is invisible to the simulation: the 32-owner fleet run
    /// with both shards over TCP sockets reproduces the all-in-process run
    /// bit-identically — reports, metering, and timing breakdowns.
    #[test]
    fn tcp_socket_shards_run_32_owner_fleet_bit_identically() {
        let base = fleet_base(8, 47);
        let configs = || MultiMarket::replica_configs(&base, 4, 2);

        let (_, local) = MultiMarket::with_shards(configs(), 2)
            .run(&EngineConfig::default(), &[])
            .expect("in-process 32-owner fleet");

        let tcp = tcp_fleet_run(configs(), 2, &EngineConfig::default());
        assert_reports_identical(&local, &tcp);
        assert!(tcp.rpc_per_endpoint[1].total_calls() > 0);
    }

    /// The push-streaming acceptance pin: with event watching on, the
    /// 32-owner fleet's subscription streams — every NewHeads, Logs, and
    /// PendingTxs delivery across both shards, folded in delivery order
    /// into the engine's event digest — are bit-identical whether the
    /// shards run in-process, over the in-memory rpcd pipe, or over TCP
    /// sockets. The same hooks feed all three backends, so
    /// any divergence in push routing, codec, or ordering shows up here.
    #[test]
    fn push_event_streams_are_identical_across_backends() {
        let base = fleet_base(8, 47);
        let configs = || MultiMarket::replica_configs(&base, 4, 2);
        let engine = EngineConfig {
            watch_events: true,
            ..EngineConfig::default()
        };
        let profile = base.profile;

        let (_, local) = MultiMarket::with_shards(configs(), 2)
            .run(&engine, &[])
            .expect("in-process watched fleet");
        assert!(
            local.events_observed > 0,
            "a watched fleet run must deliver push events"
        );

        let (_, piped) =
            MultiMarket::with_shards_via(configs(), 2, |config| pipe_mounted(config, profile))
                .run(&engine, &[])
                .expect("pipe-backed watched fleet");

        let tcp = tcp_fleet_run(configs(), 2, &engine);

        assert_eq!(
            (local.events_observed, local.event_digest),
            (piped.events_observed, piped.event_digest),
            "pipe-backed push streams must match the in-process streams"
        );
        assert_eq!(
            (local.events_observed, local.event_digest),
            (tcp.events_observed, tcp.event_digest),
            "TCP push streams must match the in-process streams"
        );
        assert_reports_identical(&local, &piped);
        assert_reports_identical(&local, &tcp);
    }

    /// Fleet-scale pin: the full 1k-owner fleet (32 markets × 32 owners,
    /// 4 shards, `FinalizePolicy::FedAvgProportional`) produces the same
    /// digest in-process and over TCP sockets. Release-only —
    /// the engine run is minutes-slow without optimizations.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "1k-owner fleet needs a release build; run with `cargo test --release`"
    )]
    fn thousand_owner_fleet_is_bit_identical_over_tcp_sockets() {
        let base = MarketConfig::fleet(32);
        let configs = || MultiMarket::replica_configs(&base, 32, 4);

        let (_, local) = MultiMarket::with_shards(configs(), 4)
            .run(&EngineConfig::default(), &[])
            .expect("in-process 1k-owner fleet");
        let owners: usize = local.sessions.iter().map(|s| s.payments.len()).sum();
        assert_eq!(owners, 1024);

        let tcp = tcp_fleet_run(configs(), 4, &EngineConfig::default());
        assert_reports_identical(&local, &tcp);
    }
}
