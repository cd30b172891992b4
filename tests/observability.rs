//! Observability regression suite: the `ofl-trace` determinism contract
//! held against real engine runs.
//!
//! The contract under test: a trace is a pure function of the seed. The
//! default categories (engine, world, provider, sign) fire identically
//! whether shards run in-process, over the in-memory rpcd pipe, or over
//! TCP sockets, and whether the shard executor is serial or
//! parallel — so the exported JSONL is byte-identical across all of them.
//! And tracing itself must be a pure observer: enabling it changes no
//! report field.

use std::sync::{Mutex, MutexGuard, OnceLock};

use ofl_w3::core::config::{MarketConfig, PartitionScheme};
use ofl_w3::core::engine::{EngineConfig, EngineReport, MultiMarket};
use ofl_w3::core::market::{Marketplace, SessionReport};
use ofl_w3::core::world::{ShardConfig, ShardSpec, DEFAULT_TX_WIRE_BYTES};
use ofl_w3::netsim::par::{parallel_enabled, set_parallel};
use ofl_w3::rpc::{provision_socket_provider, RemoteEndpoint};
use ofl_w3::rpcd::{DaemonOptions, PipeTransport};

/// The tracer and the executor flag are process-global, so every test that
/// installs a recorder or flips `set_parallel` holds this for its whole
/// body.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
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

/// Runs `f` under a fresh tracer and returns its report plus the exported
/// deterministic JSONL.
fn traced_run(f: impl FnOnce() -> EngineReport) -> (EngineReport, String) {
    let tracer = ofl_w3::trace::start_tracing();
    let report = f();
    let trace = ofl_w3::trace::stop_tracing(tracer);
    assert_eq!(trace.dropped, 0, "the trace store must not overflow");
    assert!(!trace.events.is_empty(), "a traced run emits events");
    (report, trace.to_jsonl())
}

fn in_process(configs: Vec<MarketConfig>, shards: usize) -> EngineReport {
    MultiMarket::with_shards(configs, shards)
        .run(&EngineConfig::default(), &[])
        .expect("in-process fleet run")
        .1
}

/// Every shard mounted over the deterministic in-memory rpcd pipe.
fn pipe_backed(configs: Vec<MarketConfig>, shards: usize) -> EngineReport {
    let profile = configs[0].profile;
    MultiMarket::with_shards_via(configs, shards, |config: ShardConfig| {
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
    })
    .run(&EngineConfig::default(), &[])
    .expect("pipe-backed fleet run")
    .1
}

/// Every shard over its own TCP connection to one rpcd daemon
/// running in this process.
fn tcp_backed(configs: Vec<MarketConfig>, shards: usize) -> EngineReport {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        ofl_w3::rpcd::serve_listener_with(listener, DaemonOptions::max(shards))
    });
    let profile = configs[0].profile;
    let (mm, report) = MultiMarket::with_shards_via(configs, shards, |config: ShardConfig| {
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
    .run(&EngineConfig::default(), &[])
    .expect("tcp-backed fleet run");
    drop(mm);
    let stats = server.join().expect("rpcd server thread exits");
    assert_eq!(stats.connections as usize, shards);
    report
}

/// The digest tracing must not perturb.
fn digest(report: &EngineReport) -> (f64, Vec<f64>, u64) {
    (
        report.total_sim_seconds,
        report
            .sessions
            .iter()
            .map(|s| s.aggregated_accuracy)
            .collect(),
        report.rpc.round_trips,
    )
}

/// Satellite (c), main pin: two same-seed 32-owner runs export
/// byte-identical JSONL traces, the trace is invariant across the
/// in-process / pipe / TCP backends, and enabling tracing
/// changes no report digest.
#[test]
fn same_seed_traces_are_byte_identical_across_runs_and_backends() {
    let _guard = trace_lock();
    let base = fleet_base(8, 47);
    let configs = || MultiMarket::replica_configs(&base, 4, 2);

    // Reference: the same fleet untraced.
    let untraced = in_process(configs(), 2);
    let owners: usize = untraced.sessions.iter().map(|s| s.payments.len()).sum();
    assert_eq!(owners, 32);

    let (first_report, first) = traced_run(|| in_process(configs(), 2));
    let (_, second) = traced_run(|| in_process(configs(), 2));
    assert_eq!(
        digest(&first_report),
        digest(&untraced),
        "enabling tracing must not perturb the simulation"
    );
    assert!(first == second, "same-seed traces must be byte-identical");
    let report = ofl_w3::trace::diff::diff_jsonl(&first, &second);
    assert!(report.divergence.is_none());
    assert_eq!(report.compared as usize + 1, first.lines().count());

    // Backend invariance: the default categories never see the wire, so
    // the pipe- and TCP-backed fleets export the same bytes.
    let (pipe_report, piped) = traced_run(|| pipe_backed(configs(), 2));
    assert_eq!(digest(&pipe_report), digest(&untraced));
    assert!(
        first == piped,
        "pipe-backed trace must match the in-process trace byte-for-byte"
    );
    let (tcp_report, tcp) = traced_run(|| tcp_backed(configs(), 2));
    assert_eq!(digest(&tcp_report), digest(&untraced));
    assert!(
        first == tcp,
        "TCP-backed trace must match the in-process trace byte-for-byte"
    );
}

/// The tracer sorts its store in `(ts, source, seq)` order, so flipping
/// the shard executor — serial closures on the caller thread vs fork/join
/// worker threads — changes nothing in the export.
#[test]
fn serial_and_parallel_executors_merge_identical_traces() {
    let _guard = trace_lock();
    let base = fleet_base(3, 91);
    let configs = || MultiMarket::replica_configs(&base, 2, 2);
    let was_parallel = parallel_enabled();

    set_parallel(false);
    let (serial_report, serial) = traced_run(|| in_process(configs(), 2));
    set_parallel(true);
    let (parallel_report, parallel) = traced_run(|| in_process(configs(), 2));
    set_parallel(was_parallel);

    assert_eq!(digest(&serial_report), digest(&parallel_report));
    assert!(
        serial == parallel,
        "serial and parallel executors must merge to identical traces"
    );
}

/// The leave-one-out coalitions of a PFNM market fan out over the fork/join
/// executor; its item-ordered merge must leave every drop accuracy,
/// contribution and payment exactly where the serial loop puts it.
#[test]
fn serial_and_parallel_loo_price_owners_identically() {
    let _guard = trace_lock();
    let was_parallel = parallel_enabled();
    let run = |parallel: bool| {
        set_parallel(parallel);
        let (_, report) = Marketplace::run(MarketConfig::small_test()).expect("pfnm market");
        report
    };
    let serial = run(false);
    let parallel = run(true);
    set_parallel(was_parallel);

    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(serial.loo_drop_accuracies.len(), 4);
    assert_eq!(
        bits(&serial.loo_drop_accuracies),
        bits(&parallel.loo_drop_accuracies)
    );
    assert_eq!(bits(&serial.contributions), bits(&parallel.contributions));
    let rows = |r: &SessionReport| {
        r.payments
            .iter()
            .map(|p| (p.address, p.amount_wei, p.receipt.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(rows(&serial), rows(&parallel));
}

/// Triage: two traces from different seeds diverge, and the diff names the
/// first divergent event rather than just "files differ". The gzip
/// container round-trips losslessly and is auto-detected.
#[test]
fn trace_diff_pinpoints_the_first_divergent_event() {
    let _guard = trace_lock();
    let run = |seed: u64| {
        let base = fleet_base(3, seed);
        let configs = MultiMarket::replica_configs(&base, 2, 2);
        traced_run(|| in_process(configs, 2)).1
    };
    let a = run(91);
    let b = run(92);

    let report = ofl_w3::trace::diff::diff_jsonl(&a, &b);
    let divergence = report
        .divergence
        .expect("different seeds must produce divergent traces");
    // The meta line (event counts differ) is skipped; the pinpointed lines
    // are real events from each trace.
    assert!(divergence.a.starts_with("{\"ts\":") || divergence.a == "<end of trace>");
    assert!(divergence.b.starts_with("{\"ts\":") || divergence.b == "<end of trace>");
    assert_ne!(divergence.a, divergence.b);

    // The .jsonl.gz artifact path: compress, auto-detect, decompress,
    // byte-identical — so diffing artifacts equals diffing exports.
    let gz = ofl_w3::trace::gzip::gzip_stored(a.as_bytes());
    let back = ofl_w3::trace::diff::decode_trace_bytes(&gz).expect("gunzip");
    assert_eq!(back, a);
    let plain = ofl_w3::trace::diff::decode_trace_bytes(a.as_bytes()).expect("plain passthrough");
    assert_eq!(plain, a);
}
