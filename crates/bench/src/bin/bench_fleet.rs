//! **Fleet bench** — thousand-owner load generation through the event
//! engine, against in-process and socket backends.
//!
//! Builds a `MultiMarket` fleet (owners split across decorrelated market
//! cells, round-robined over shards) using the linear-time
//! `FinalizePolicy::FedAvgProportional` pipeline, and drives the same
//! seeded run two ways:
//!
//! 1. **in-process** — every shard a local `SimProvider` (the reference).
//! 2. **socket** — every shard mounted over its own TCP connection to a
//!    real `rpcd` daemon, each provider batch shipped as one
//!    `Frame::Batch`.
//!
//! Both runs must be bit-identical in virtual time and metering (the
//! backend boundary is invisible to the simulation). A further leg
//! re-runs the in-process fleet with the shard executor flipped (parallel
//! workers vs strictly serial) and pins the digests equal — the
//! determinism contract of `ofl_netsim::par`. Results — including each
//! run's sign/codec/queue/aggregate/wire hot-path breakdown — go to the
//! durable perf trajectory `BENCH_fleet.json` at the repo root.
//!
//! With `--subscribe`, a further leg re-runs the in-process fleet with the
//! engine's push watchers open on every shard and records the push-vs-poll
//! round-trip comparison in a `subscription` block of the record.
//!
//! Run: `cargo run -p ofl-bench --release --bin bench_fleet -- \
//!       [--owners 1024] [--markets N] [--shards 4] \
//!       [--serial] [--subscribe] [--trace] [--json]`

use ofl_bench::{header, write_bench};
use ofl_core::config::MarketConfig;
use ofl_core::engine::{EngineConfig, EngineReport, MultiMarket};
use ofl_core::world::{ShardConfig, ShardSpec, DEFAULT_TX_WIRE_BYTES};
use ofl_netsim::par::set_parallel;
use ofl_primitives::{phase_snapshot, reset_phase_times, set_phase_timing, PhaseTimes};
use ofl_rpc::{provision_socket_provider, ProviderMetrics, RemoteEndpoint, WireCounter};
use ofl_rpcd::DaemonOptions;
use serde::Serialize;
use std::net::TcpListener;

#[derive(Serialize)]
struct EndpointRow {
    endpoint: usize,
    round_trips: u64,
    rpc_requests: u64,
    rpc_errors: u64,
    rpc_virtual_secs: f64,
}

#[derive(Serialize)]
struct RunRow {
    backend: &'static str,
    wire_mode: String,
    wall_secs: f64,
    virtual_secs: f64,
    owners_per_virtual_sec: f64,
    owners_per_wall_sec: f64,
    round_trips: u64,
    rpc_requests: u64,
    wire_frames_sent: u64,
    wire_frames_received: u64,
    wire_recv_wait_secs: f64,
    per_endpoint: Vec<EndpointRow>,
    /// Hot-path wall-clock breakdown of this run alone.
    phase_times: PhaseTimes,
}

/// The serial-vs-parallel determinism leg: the same fleet run twice with
/// the shard executor flipped, digests pinned equal.
#[derive(Serialize)]
struct ParallelCheck {
    serial_wall_secs: f64,
    parallel_wall_secs: f64,
    parallel_speedup: f64,
    digest_equal: bool,
}

/// The `--subscribe` leg: the same fleet re-run with the engine's push
/// watchers open on every shard (`newHeads` + all-logs + `pendingTxs`),
/// compared against the unwatched reference. Push deliveries ride the
/// existing wire, so the only extra round trips are the subscription
/// handshakes — versus the per-block head read plus range query a
/// cursor-polling watcher fleet would pay to observe the same streams.
#[derive(Serialize)]
struct SubscriptionLeg {
    wall_secs: f64,
    /// Push deliveries the watchers received across the run.
    events_observed: u64,
    /// Order-sensitive digest of the delivered stream — pinned equal
    /// across executors by the CI schema check.
    event_digest: u64,
    /// Blocks mined across all shards (the poll watcher's cost driver).
    blocks_mined: u64,
    push_round_trips: u64,
    push_virtual_secs: f64,
    baseline_round_trips: u64,
    baseline_virtual_secs: f64,
    /// Wire cost of watching: `push - baseline` round trips, i.e. the
    /// subscription setup; deliveries add none.
    push_extra_round_trips: u64,
    /// What a cursor-polling watcher fleet needs at minimum for the same
    /// coverage: one head read + one log range query per mined block.
    poll_equivalent_round_trips: u64,
    /// Watching must not perturb the simulation: virtual time and every
    /// aggregated accuracy identical to the unwatched reference.
    outcome_unchanged: bool,
}

#[derive(Serialize)]
struct Record {
    owners: usize,
    markets: usize,
    owners_per_market: usize,
    shards: usize,
    /// False when `--serial` pinned the reference leg (and the socket
    /// leg) to the one-thread executor.
    parallel: bool,
    parallel_check: ParallelCheck,
    runs: Vec<RunRow>,
    /// Present when `--subscribe` ran the push-vs-poll leg; `null`
    /// otherwise.
    subscription: Option<SubscriptionLeg>,
}

struct Args {
    owners: usize,
    markets: usize,
    shards: usize,
    serial: bool,
    subscribe: bool,
    trace: bool,
    json: bool,
}

fn parse_args() -> Args {
    let mut owners = 1024usize;
    let mut markets: Option<usize> = None;
    let mut shards = 4usize;
    let mut serial = false;
    let mut subscribe = false;
    let mut trace = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    let number = |args: &mut dyn Iterator<Item = String>, flag: &str| -> usize {
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage(&format!("{flag} needs a positive integer")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--owners" => owners = number(&mut args, "--owners"),
            "--markets" => markets = Some(number(&mut args, "--markets")),
            "--shards" => shards = number(&mut args, "--shards"),
            "--serial" => serial = true,
            "--subscribe" => subscribe = true,
            "--trace" => trace = true,
            "--json" => json = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if owners == 0 {
        usage("--owners must be positive");
    }
    let markets = markets.unwrap_or_else(|| (owners / 32).max(1));
    Args {
        owners,
        markets,
        shards: shards.max(1).min(markets),
        serial,
        subscribe,
        trace,
        json,
    }
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("bench_fleet: {error}");
    }
    eprintln!(
        "usage: bench_fleet [--owners N] [--markets M] [--shards S] \
         [--serial] [--subscribe] [--trace] [--json]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}

/// The digest a run must reproduce regardless of backend and executor.
fn digest(report: &EngineReport) -> (f64, Vec<f64>, ProviderMetrics) {
    (
        report.total_sim_seconds,
        report
            .sessions
            .iter()
            .map(|s| s.aggregated_accuracy)
            .collect(),
        report.rpc.clone(),
    )
}

/// One run's record row. Reads the hot-path counters, so call it right
/// after the run, before the next leg resets them.
fn run_row(
    backend: &'static str,
    wire_mode: &str,
    owners: usize,
    report: &EngineReport,
    wall_secs: f64,
    counters: &[WireCounter],
) -> RunRow {
    RunRow {
        backend,
        wire_mode: wire_mode.to_string(),
        wall_secs,
        virtual_secs: report.total_sim_seconds,
        owners_per_virtual_sec: owners as f64 / report.total_sim_seconds,
        owners_per_wall_sec: owners as f64 / wall_secs.max(1e-9),
        round_trips: report.rpc.round_trips,
        rpc_requests: report.rpc.total_calls(),
        wire_frames_sent: counters.iter().map(|c| c.frames_sent()).sum(),
        wire_frames_received: counters.iter().map(|c| c.frames_received()).sum(),
        // Folded from +0.0: an empty f64 `sum()` is -0.0, which the
        // in-process leg (no counters) would otherwise report.
        wire_recv_wait_secs: counters.iter().fold(0.0, |acc, c| acc + c.recv_wait_secs()),
        per_endpoint: report
            .rpc_per_endpoint
            .iter()
            .enumerate()
            .map(|(endpoint, m)| EndpointRow {
                endpoint,
                round_trips: m.round_trips,
                rpc_requests: m.total_calls(),
                rpc_errors: m.total_errors(),
                rpc_virtual_secs: m.total_cost().as_secs_f64(),
            })
            .collect(),
        phase_times: phase_snapshot(),
    }
}

/// One socket-backed fleet run: a real `rpcd` daemon on an ephemeral TCP
/// port, every shard mounted over its own connection, wire counters
/// watching each connection from the outside.
fn socket_run(configs: Vec<MarketConfig>, shards: usize) -> (EngineReport, f64, Vec<WireCounter>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind rpcd listener");
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        ofl_rpcd::serve_listener_with(listener, DaemonOptions::max(shards))
    });

    let profile = configs[0].profile;
    let mut counters = Vec::new();
    let started = std::time::Instant::now();
    let mm = MultiMarket::with_shards_via(configs, shards, |config: ShardConfig| {
        let (transport, counter) = RemoteEndpoint::Tcp(addr.clone())
            .connect_counted()
            .expect("connect to rpcd");
        counters.push(counter);
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
    });
    let (mm, report) = mm
        .run(&EngineConfig::default(), &[])
        .expect("socket-backed fleet run");
    let wall = started.elapsed().as_secs_f64();
    // Dropping the world closes every connection; the daemon drains.
    drop(mm);
    let stats = server.join().expect("rpcd server thread exits");
    assert_eq!(stats.connections as usize, shards);
    (report, wall, counters)
}

fn main() {
    let args = parse_args();
    let owners_per_market = (args.owners / args.markets).max(1);
    let owners = owners_per_market * args.markets;
    header(&format!(
        "Fleet load: {owners} owners = {} markets x {owners_per_market}, {} shards{}",
        args.markets,
        args.shards,
        if args.serial { ", serial executor" } else { "" }
    ));
    set_parallel(!args.serial);
    set_phase_timing(true);

    let mut base = MarketConfig::fleet(owners_per_market);
    // Size each shard's block capacity to its market load: a 10k-owner
    // fleet on 4 shards queues ~80 markets of transactions per chain, and
    // at the default 30M gas limit the backlog outlives the 2×-base-fee
    // cap (EIP-1559 climbs 9/8 per full block, so anything waiting longer
    // than ~6 full blocks gets evicted). Keep the default for fleets up to
    // 8 markets per shard — the pinned 32/256/1k digests — and grow
    // linearly past that, the L2-scale-blocks-for-L2-scale-fleets sizing.
    let markets_per_shard = args.markets.div_ceil(args.shards.max(1));
    if markets_per_shard > 8 {
        base.chain.gas_limit = base.chain.gas_limit / 8 * markets_per_shard as u64;
    }
    let configs = || MultiMarket::replica_configs(&base, args.markets, args.shards);

    println!(
        "{:>12} {:>18} {:>10} {:>12} {:>13} {:>13} {:>12} {:>12}",
        "backend",
        "wire mode",
        "wall (s)",
        "virtual (s)",
        "owners/vs",
        "owners/ws",
        "round trips",
        "wire frames"
    );
    let print = |row: &RunRow| {
        println!(
            "{:>12} {:>18} {:>10.2} {:>12.1} {:>13.1} {:>13.1} {:>12} {:>12}",
            row.backend,
            row.wire_mode,
            row.wall_secs,
            row.virtual_secs,
            row.owners_per_virtual_sec,
            row.owners_per_wall_sec,
            row.round_trips,
            row.wire_frames_sent
        );
        let phases = &row.phase_times;
        println!(
            "  hot paths: sign {:.3}s, codec {:.3}s, queue {:.3}s, aggregate {:.3}s, wire {:.3}s",
            phases.sign_ns as f64 / 1e9,
            phases.codec_ns as f64 / 1e9,
            phases.queue_ns as f64 / 1e9,
            phases.aggregate_ns as f64 / 1e9,
            phases.wire_ns as f64 / 1e9,
        );
    };

    // Reference: every shard in-process, hot-path phase timers running.
    reset_phase_times();
    let started = std::time::Instant::now();
    let (_, local) = MultiMarket::with_shards(configs(), args.shards)
        .run(&EngineConfig::default(), &[])
        .expect("in-process fleet run");
    let local_wall = started.elapsed().as_secs_f64();
    let reference = digest(&local);
    let mut runs = vec![run_row(
        "in-process",
        "local",
        owners,
        &local,
        local_wall,
        &[],
    )];
    print(&runs[0]);

    // Determinism leg: the same fleet with the shard executor flipped.
    // Parallel workers merge results in endpoint order, so the digest —
    // virtual time, accuracies, every metered counter — must be
    // bit-identical to the strictly serial run.
    set_parallel(args.serial);
    let flip_started = std::time::Instant::now();
    let (_, flipped) = MultiMarket::with_shards(configs(), args.shards)
        .run(&EngineConfig::default(), &[])
        .expect("flipped-executor fleet run");
    let flip_wall = flip_started.elapsed().as_secs_f64();
    set_parallel(!args.serial);
    assert_eq!(
        digest(&flipped),
        reference,
        "parallel and serial shard execution must produce bit-identical fleets"
    );
    let (serial_wall, parallel_wall) = if args.serial {
        (local_wall, flip_wall)
    } else {
        (flip_wall, local_wall)
    };
    let parallel_check = ParallelCheck {
        serial_wall_secs: serial_wall,
        parallel_wall_secs: parallel_wall,
        parallel_speedup: serial_wall / parallel_wall.max(1e-9),
        digest_equal: true,
    };
    println!(
        "  executor: serial {serial_wall:.2}s vs parallel {parallel_wall:.2}s -> {:.2}x, digests equal",
        parallel_check.parallel_speedup
    );

    // The socket leg: the same fleet over a live daemon, its own
    // hot-path breakdown (codec and wire now on the clock).
    reset_phase_times();
    let (report, wall, counters) = socket_run(configs(), args.shards);
    assert_eq!(
        digest(&report),
        reference,
        "a socket backend must reproduce the in-process run bit-identically"
    );
    let row = run_row("socket", "jumbo", owners, &report, wall, &counters);
    print(&row);
    runs.push(row);

    // The push-vs-poll leg: the same fleet with the engine's shard
    // watchers open. Deliveries ride replies already crossing the wire, so
    // the watched run's extra round trips are the subscription handshakes
    // alone — pitted against the two-RPCs-per-mined-block floor of a
    // cursor-polling watcher fleet with the same coverage.
    let subscription = args.subscribe.then(|| {
        let watched_engine = EngineConfig {
            watch_events: true,
            ..EngineConfig::default()
        };
        let started = std::time::Instant::now();
        let (_, watched) = MultiMarket::with_shards(configs(), args.shards)
            .run(&watched_engine, &[])
            .expect("watched fleet run");
        let wall = started.elapsed().as_secs_f64();
        let outcome_unchanged = watched.total_sim_seconds == local.total_sim_seconds
            && watched
                .sessions
                .iter()
                .map(|s| s.aggregated_accuracy)
                .eq(local.sessions.iter().map(|s| s.aggregated_accuracy));
        let leg = SubscriptionLeg {
            wall_secs: wall,
            events_observed: watched.events_observed,
            event_digest: watched.event_digest,
            blocks_mined: watched.blocks_mined,
            push_round_trips: watched.rpc.round_trips,
            push_virtual_secs: watched.total_sim_seconds,
            baseline_round_trips: local.rpc.round_trips,
            baseline_virtual_secs: local.total_sim_seconds,
            push_extra_round_trips: watched
                .rpc
                .round_trips
                .saturating_sub(local.rpc.round_trips),
            poll_equivalent_round_trips: 2 * watched.blocks_mined,
            outcome_unchanged,
        };
        assert!(
            leg.events_observed > 0,
            "a watched fleet run must deliver push events"
        );
        assert!(
            leg.outcome_unchanged,
            "opening subscriptions must not change virtual time or accuracies"
        );
        println!(
            "\nsubscription leg: {} events over {} blocks, push +{} round trips vs \
             poll-equivalent {} ({:.1}x cheaper), virtual time unchanged at {:.1}s",
            leg.events_observed,
            leg.blocks_mined,
            leg.push_extra_round_trips,
            leg.poll_equivalent_round_trips,
            leg.poll_equivalent_round_trips as f64 / (leg.push_extra_round_trips.max(1)) as f64,
            leg.push_virtual_secs,
        );
        leg
    });

    // The traced leg: the same fleet with the ofl-trace collector running.
    // Two invariants ride on it — tracing must not perturb the simulation
    // (digest unchanged), and the JSONL artifact is a pure function of the
    // seed (the gzip container uses MTIME=0 stored blocks, so the .gz
    // bytes are deterministic too).
    if args.trace {
        let tracer = ofl_trace::start_tracing();
        let started = std::time::Instant::now();
        let (_, traced) = MultiMarket::with_shards(configs(), args.shards)
            .run(&EngineConfig::default(), &[])
            .expect("traced fleet run");
        let wall = started.elapsed().as_secs_f64();
        let trace = ofl_trace::stop_tracing(tracer);
        assert_eq!(
            digest(&traced),
            reference,
            "tracing must not perturb the simulation"
        );
        assert_eq!(trace.dropped, 0, "collector lanes must not overflow");
        assert!(!trace.events.is_empty(), "a traced fleet run emits events");
        let jsonl = trace.to_jsonl();
        let gz = ofl_trace::gzip::gzip_stored(jsonl.as_bytes());
        let path =
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../TRACE_fleet.jsonl.gz");
        std::fs::write(&path, &gz).expect("write trace artifact");
        println!(
            "\ntraced leg: {} events, 0 dropped, {wall:.2}s, digest unchanged -> {}",
            trace.events.len(),
            path.display()
        );
    }

    let record = Record {
        owners,
        markets: args.markets,
        owners_per_market,
        shards: args.shards,
        parallel: !args.serial,
        parallel_check,
        runs,
        subscription,
    };
    write_bench("fleet", &record);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&record).expect("serializable record")
        );
    }
}
