//! **Fleet bench** — thousand-owner load generation through the event
//! engine, against in-process and socket backends.
//!
//! Builds a `MultiMarket` fleet (owners split across decorrelated market
//! cells, round-robined over shards) using the linear-time
//! `FinalizePolicy::FedAvgProportional` pipeline, and drives the same
//! seeded run four ways:
//!
//! 1. **in-process** — every shard a local `SimProvider` (the reference).
//! 2. **socket / jumbo** — every shard mounted over a real TCP `rpcd`
//!    daemon, batches shipped as one `Frame::Batch` (the PR-5 wire mode).
//! 3. **socket / lockstep** — one request-id frame per RPC request, each
//!    awaited before the next is sent.
//! 4. **socket / pipelined** — the *same* frames as lockstep, but a window
//!    of N kept in flight per connection.
//!
//! All four runs must be bit-identical in virtual time and metering (the
//! backend boundary and the wire discipline are invisible to the
//! simulation), and lockstep/pipelined must exchange identical frames. A
//! fifth leg re-runs the in-process fleet with the shard executor flipped
//! (parallel workers vs strictly serial) and pins the digests equal — the
//! determinism contract of `ofl_netsim::par`. A final *wire drive* then
//! ships the same fleet-scale frame load through `roundtrip_many` at
//! window 1 vs window N against a live daemon, where pipelining must
//! strictly cut wall-clock time at equal round trips. Results — including
//! the sign/codec/queue/aggregate/wire hot-path breakdown of the reference
//! leg — go to the durable perf trajectory `BENCH_fleet.json` at the repo
//! root.
//!
//! With `--subscribe`, a further leg re-runs the in-process fleet with the
//! engine's push watchers open on every shard and records the push-vs-poll
//! round-trip comparison in a `subscription` block of the record.
//!
//! Run: `cargo run -p ofl-bench --release --bin bench_fleet -- \
//!       [--owners 1024] [--markets N] [--shards 4] [--window 64] \
//!       [--serial] [--subscribe] [--json]`

use ofl_bench::{header, write_bench};
use ofl_core::config::MarketConfig;
use ofl_core::engine::{EngineConfig, EngineReport, MultiMarket};
use ofl_core::world::{ShardConfig, ShardSpec, DEFAULT_TX_WIRE_BYTES};
use ofl_eth::chain::ChainConfig;
use ofl_netsim::par::set_parallel;
use ofl_primitives::{phase_snapshot, reset_phase_times, set_phase_timing, PhaseTimes};
use ofl_rpc::{
    provision_socket_provider_via, BackstageOp, BackstageReply, Frame, ProviderMetrics,
    RemoteEndpoint, WireCounter, WireMode,
};
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
}

#[derive(Serialize)]
struct WireDriveRow {
    wire_mode: String,
    window: usize,
    round_trips: u64,
    wall_secs: f64,
    frames_per_sec: f64,
    recv_wait_secs: f64,
}

#[derive(Serialize)]
struct Comparison {
    round_trips: u64,
    lockstep_wall_secs: f64,
    pipelined_wall_secs: f64,
    wall_speedup: f64,
    equal_round_trips: bool,
    pipelined_strictly_faster: bool,
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
    window: usize,
    /// False when `--serial` pinned the reference leg (and the socket
    /// legs) to the one-thread executor.
    parallel: bool,
    /// Hot-path wall-clock breakdown of the reference in-process leg.
    phase_times: PhaseTimes,
    parallel_check: ParallelCheck,
    runs: Vec<RunRow>,
    wire_drive: Vec<WireDriveRow>,
    pipelined_vs_lockstep: Comparison,
    /// Present when `--subscribe` ran the push-vs-poll leg; `null`
    /// otherwise.
    subscription: Option<SubscriptionLeg>,
}

struct Args {
    owners: usize,
    markets: usize,
    shards: usize,
    window: usize,
    serial: bool,
    subscribe: bool,
    trace: bool,
    json: bool,
}

fn parse_args() -> Args {
    let mut owners = 1024usize;
    let mut markets: Option<usize> = None;
    let mut shards = 4usize;
    let mut window = 64usize;
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
            "--window" => window = number(&mut args, "--window"),
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
        window: window.max(1),
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
        "usage: bench_fleet [--owners N] [--markets M] [--shards S] [--window W] \
         [--serial] [--subscribe] [--trace] [--json]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}

/// The digest a run must reproduce regardless of backend and wire mode.
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

fn run_row(
    backend: &'static str,
    wire_mode: String,
    owners: usize,
    report: &EngineReport,
    wall_secs: f64,
    counters: &[WireCounter],
) -> RunRow {
    RunRow {
        backend,
        wire_mode,
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
    }
}

/// One socket-backed fleet run: a real `rpcd` daemon on an ephemeral TCP
/// port, every shard mounted over its own connection with the given wire
/// mode, wire counters watching each connection from the outside.
fn socket_run(
    configs: Vec<MarketConfig>,
    shards: usize,
    mode: WireMode,
) -> (EngineReport, f64, Vec<WireCounter>) {
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
            provision_socket_provider_via(
                transport,
                config.chain.clone(),
                config.genesis.clone(),
                profile,
                DEFAULT_TX_WIRE_BYTES,
                config.knobs(),
                mode,
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

/// One leg of the wire-turnaround drive: ship `frames` backstage requests
/// through [`ofl_rpc::FrameTransport::roundtrip_many`] at the given window against
/// a freshly provisioned daemon backend, and time the whole exchange.
fn drive_one(addr: &str, frames: usize, label: String, window: usize) -> WireDriveRow {
    let (mut transport, counter) = RemoteEndpoint::Tcp(addr.to_string())
        .connect_counted()
        .expect("connect to rpcd");
    transport
        .send(&Frame::Provision {
            chain: ChainConfig::default(),
            genesis: Vec::new(),
        })
        .expect("send provision");
    assert!(matches!(
        transport.recv().expect("provision reply"),
        Frame::Provisioned
    ));
    let load: Vec<Frame> = (0..frames)
        .map(|_| Frame::Backstage(BackstageOp::Height))
        .collect();
    let started = std::time::Instant::now();
    let replies = transport
        .roundtrip_many(&load, window)
        .expect("drive frames");
    let wall = started.elapsed().as_secs_f64();
    assert!(
        replies
            .iter()
            .all(|r| matches!(r, Frame::BackstageReply(BackstageReply::Height(0)))),
        "every drive frame must come back as the height reply"
    );
    transport.send(&Frame::Shutdown).expect("send shutdown");
    assert!(matches!(transport.recv().expect("goodbye"), Frame::Goodbye));
    WireDriveRow {
        wire_mode: label,
        window,
        round_trips: frames as u64,
        wall_secs: wall,
        frames_per_sec: frames as f64 / wall.max(1e-9),
        recv_wait_secs: counter.recv_wait_secs(),
    }
}

/// The wire-turnaround drive at fleet scale: the same `owners * 16`
/// request-id frames against one daemon, first strictly lockstep
/// (window 1), then pipelined. Engine compute is out of the picture, so
/// the measured gap is exactly the per-frame turnaround that the
/// pipeline window exists to hide — the quantity the fleet runs above
/// bury under simulation work.
fn wire_drive(owners: usize, window: usize) -> (WireDriveRow, WireDriveRow) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind rpcd listener");
    let addr = listener.local_addr().unwrap().to_string();
    let server =
        std::thread::spawn(move || ofl_rpcd::serve_listener_with(listener, DaemonOptions::max(2)));
    let frames = owners * 16;
    let lockstep = drive_one(&addr, frames, "lockstep".into(), 1);
    let pipelined = drive_one(&addr, frames, format!("pipelined(w={window})"), window);
    let stats = server.join().expect("rpcd server thread exits");
    assert_eq!(stats.connections, 2);
    (lockstep, pipelined)
}

fn main() {
    let args = parse_args();
    let owners_per_market = (args.owners / args.markets).max(1);
    let owners = owners_per_market * args.markets;
    header(&format!(
        "Fleet load: {owners} owners = {} markets x {owners_per_market}, {} shards, window {}{}",
        args.markets,
        args.shards,
        args.window,
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
    };

    // Reference: every shard in-process, hot-path phase timers running.
    reset_phase_times();
    let started = std::time::Instant::now();
    let (_, local) = MultiMarket::with_shards(configs(), args.shards)
        .run(&EngineConfig::default(), &[])
        .expect("in-process fleet run");
    let local_wall = started.elapsed().as_secs_f64();
    let phase_times = phase_snapshot();
    let reference = digest(&local);
    let mut runs = vec![run_row(
        "in-process",
        "local".into(),
        owners,
        &local,
        local_wall,
        &[],
    )];
    print(&runs[0]);
    println!(
        "  hot paths: sign {:.3}s, codec {:.3}s, queue {:.3}s, aggregate {:.3}s, wire {:.3}s",
        phase_times.sign_ns as f64 / 1e9,
        phase_times.codec_ns as f64 / 1e9,
        phase_times.queue_ns as f64 / 1e9,
        phase_times.aggregate_ns as f64 / 1e9,
        phase_times.wire_ns as f64 / 1e9,
    );

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

    let socket_modes = [
        ("jumbo".to_string(), WireMode::Jumbo),
        ("lockstep".to_string(), WireMode::Pipelined { window: 1 }),
        (
            format!("pipelined(w={})", args.window),
            WireMode::Pipelined {
                window: args.window,
            },
        ),
    ];
    for (label, mode) in socket_modes {
        let (report, wall, counters) = socket_run(configs(), args.shards, mode);
        assert_eq!(
            digest(&report),
            reference,
            "a {label} socket backend must reproduce the in-process run bit-identically"
        );
        let row = run_row("socket", label, owners, &report, wall, &counters);
        print(&row);
        runs.push(row);
    }

    // The engine runs above carry heavy simulation work per request, which
    // buries the per-frame turnaround in compute noise; the fleet rows pin
    // *identical digests and identical frame counts* across wire modes.
    // The drive below measures the turnaround itself: the same frame load
    // at fleet scale, window 1 vs window N, nothing else on the wire.
    assert_eq!(
        (runs[2].round_trips, runs[2].wire_frames_sent),
        (runs[3].round_trips, runs[3].wire_frames_sent),
        "lockstep and pipelined fleet runs must exchange the same frames at the same metered round trips"
    );
    let (drive_lockstep, drive_pipelined) = wire_drive(owners, args.window);
    let comparison = Comparison {
        round_trips: drive_lockstep.round_trips,
        lockstep_wall_secs: drive_lockstep.wall_secs,
        pipelined_wall_secs: drive_pipelined.wall_secs,
        wall_speedup: drive_lockstep.wall_secs / drive_pipelined.wall_secs.max(1e-9),
        equal_round_trips: drive_lockstep.round_trips == drive_pipelined.round_trips,
        pipelined_strictly_faster: drive_pipelined.wall_secs < drive_lockstep.wall_secs,
    };
    println!(
        "\nwire drive ({} frames): lockstep {:.3}s ({:.0} frames/s) vs pipelined {:.3}s \
         ({:.0} frames/s) -> {:.2}x",
        comparison.round_trips,
        drive_lockstep.wall_secs,
        drive_lockstep.frames_per_sec,
        drive_pipelined.wall_secs,
        drive_pipelined.frames_per_sec,
        comparison.wall_speedup,
    );
    assert!(
        comparison.equal_round_trips,
        "the two drive legs must ship the same number of frames"
    );
    assert!(
        comparison.pipelined_strictly_faster,
        "pipelining must strictly cut wall-clock time at equal round trips \
         (lockstep {:.3}s, pipelined {:.3}s)",
        comparison.lockstep_wall_secs, comparison.pipelined_wall_secs
    );

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
        window: args.window,
        parallel: !args.serial,
        phase_times,
        parallel_check,
        runs,
        wire_drive: vec![drive_lockstep, drive_pipelined],
        pipelined_vs_lockstep: comparison,
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
