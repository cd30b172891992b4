//! The measurement loop every workload shares, and the metrics it reports.
//!
//! A workload is run as a sequence of identical **units**: one unit sets
//! up a fresh world (or daemon) from the seed, runs it to completion, and
//! checks its outputs. One warm-up unit runs first and is checked but not
//! measured; every measured unit must repeat its digest. Measured units
//! then repeat until the run's time is up. Of the untraced units, the
//! end-to-end metrics take the fastest set-up, the fastest run, and the
//! median write latency of the fastest window of `WINDOW` writes.
//! Per-layer metrics come from traced units, which a `--trace 1` run
//! interleaves with untraced ones so the tracer's own overhead is measured
//! in the same process.

use crate::clock::{now_ns, secs};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, tail, union_len};
use crate::timed::{Op, Span};
use ofl_primitives::PhaseTimes;
use std::collections::BTreeMap;

/// What one unit of a workload did.
#[derive(Debug, Default)]
pub struct Unit {
    /// Wall time to build the world or daemon from the seed.
    pub setup_ns: u64,
    /// Wall time of the run itself.
    pub run_ns: u64,
    /// Operations attempted (owners plus RPC requests).
    pub attempted: u64,
    /// Operations that failed (unpaid owners, RPC errors).
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Everything the unit computed that must repeat exactly on the same
    /// seed, rendered for comparison across units.
    pub digest: String,
    /// Client-side spans, one list per shard or session.
    pub client: Vec<Vec<Span>>,
    /// Layer detail, for traced units only.
    pub traced: Option<Traced>,
}

/// The layer detail a traced unit collects.
#[derive(Debug)]
pub struct Traced {
    /// Daemon-side backend spans, one list per session, in the same order
    /// as [`Unit::client`]; empty without a daemon.
    pub daemon: Vec<Vec<Span>>,
    /// Hot-path phase times accumulated during the run.
    pub run_phases: PhaseTimes,
    /// Local training, replayed over every owner after the run.
    pub train_ns: u64,
    /// Round trips, requests and errors as the client metered them.
    pub rpc: (u64, u64, u64),
    /// The socket's counters, when the unit ran over one.
    pub wire: Option<Wire>,
}

/// Socket counters of a daemon-backed unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wire {
    /// Frames the client wrote.
    pub frames_sent: u64,
    /// Seconds the client sat blocked waiting for replies.
    pub recv_wait_s: f64,
    /// Frames the daemon dispatched.
    pub frames_served: u64,
}

/// A workload: something that can run one checked unit.
pub trait Workload {
    /// One line saying what a unit is (sizes, shards, transport).
    fn describe(&self) -> String;
    /// Sets up, runs and checks one unit; `traced` turns on layer timing.
    fn unit(&mut self, traced: bool) -> Unit;
    /// The unmeasured first unit, whose digest every measured unit must
    /// repeat: an untraced unit unless the workload has a reference run.
    fn warmup(&mut self) -> Unit {
        self.unit(false)
    }
}

/// The units of one benchmark run.
pub struct Run {
    /// The unmeasured first unit.
    pub warmup: Unit,
    /// The measured units, in run order.
    pub units: Vec<Unit>,
    /// Wall time of the measured units.
    pub elapsed_ns: u64,
}

/// The fewest measured units of each kind a run takes, whatever its
/// duration: a fastest unit that is not just the luck of one or two needs
/// three; a traced run needs two of each kind to put the tracer's overhead
/// next to untraced units.
const MIN_UNTRACED: usize = 3;
const MIN_TRACED: usize = 2;

/// Measured units stop being started past this wall time, so a run ends
/// well inside three minutes whatever its unit counts.
const HARD_STOP_NS: u64 = 120_000_000_000;

/// Runs the warm-up unit, then measured units until `seconds` have passed
/// (and the minimum unit counts are met). With `trace`, every second
/// measured unit is traced.
pub fn measure(workload: &mut dyn Workload, seconds: f64, trace: bool) -> Run {
    let warmup = workload.warmup();
    let start = now_ns();
    let budget = (seconds.max(0.0) * 1e9) as u64;
    let mut units: Vec<Unit> = Vec::new();
    loop {
        let elapsed = now_ns() - start;
        let traced = units.iter().filter(|u| u.traced.is_some()).count();
        let untraced = units.len() - traced;
        let enough = untraced >= MIN_UNTRACED && (!trace || traced >= MIN_TRACED);
        if (elapsed >= budget && enough) || elapsed >= HARD_STOP_NS {
            break;
        }
        units.push(workload.unit(trace && units.len() % 2 == 1));
    }
    Run {
        warmup,
        units,
        elapsed_ns: now_ns() - start,
    }
}

/// The result a run prints.
#[derive(Debug)]
pub struct Report {
    /// Every output check held, in every unit.
    pub correct: bool,
    /// Operations attempted, summed over every unit.
    pub attempted: u64,
    /// Operations failed, summed over every unit.
    pub failed: u64,
    /// `(name, value, unit)` rows, in the spec's order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Human-readable context: unit counts, sample counts.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        use serde::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree always renders")
    }
}

/// Latencies of the client spans of `units` whose class passes `keep`,
/// sorted ascending.
fn latencies<'a>(units: impl Iterator<Item = &'a Unit>, keep: impl Fn(Op) -> bool) -> Vec<u64> {
    let mut samples: Vec<u64> = units
        .flat_map(|u| u.client.iter().flatten())
        .filter(|s| keep(s.op))
        .map(Span::ns)
        .collect();
    samples.sort_unstable();
    samples
}

fn micros(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |ns| ns as f64 / 1e3)
}

/// The median latency of one unit's client requests whose class passes
/// `keep`, in microseconds; 0 when the unit made none.
fn unit_p50_us(unit: &Unit, keep: fn(Op) -> bool) -> f64 {
    micros(percentile(&latencies(std::iter::once(unit), keep), 50.0))
}

/// The smallest `value` over `units`; 0 when there are none.
fn fastest(units: &[&Unit], value: impl Fn(&Unit) -> f64) -> f64 {
    units
        .iter()
        .map(|u| value(u))
        .reduce(f64::min)
        .unwrap_or(0.0)
}

/// Requests per latency window: each unit's requests of one class, in the
/// order they were sent, are cut into windows of this many, and a unit
/// with fewer is one window.
const WINDOW: usize = 128;

/// The median latency of the fastest window of `keep`-class requests over
/// `units`, in microseconds; 0 when there were none.
fn fastest_window_p50_us(units: &[&Unit], keep: fn(Op) -> bool) -> f64 {
    let mut fastest: Option<u64> = None;
    for unit in units {
        let mut spans: Vec<&Span> = unit
            .client
            .iter()
            .flatten()
            .filter(|s| keep(s.op))
            .collect();
        spans.sort_by_key(|s| s.start);
        let lens: Vec<u64> = spans.iter().map(|s| s.ns()).collect();
        let windows: Vec<&[u64]> = if lens.len() < WINDOW {
            vec![&lens]
        } else {
            lens.chunks_exact(WINDOW).collect()
        };
        for window in windows {
            let mut sorted = window.to_vec();
            sorted.sort_unstable();
            if let Some(p50) = percentile(&sorted, 50.0) {
                fastest = Some(fastest.map_or(p50, |f| f.min(p50)));
            }
        }
    }
    micros(fastest)
}

/// Builds the report of a run: end-to-end metrics without `trace`,
/// per-layer metrics with it. `peak_rss_mb` is the process's high-water
/// mark, read by the caller.
pub fn report(run: &Run, trace: bool, peak_rss_mb: f64) -> Report {
    let all = || std::iter::once(&run.warmup).chain(&run.units);
    let mut problems: Vec<String> = all().flat_map(|u| u.problems.clone()).collect();
    if let Some(odd) = all().find(|u| u.digest != run.warmup.digest) {
        problems.push(format!(
            "a unit disagrees with the warm-up: {} vs {}",
            run.warmup.digest, odd.digest
        ));
    }
    let untraced: Vec<&Unit> = run.units.iter().filter(|u| u.traced.is_none()).collect();
    let traced: Vec<&Unit> = run.units.iter().filter(|u| u.traced.is_some()).collect();
    let run_s = |u: &Unit| secs(u.run_ns);

    let mut notes = vec![format!(
        "warm-up + {} measured units ({} traced) in {:.1} s",
        run.units.len(),
        traced.len(),
        secs(run.elapsed_ns),
    )];
    for (i, u) in run.units.iter().enumerate() {
        notes.push(format!(
            "unit {}{}: setup {:.3} s, run {:.3} s, read p50 {:.1} us, write p50 {:.1} us",
            i + 1,
            if u.traced.is_some() { " (traced)" } else { "" },
            secs(u.setup_ns),
            run_s(u),
            unit_p50_us(u, Op::is_read),
            unit_p50_us(u, Op::is_write),
        ));
    }
    let reads = latencies(untraced.iter().copied(), Op::is_read);
    let writes = latencies(untraced.iter().copied(), Op::is_write);
    for (kind, samples) in [("read", &reads), ("write", &writes)] {
        if samples.is_empty() {
            problems.push(format!("no {kind} requests to time"));
        }
    }
    notes.push(format!(
        "{} untraced units: {} reads and {} writes timed",
        untraced.len(),
        reads.len(),
        writes.len()
    ));
    let values: BTreeMap<&str, f64> = if trace {
        let overhead = fastest(&traced, run_s) / fastest(&untraced, run_s) - 1.0;
        notes.push(format!(
            "per-layer values: medians over {} traced units; latency percentiles pool their requests",
            traced.len()
        ));
        let mut layers = layer_metrics(&traced);
        layers.extend([
            ("read_p50_us", micros(percentile(&reads, 50.0))),
            ("read_p99_us", micros(percentile(&reads, 99.0))),
            ("write_p99_us", micros(percentile(&writes, 99.0))),
            ("bench.trace_overhead", overhead),
        ]);
        layers
    } else {
        // Every unit, and every stretch of a unit's writes, does the same
        // work, so the fastest is the one the rest of the host disturbed
        // least. It spreads far less between runs than a median over units
        // does (`BENCHMARK.md`, "Measured spreads").
        BTreeMap::from([
            ("setup_s", fastest(&untraced, |u| secs(u.setup_ns))),
            ("run_s", fastest(&untraced, run_s)),
            (
                "write_p50_us",
                fastest_window_p50_us(&untraced, Op::is_write),
            ),
            ("peak_rss_mb", peak_rss_mb),
        ])
    };
    let table = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics = table
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    Report {
        correct: problems.is_empty(),
        attempted: all().map(|u| u.attempted).sum(),
        failed: all().map(|u| u.failed).sum(),
        metrics,
        problems,
        notes,
    }
}

/// Per-layer metrics over the traced units: medians of per-unit values,
/// and percentiles over the pooled requests of every traced unit.
fn layer_metrics(traced: &[&Unit]) -> BTreeMap<&'static str, f64> {
    let mut per_unit: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut pools: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for unit in traced {
        let detail = unit.traced.as_ref().expect("traced units carry detail");
        for (name, value) in unit_layers(unit, detail) {
            per_unit.entry(name).or_default().push(value);
        }
        if detail.wire.is_some() {
            for (name, samples) in daemon_pools(unit, detail) {
                pools.entry(name).or_default().extend(samples);
            }
        }
    }
    let mut out: BTreeMap<&'static str, f64> = per_unit
        .into_iter()
        .map(|(name, values)| (name, median(&values).unwrap_or(0.0)))
        .collect();
    for samples in pools.values_mut() {
        samples.sort_unstable();
    }
    let pool = |name: &str| pools.get(name).map_or(&[][..], Vec::as_slice);
    let p50 = |name: &str| micros(percentile(pool(name), 50.0));
    let tail_of = |name: &str| micros(tail(pool(name)).map(|(_, v)| v));
    out.extend([
        ("rpcd.overhead_p50_us", p50("overhead")),
        ("rpcd.read.backend_p50_us", p50("daemon.read")),
        ("rpcd.write.backend_p50_us", p50("daemon.write")),
        ("rpcd.mine.backend_p50_us", p50("daemon.mine")),
        ("rpcd.mine_p50_us", p50("client.mine")),
        (
            "rpcd.mine_max_us",
            micros(pool("client.mine").last().copied()),
        ),
        ("rpcd.read_p999_us", tail_of("client.read")),
        ("rpcd.write_p999_us", tail_of("client.write")),
    ]);
    out
}

/// The per-unit layer values of one traced unit.
fn unit_layers(unit: &Unit, detail: &Traced) -> Vec<(&'static str, f64)> {
    let spans: Vec<&Span> = unit.client.iter().flatten().collect();
    let mut out = Vec::new();
    for op in Op::ALL {
        let of_op = spans.iter().filter(|s| s.op == op);
        let (calls, busy) = of_op.fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.ns()));
        let (calls_name, busy_name) = provider_metrics(op);
        out.push((calls_name, calls as f64));
        out.push((busy_name, secs(busy)));
    }
    let intervals = |keep: &dyn Fn(Op) -> bool| -> Vec<(u64, u64)> {
        spans
            .iter()
            .filter(|s| keep(s.op))
            .map(|s| (s.start, s.end))
            .collect()
    };
    let mine_wall = union_len(&intervals(&|op| op == Op::Mine));
    let provider_wall = union_len(&intervals(&|_| true));
    let run = &detail.run_phases;
    let sign = run.sign_ns;
    let self_ns =
        unit.run_ns as f64 - (provider_wall + sign + run.aggregate_ns + detail.train_ns) as f64;
    let wire = detail.wire.unwrap_or_default();
    out.extend([
        ("provider.mine.wall_s", secs(mine_wall)),
        ("eth.sign_s", secs(sign)),
        ("fl.train_s", secs(detail.train_ns)),
        ("fl.aggregate_s", secs(run.aggregate_ns)),
        ("netsim.queue_s", secs(run.queue_ns)),
        ("rpc.codec_s", secs(run.codec_ns)),
        ("rpc.wire_s", secs(run.wire_ns)),
        ("rpc.wire.frames_sent", wire.frames_sent as f64),
        ("rpc.wire.recv_wait_s", wire.recv_wait_s),
        ("rpc.round_trips", detail.rpc.0 as f64),
        ("rpc.requests", detail.rpc.1 as f64),
        ("rpc.errors", detail.rpc.2 as f64),
        ("rpcd.frames_served", wire.frames_served as f64),
        ("core.engine.self_s", self_ns / 1e9),
        (
            "core.engine.self_share",
            self_ns / unit.run_ns.max(1) as f64,
        ),
    ]);
    out
}

/// The `provider.<class>.calls` and `provider.<class>.busy_s` names.
fn provider_metrics(op: Op) -> (&'static str, &'static str) {
    match op {
        Op::SendRaw => ("provider.send_raw.calls", "provider.send_raw.busy_s"),
        Op::Call => ("provider.call.calls", "provider.call.busy_s"),
        Op::TxEnv => ("provider.tx_env.calls", "provider.tx_env.busy_s"),
        Op::Receipts => ("provider.receipts.calls", "provider.receipts.busy_s"),
        Op::ReadMisc => ("provider.read_misc.calls", "provider.read_misc.busy_s"),
        Op::Mine => ("provider.mine.calls", "provider.mine.busy_s"),
        Op::Backstage => ("provider.backstage.calls", "provider.backstage.busy_s"),
        Op::IpfsAdd => ("provider.ipfs_add.calls", "provider.ipfs_add.busy_s"),
        Op::IpfsCat => ("provider.ipfs_cat.calls", "provider.ipfs_cat.busy_s"),
    }
}

/// The latency pools of a daemon-backed traced unit: backend time per
/// class on the daemon side, mine round trips and read/write latencies on
/// the client side, and per-call daemon overhead — each client call's
/// round trip minus the backend time of the daemon spans of the same
/// session that fall inside it.
fn daemon_pools(unit: &Unit, detail: &Traced) -> Vec<(&'static str, Vec<u64>)> {
    let daemon: Vec<&Span> = detail.daemon.iter().flatten().collect();
    let client: Vec<&Span> = unit.client.iter().flatten().collect();
    let lens = |spans: &[&Span], keep: fn(Op) -> bool| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| keep(s.op))
            .map(|s| s.ns())
            .collect()
    };
    let mut overhead = Vec::new();
    for (calls, backend) in unit.client.iter().zip(&detail.daemon) {
        let mut inside = backend.iter().peekable();
        for call in calls {
            while inside.peek().is_some_and(|b| b.start < call.start) {
                inside.next();
            }
            let mut busy = 0;
            while let Some(b) = inside.next_if(|b| b.end <= call.end) {
                busy += b.ns();
            }
            overhead.push(call.ns().saturating_sub(busy));
        }
    }
    vec![
        ("daemon.read", lens(&daemon, Op::is_read)),
        ("daemon.write", lens(&daemon, Op::is_write)),
        ("daemon.mine", lens(&daemon, |op| op == Op::Mine)),
        ("client.mine", lens(&client, |op| op == Op::Mine)),
        ("client.read", lens(&client, Op::is_read)),
        ("client.write", lens(&client, Op::is_write)),
        ("overhead", overhead),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: Op, start: u64, end: u64) -> Span {
        Span { op, start, end }
    }

    fn phases(sign_ns: u64, aggregate_ns: u64) -> PhaseTimes {
        PhaseTimes {
            sign_ns,
            codec_ns: 0,
            queue_ns: 0,
            aggregate_ns,
            wire_ns: 0,
        }
    }

    fn detail(daemon: Vec<Span>, run_phases: PhaseTimes) -> Traced {
        Traced {
            daemon: vec![daemon],
            run_phases,
            train_ns: 0,
            rpc: (0, 0, 0),
            wire: Some(Wire::default()),
        }
    }

    /// A workload whose units take no real time and report fixed spans.
    struct Fake {
        units: u64,
    }

    impl Workload for Fake {
        fn describe(&self) -> String {
            "fake".into()
        }
        fn unit(&mut self, traced: bool) -> Unit {
            self.units += 1;
            Unit {
                setup_ns: 1_000_000 * self.units,
                run_ns: 10_000,
                attempted: 4,
                digest: "same".into(),
                client: vec![vec![
                    span(Op::SendRaw, 0, 1_000),
                    span(Op::Call, 1_000, 3_000),
                    span(Op::Mine, 3_000, 7_000),
                ]],
                traced: traced.then(|| {
                    detail(
                        vec![span(Op::SendRaw, 100, 900), span(Op::Mine, 3_500, 6_500)],
                        phases(1_000, 500),
                    )
                }),
                ..Unit::default()
            }
        }
    }

    #[test]
    fn untraced_runs_report_every_end_to_end_metric() {
        let mut run = measure(&mut Fake { units: 0 }, 0.0, false);
        assert_eq!(run.units.len(), MIN_UNTRACED);
        // A unit the host slowed threefold moves none of the times.
        let slowed = &mut run.units[1];
        slowed.run_ns *= 3;
        for span in slowed.client.iter_mut().flatten() {
            (span.start, span.end) = (span.start * 3, span.end * 3);
        }
        let report = report(&run, false, 12.5);
        assert!(report.correct, "{:?}", report.problems);
        assert_eq!(report.attempted, 16);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let value = |n: &str| report.metrics.iter().find(|m| m.0 == n).unwrap().1;
        // Warm-up excluded: set-ups of units 2, 3, 4 ms.
        assert_eq!(value("setup_s"), 0.002);
        assert_eq!(value("run_s"), 1e-5);
        assert_eq!(value("write_p50_us"), 1.0);
        assert_eq!(value("peak_rss_mb"), 12.5);
        let line = report.json_line();
        assert!(line.starts_with(r#"{"correct":true,"attempted":16,"failed":0,"metrics":{"#));
    }

    #[test]
    fn traced_runs_charge_the_run_to_layers_and_self_time() {
        let run = measure(&mut Fake { units: 0 }, 0.0, true);
        assert!(run.units.iter().filter(|u| u.traced.is_some()).count() >= MIN_TRACED);
        let report = report(&run, true, 0.0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let value = |n: &str| report.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(value("provider.mine.calls"), 1.0);
        // 10 µs run: 7 µs of provider spans, 1 µs signing, 0.5 µs
        // aggregation leave 1.5 µs of engine self time.
        assert!((value("core.engine.self_s") - 1.5e-6).abs() < 1e-15);
        assert!((value("core.engine.self_share") - 0.15).abs() < 1e-12);
        // The send_raw round trip spent 800 ns in the backend.
        assert_eq!(value("rpcd.write.backend_p50_us"), 0.8);
        assert_eq!(value("rpcd.mine_max_us"), 4.0);
        assert_eq!(value("read_p50_us"), 2.0);
        assert_eq!(value("read_p99_us"), 2.0);
        assert_eq!(value("bench.trace_overhead"), 0.0);
    }

    #[test]
    fn write_latency_is_the_fastest_full_window() {
        // A slow window, a fast one, and a half window faster still that
        // is too short to count.
        let mut spans = Vec::new();
        let mut t = 0;
        for (ns, n) in [(3_000, WINDOW), (1_000, WINDOW), (500, WINDOW / 2)] {
            for _ in 0..n {
                spans.push(span(Op::SendRaw, t, t + ns));
                t += ns;
            }
        }
        let long = Unit {
            client: vec![spans],
            ..Unit::default()
        };
        assert_eq!(fastest_window_p50_us(&[&long], Op::is_write), 1.0);
        // A unit with fewer writes than a window is one window.
        let short = Unit {
            client: vec![vec![span(Op::SendRaw, 0, 700), span(Op::Call, 0, 5)]],
            ..Unit::default()
        };
        assert_eq!(fastest_window_p50_us(&[&long, &short], Op::is_write), 0.7);
    }

    #[test]
    fn disagreeing_units_make_the_run_incorrect() {
        let mut fake = Fake { units: 0 };
        let mut run = measure(&mut fake, 0.0, false);
        run.units[1].digest = "different".into();
        assert!(!report(&run, false, 0.0).correct);
    }

    #[test]
    fn overhead_pairs_daemon_spans_inside_each_client_call() {
        let unit = Unit {
            client: vec![vec![span(Op::Call, 0, 100), span(Op::Call, 200, 300)]],
            ..Unit::default()
        };
        // Two backend calls inside the first round trip, one inside the
        // second.
        let backend = vec![
            span(Op::Call, 10, 30),
            span(Op::Call, 40, 50),
            span(Op::Call, 210, 290),
        ];
        let pools = daemon_pools(&unit, &detail(backend, phases(0, 0)));
        let overhead = &pools.iter().find(|(n, _)| *n == "overhead").unwrap().1;
        assert_eq!(overhead, &[70, 20]);
    }
}
