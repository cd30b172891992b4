//! What the benchmark measures: its workloads, its end-to-end metrics with
//! their regression bounds, its per-layer metrics, and which end-to-end
//! metric each layer metric should move on which workload. The binary
//! reports exactly these names, and [`validate`] holds the repository's
//! `BENCHMARK.json` to them and to the limits of its format.
//!
//! Every metric is a time, a size or a work count, so for every one of
//! them lower is better.

use crate::json;
use serde::Value;
use std::collections::BTreeSet;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        bound: None,
    }
}

/// The workloads, with why each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "fleet",
        "4,992 owners in 156 markets on 4 in-process shards: chain, signing and IPFS carry the load, FL almost none",
    ),
    (
        "fleet-tcp",
        "the fleet's inputs over one TCP connection to an in-process rpcd; the gap to fleet is codec, wire and daemon dispatch",
    ),
    (
        "pfnm-loo",
        "one 10-owner PFNM+LOO market, MLP 784-20-10 (the paper's is 784-100-10): training and aggregation load, the chain idles",
    ),
];

/// The end-to-end metrics, from the untraced units of a run: set-up and
/// run time are the fastest unit's, and write latency the median of the
/// fastest window of writes. Read latencies and the 99th percentiles
/// spread too widely between runs to bound (see `BENCHMARK.md`) and are
/// per-layer metrics instead.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", 0.25),
    e2e("run_s", "s", 0.25),
    e2e("write_p50_us", "us", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
];

/// The per-layer metrics of a `--trace 1` run: request latencies from its
/// untraced units, everything else from its traced units.
pub const PER_LAYER: [Metric; 45] = [
    layer("read_p50_us", "us"),
    layer("read_p99_us", "us"),
    layer("write_p99_us", "us"),
    layer("provider.send_raw.calls", "count"),
    layer("provider.send_raw.busy_s", "s"),
    layer("provider.call.calls", "count"),
    layer("provider.call.busy_s", "s"),
    layer("provider.tx_env.calls", "count"),
    layer("provider.tx_env.busy_s", "s"),
    layer("provider.receipts.calls", "count"),
    layer("provider.receipts.busy_s", "s"),
    layer("provider.read_misc.calls", "count"),
    layer("provider.read_misc.busy_s", "s"),
    layer("provider.mine.calls", "count"),
    layer("provider.mine.busy_s", "s"),
    layer("provider.mine.wall_s", "s"),
    layer("provider.backstage.calls", "count"),
    layer("provider.backstage.busy_s", "s"),
    layer("provider.ipfs_add.calls", "count"),
    layer("provider.ipfs_add.busy_s", "s"),
    layer("provider.ipfs_cat.calls", "count"),
    layer("provider.ipfs_cat.busy_s", "s"),
    layer("eth.sign_s", "s"),
    layer("fl.train_s", "s"),
    layer("fl.aggregate_s", "s"),
    layer("netsim.queue_s", "s"),
    layer("rpc.codec_s", "s"),
    layer("rpc.wire_s", "s"),
    layer("rpc.wire.frames_sent", "count"),
    layer("rpc.wire.recv_wait_s", "s"),
    layer("rpc.round_trips", "count"),
    layer("rpc.requests", "count"),
    layer("rpc.errors", "count"),
    layer("rpcd.frames_served", "count"),
    layer("rpcd.overhead_p50_us", "us"),
    layer("rpcd.read.backend_p50_us", "us"),
    layer("rpcd.write.backend_p50_us", "us"),
    layer("rpcd.mine.backend_p50_us", "us"),
    layer("rpcd.mine_p50_us", "us"),
    layer("rpcd.mine_max_us", "us"),
    layer("rpcd.read_p999_us", "us"),
    layer("rpcd.write_p999_us", "us"),
    layer("core.engine.self_s", "s"),
    layer("core.engine.self_share", "ratio"),
    layer("bench.trace_overhead", "ratio"),
];

/// One prediction: a layer metric should move `metric` on `workloads`.
pub type Move = (&'static str, &'static [&'static str]);

const ALL: &[&str] = &["fleet", "fleet-tcp", "pfnm-loo"];
const FLEETS: &[&str] = &["fleet", "fleet-tcp"];
const FLEET: &[&str] = &["fleet"];
const FLEET_TCP: &[&str] = &["fleet-tcp"];
const PFNM_LOO: &[&str] = &["pfnm-loo"];

/// Which end-to-end metric each per-layer metric should move, and on which
/// workload — written down before measuring, so a gain that shows up
/// elsewhere than predicted is visible as such. `None` for a name that is
/// not a per-layer metric.
pub fn moves(metric: &str) -> Option<&'static [Move]> {
    Some(match metric {
        "read_p50_us" | "read_p99_us" | "write_p99_us" => &[("run_s", FLEETS)],
        "provider.send_raw.calls" | "provider.send_raw.busy_s" => {
            &[("run_s", FLEETS), ("write_p50_us", FLEETS)]
        }
        "provider.call.calls"
        | "provider.call.busy_s"
        | "provider.tx_env.calls"
        | "provider.tx_env.busy_s"
        | "provider.receipts.calls"
        | "provider.receipts.busy_s"
        | "provider.read_misc.calls"
        | "provider.read_misc.busy_s" => &[("run_s", FLEETS)],
        "provider.mine.calls"
        | "provider.mine.busy_s"
        | "provider.mine.wall_s"
        | "provider.backstage.calls"
        | "provider.backstage.busy_s" => &[("run_s", FLEETS)],
        "provider.ipfs_add.calls"
        | "provider.ipfs_add.busy_s"
        | "provider.ipfs_cat.calls"
        | "provider.ipfs_cat.busy_s" => &[("run_s", FLEET)],
        "eth.sign_s" => &[("run_s", FLEET)],
        "fl.train_s" | "fl.aggregate_s" => &[("run_s", PFNM_LOO)],
        "netsim.queue_s" | "core.engine.self_s" | "core.engine.self_share" => &[("run_s", FLEET)],
        "rpc.codec_s"
        | "rpc.wire_s"
        | "rpc.wire.frames_sent"
        | "rpc.wire.recv_wait_s"
        | "rpcd.frames_served"
        | "rpcd.overhead_p50_us" => &[("run_s", FLEET_TCP), ("write_p50_us", FLEET_TCP)],
        "rpc.round_trips" | "rpc.requests" | "rpc.errors" => &[("run_s", FLEETS)],
        "rpcd.write.backend_p50_us" => &[("write_p50_us", FLEET_TCP)],
        "rpcd.read.backend_p50_us"
        | "rpcd.mine.backend_p50_us"
        | "rpcd.mine_p50_us"
        | "rpcd.mine_max_us"
        | "rpcd.read_p999_us"
        | "rpcd.write_p999_us" => &[("run_s", FLEET_TCP)],
        // The tracer's own cost, as a share of run_s on every workload.
        "bench.trace_overhead" => &[("run_s", ALL)],
        _ => return None,
    })
}

/// The end-to-end metric named `name`.
pub(crate) fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A name: a letter or digit, then up to 63 letters, digits, `_`, `.`, `-`.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn valid_path(path: &str) -> bool {
    !path.is_empty()
        && path.len() <= 200
        && !path.starts_with('/')
        && path.split('/').all(|part| part != "..")
        && path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

/// Keys of a JSON object, in document order.
fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

/// True when object `v` has exactly the keys `want`, in any order.
fn has_keys(v: &Value, want: &[&str]) -> bool {
    let mut got = keys(v);
    got.sort_unstable();
    let mut want = want.to_vec();
    want.sort_unstable();
    got == want
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.field(key) {
        Some(Value::Array(items)) => items,
        _ => &[],
    }
}

/// Collects problems and the names seen so far.
#[derive(Default)]
struct Checker {
    problems: Vec<String>,
    names: BTreeSet<String>,
}

impl Checker {
    fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    fn name(&mut self, item: &Value) {
        match item.field("name").and_then(json::string) {
            Some(n) if valid_name(n) => {
                if !self.names.insert(n.to_string()) {
                    self.fail(format!("name {n} used twice"));
                }
            }
            other => self.fail(format!("bad name {other:?}")),
        }
    }

    fn metrics(&mut self, doc: &Value, key: &str, table: &[Metric], limit: usize) {
        let items = list(doc, key);
        if items.is_empty() || items.len() > limit {
            self.fail(format!("{key} has {} metrics (1 to {limit})", items.len()));
        }
        let bounded = key == "end_to_end";
        let want_keys: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        for m in items {
            if !has_keys(m, want_keys) {
                self.fail(format!("{key} metric keys {:?}", keys(m)));
            }
            self.name(m);
            if !m
                .field("unit")
                .and_then(json::string)
                .is_some_and(valid_unit)
            {
                self.fail(format!("bad unit in {m:?}"));
            }
            if !matches!(
                m.field("better").and_then(json::string),
                Some("lower" | "higher")
            ) {
                self.fail(format!("bad better in {m:?}"));
            }
            let bound = m.field("bound").and_then(json::number);
            if bounded && !bound.is_some_and(|b| (0.0..=0.25).contains(&b)) {
                self.fail(format!("bound {bound:?} is not within 0 to 0.25"));
            }
        }
        let declared: Vec<_> = items
            .iter()
            .map(|m| {
                (
                    m.field("name").and_then(json::string),
                    m.field("unit").and_then(json::string),
                    m.field("better").and_then(json::string),
                    m.field("bound").and_then(json::number),
                )
            })
            .collect();
        let reported: Vec<_> = table
            .iter()
            .map(|t| (Some(t.name), Some(t.unit), Some("lower"), t.bound))
            .collect();
        if declared != reported {
            self.fail(format!(
                "{key} does not match the metrics the benchmark reports"
            ));
        }
    }
}

/// Checks a parsed `BENCHMARK.json` against the limits of its format and
/// against the tables above. Returns every problem found (empty when
/// the document is valid).
pub fn validate(doc: &Value) -> Vec<String> {
    let mut c = Checker::default();
    let top = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if !has_keys(doc, &top) {
        c.fail(format!("top-level keys are {:?}", keys(doc)));
    }

    let command = list(doc, "command");
    if command.is_empty() || command.len() > 32 {
        c.fail(format!("command has {} parts (1 to 32)", command.len()));
    }
    for part in command {
        let ok = json::string(part).is_some_and(|s| {
            s.len() <= 200 && !s.starts_with('/') && !s.split('/').any(|p| p == "..")
        });
        if !ok {
            c.fail(format!("bad command part {part:?}"));
        }
    }

    let paths = list(doc, "paths");
    if paths.is_empty() || paths.len() > 16 {
        c.fail(format!("paths has {} entries (1 to 16)", paths.len()));
    }
    for path in paths {
        if !json::string(path).is_some_and(valid_path) {
            c.fail(format!("bad path {path:?}"));
        }
    }

    match doc.field("run_seconds") {
        Some(Value::UInt(s)) if (1..=60).contains(s) => {}
        other => c.fail(format!(
            "run_seconds {other:?} is not a whole number 1 to 60"
        )),
    }

    let workloads = list(doc, "workloads");
    if !(2..=8).contains(&workloads.len()) {
        c.fail(format!("{} workloads (2 to 8)", workloads.len()));
    }
    for w in workloads {
        if !has_keys(w, &["name", "why"]) {
            c.fail(format!("workload keys {:?}", keys(w)));
        }
        c.name(w);
        match w.field("why").and_then(json::string) {
            Some(why) if !why.is_empty() && why.len() <= 200 && !why.contains('\n') => {}
            other => c.fail(format!("bad why {other:?}")),
        }
    }
    let declared: Vec<_> = workloads
        .iter()
        .map(|w| {
            (
                w.field("name").and_then(json::string),
                w.field("why").and_then(json::string),
            )
        })
        .collect();
    let run: Vec<_> = WORKLOADS
        .iter()
        .map(|(n, w)| (Some(*n), Some(*w)))
        .collect();
    if declared != run {
        c.fail("workloads do not match the ones the benchmark runs".into());
    }

    c.metrics(doc, "end_to_end", &END_TO_END, 16);
    c.metrics(doc, "per_layer", &PER_LAYER, 128);

    if end_to_end("setup_s").map(|m| m.unit) != Some("s") {
        c.fail("setup_s must be an end-to-end metric in s".into());
    }
    let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    for m in &PER_LAYER {
        match moves(m.name) {
            Some(predictions) if !predictions.is_empty() => {
                for (target, on) in predictions {
                    if end_to_end(target).is_none() {
                        c.fail(format!("{} moves unknown metric {target}", m.name));
                    }
                    if on.is_empty() || !on.iter().all(|w| known.contains(w)) {
                        c.fail(format!(
                            "{} moves {target} on unknown workloads {on:?}",
                            m.name
                        ));
                    }
                }
            }
            _ => c.fail(format!("{} names no end-to-end metric it moves", m.name)),
        }
    }

    let size = serde_json::to_string(doc).map_or(0, |s| s.len());
    if size > 64 * 1024 {
        c.fail(format!("document is {size} bytes (at most 64 KiB)"));
    }
    c.problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_spec() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn edit(doc: &Value, key: &str, f: impl FnOnce(&mut Value)) -> Value {
        let mut doc = doc.clone();
        if let Value::Object(entries) = &mut doc {
            let slot = entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("key present");
            f(&mut slot.1);
        }
        doc
    }

    fn items(v: &mut Value) -> &mut Vec<Value> {
        match v {
            Value::Array(items) => items,
            _ => panic!("not an array"),
        }
    }

    #[test]
    fn repository_benchmark_json_is_valid_and_matches_the_tables() {
        let problems = validate(&repo_spec());
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn every_per_layer_metric_predicts_a_move() {
        for m in &PER_LAYER {
            let predictions = moves(m.name).expect("every layer metric is mapped");
            assert!(!predictions.is_empty(), "{}", m.name);
        }
        assert_eq!(moves("run_s"), None);
    }

    #[test]
    fn names_follow_the_format() {
        assert!(valid_name("provider.send_raw.busy_s"));
        assert!(valid_name("fleet-tcp"));
        for bad in ["", "_x", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{m:?}");
        }
    }

    #[test]
    fn validation_refuses_documents_outside_the_limits() {
        let doc = repo_spec();
        let broken = [
            edit(&doc, "workloads", |w| items(w).truncate(1)),
            edit(&doc, "workloads", |w| {
                let first = items(w)[0].clone();
                items(w).extend(std::iter::repeat_n(first, 8));
            }),
            edit(&doc, "end_to_end", |m| {
                let first = items(m)[0].clone();
                items(m).extend(std::iter::repeat_n(first, 16));
            }),
            edit(&doc, "per_layer", |m| {
                let first = items(m)[0].clone();
                items(m).extend(std::iter::repeat_n(first, 128));
            }),
            edit(&doc, "end_to_end", |m| {
                if let Value::Object(entries) = &mut items(m)[0] {
                    entries.retain(|(k, _)| k != "bound");
                    entries.push(("bound".into(), Value::Float(0.3)));
                }
            }),
            edit(&doc, "per_layer", |m| {
                if let Value::Object(entries) = &mut items(m)[0] {
                    entries[0].1 = Value::Str("bad name!".into());
                }
            }),
            edit(&doc, "run_seconds", |s| *s = Value::UInt(61)),
            edit(&doc, "paths", |p| {
                items(p)[0] = Value::Str("../elsewhere".into())
            }),
            edit(&doc, "command", |c| {
                items(c).push(Value::Str("/usr/bin/x".into()))
            }),
        ];
        for (i, doc) in broken.iter().enumerate() {
            assert!(!validate(doc).is_empty(), "broken document {i} passed");
        }
        let mut extra = doc.clone();
        if let Value::Object(entries) = &mut extra {
            entries.push(("accuracy".into(), Value::Float(0.9)));
        }
        assert!(!validate(&extra).is_empty(), "an extra key must be refused");
    }
}
