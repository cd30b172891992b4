//! The whole benchmark in one command, and the comparison of two commits.
//!
//! [`run_suite`] runs every workload as [`SUITE_REPS`] untraced runs plus
//! one traced run, each in a fresh child process (so each reports its own
//! peak RSS), prints every metric by name and unit, and writes the record
//! `<out>/<seed>.json` with per-layer spans in `<out>/trace-<workload>.jsonl`.
//! [`compare`] reads two such records and gives each workload × end-to-end
//! metric a verdict against the metric's regression bound.

use crate::json;
use crate::spec::{self, END_TO_END, WORKLOADS};
use crate::stats::Summary;
use serde::Value;
use std::path::Path;
use std::process::{Command, Stdio};

/// Untraced runs per workload in a suite: enough for a median and a
/// min/max.
pub const SUITE_REPS: usize = 3;

/// The parsed result line of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn child(args: &[String]) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|e| format!("child printed no result ({e}): {args:?}"))?;
    let count = |key| doc.field(key).and_then(json::number).unwrap_or(0.0) as u64;
    let metrics = match doc.field("metrics") {
        Some(Value::Object(entries)) => entries
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.field("value").and_then(json::number)?)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChildResult {
        correct: doc.field("correct") == Some(&Value::Bool(true)) && output.status.success(),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

/// Runs the suite at `seed`: per workload, [`SUITE_REPS`] untraced runs
/// and one traced run of `seconds` each. Returns whether every run was
/// correct with no failed operation.
pub fn run_suite(seed: u64, seconds: u64, out: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut all_ok = true;
    let mut records = Vec::new();
    for (workload, _) in WORKLOADS {
        let base = |trace: &str| {
            vec![
                "--workload".to_string(),
                workload.to_string(),
                "--seed".into(),
                seed.to_string(),
                "--seconds".into(),
                seconds.to_string(),
                "--trace".into(),
                trace.into(),
            ]
        };
        let mut runs = Vec::new();
        for rep in 0..SUITE_REPS {
            eprintln!("{workload}: untraced run {} of {SUITE_REPS}", rep + 1);
            runs.push(child(&base("0"))?);
        }
        eprintln!("{workload}: traced run");
        let trace_path = out.join(format!("trace-{workload}.jsonl"));
        let mut traced_args = base("1");
        traced_args.extend(["--trace-out".into(), trace_path.display().to_string()]);
        let traced = child(&traced_args)?;

        let correct = runs.iter().chain([&traced]).all(|r| r.correct);
        let attempted: u64 = runs.iter().chain([&traced]).map(|r| r.attempted).sum();
        let failed: u64 = runs.iter().chain([&traced]).map(|r| r.failed).sum();
        all_ok &= correct && failed == 0;
        println!("\n{workload}: correct {correct}, {failed} of {attempted} operations failed");
        let mut e2e = Vec::new();
        for metric in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.metrics
                        .iter()
                        .find(|(n, _)| n == metric.name)
                        .map(|m| m.1)
                })
                .collect();
            let Some(s) = Summary::of(&values) else {
                continue;
            };
            println!(
                "  {:<28} {:>14.6} {:<6} [{:.6} .. {:.6}] over {} runs",
                metric.name, s.median, metric.unit, s.min, s.max, s.n
            );
            e2e.push(Value::Object(vec![
                ("name".into(), Value::Str(metric.name.into())),
                ("unit".into(), Value::Str(metric.unit.into())),
                (
                    "values".into(),
                    Value::Array(values.into_iter().map(Value::Float).collect()),
                ),
                ("min".into(), Value::Float(s.min)),
                ("median".into(), Value::Float(s.median)),
                ("max".into(), Value::Float(s.max)),
            ]));
        }
        let mut layers = Vec::new();
        for (name, value) in &traced.metrics {
            let unit = spec::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map_or("", |m| m.unit);
            println!("  {name:<28} {value:>14.6} {unit}");
            layers.push(Value::Object(vec![
                ("name".into(), Value::Str(name.clone())),
                ("unit".into(), Value::Str(unit.into())),
                ("value".into(), Value::Float(*value)),
            ]));
        }
        records.push(Value::Object(vec![
            ("name".into(), Value::Str(workload.into())),
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(attempted)),
            ("failed".into(), Value::UInt(failed)),
            ("end_to_end".into(), Value::Array(e2e)),
            ("per_layer".into(), Value::Array(layers)),
        ]));
    }
    let record = Value::Object(vec![
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::UInt(seconds)),
        ("workloads".into(), Value::Array(records)),
    ]);
    let path = out.join(format!("{seed}.json"));
    let text = serde_json::to_string_pretty(&record).expect("a value tree always renders");
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nrecord: {}", path.display());
    Ok(all_ok)
}

/// How a metric moved between two commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of the change beats every run of the parent.
    Better,
    /// The change's median is no worse than the bound allows, and both
    /// sides' spreads are within the bound.
    WithinBound,
    /// The change's median is worse by more than the bound, and both
    /// sides' spreads are within it.
    Worse,
    /// The runs spread wider than the bound: nothing can be concluded.
    Unresolved,
}

/// Judges parent `a` against change `b` for a lower-is-better metric with
/// regression bound `bound`.
pub fn verdict(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    if b.max < a.min {
        Verdict::Better
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if (b.median - a.median) / a.median.abs() > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// The end-to-end summaries of one suite record: `(workload, metric)` →
/// summary.
fn summaries(record: &Value) -> Vec<(String, String, Summary)> {
    let mut out = Vec::new();
    let workloads = match record.field("workloads") {
        Some(Value::Array(items)) => items.as_slice(),
        _ => &[],
    };
    for w in workloads {
        let name = w.field("name").and_then(json::string).unwrap_or_default();
        let Some(Value::Array(metrics)) = w.field("end_to_end") else {
            continue;
        };
        for m in metrics {
            let values: Vec<f64> = match m.field("values") {
                Some(Value::Array(v)) => v.iter().filter_map(json::number).collect(),
                _ => Vec::new(),
            };
            if let (Some(metric), Some(s)) =
                (m.field("name").and_then(json::string), Summary::of(&values))
            {
                out.push((name.to_string(), metric.to_string(), s));
            }
        }
    }
    out
}

/// Prints one row per workload × end-to-end metric of two suite records:
/// both medians with their min/max, the change, and the verdict. Returns
/// whether no row was [`Verdict::Worse`].
pub fn compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let read = |path: &Path| -> Result<Value, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (summaries(&read(parent)?), summaries(&read(change)?));
    println!(
        "{:<10} {:<14} {:>26} {:>26} {:>8}  verdict",
        "workload", "metric", "parent median [min..max]", "change median [min..max]", "delta"
    );
    let mut no_worse = true;
    for (workload, metric, sa) in &a {
        let Some((_, _, sb)) = b.iter().find(|(w, m, _)| w == workload && m == metric) else {
            continue;
        };
        let Some(spec) = spec::end_to_end(metric) else {
            continue;
        };
        let v = verdict(sa, sb, spec.bound.unwrap_or(0.0));
        no_worse &= v != Verdict::Worse;
        let cell = |s: &Summary| format!("{:.4} [{:.4}..{:.4}]", s.median, s.min, s.max);
        println!(
            "{workload:<10} {metric:<14} {:>26} {:>26} {:>+7.1}%  {v:?}",
            cell(sa),
            cell(sb),
            (sb.median - sa.median) / sa.median.abs() * 100.0
        );
    }
    Ok(no_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(min: f64, median: f64, max: f64) -> Summary {
        Summary {
            min,
            median,
            max,
            n: 3,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let parent = s(0.98, 1.0, 1.02);
        // Every run faster: better, however small the gain.
        assert_eq!(verdict(&parent, &s(0.9, 0.95, 0.97), 0.1), Verdict::Better);
        // Slower, but inside the bound.
        assert_eq!(
            verdict(&parent, &s(1.0, 1.05, 1.07), 0.1),
            Verdict::WithinBound
        );
        // Slower beyond the bound with tight spreads.
        assert_eq!(verdict(&parent, &s(1.15, 1.2, 1.22), 0.1), Verdict::Worse);
        // A wide spread hides everything but a clean win.
        assert_eq!(
            verdict(&parent, &s(0.8, 1.2, 1.5), 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&s(0.5, 1.0, 1.5), &s(1.0, 1.0, 1.0), 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn summaries_read_suite_records() {
        let record = json::parse(
            r#"{"seed":42,"workloads":[{"name":"fleet","end_to_end":[
                {"name":"run_s","unit":"s","values":[1.0,1.2,1.1]}]}]}"#,
        )
        .unwrap();
        let rows = summaries(&record);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].0.as_str(), rows[0].1.as_str()), ("fleet", "run_s"));
        assert_eq!(rows[0].2, s(1.0, 1.1, 1.2));
    }
}
