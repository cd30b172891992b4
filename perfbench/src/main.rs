//! The benchmark's command line.
//!
//! ```text
//! ofl-perfbench --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ofl-perfbench --seed N [--seconds S] [--out DIR]
//! ofl-perfbench --compare PARENT.json CHANGE.json
//! ```
//!
//! The first form runs one workload and prints, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. The second
//! runs the whole suite in child processes and writes a record; the third
//! compares two records.

use ofl_perfbench::bench::{measure, report, Run};
use ofl_perfbench::timed::Span;
use ofl_perfbench::{peak_rss_mb, suite, workload};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  ofl-perfbench --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
  ofl-perfbench --seed N [--seconds S] [--out DIR]
  ofl-perfbench --compare PARENT.json CHANGE.json
workloads: fleet, fleet-tcp, pfnm-loo";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20,
        trace: false,
        trace_out: None,
        out: PathBuf::from("target/bench"),
        compare: None,
    };
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(&flag, value()?)?,
            "--seconds" => args.seconds = number(&flag, value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--out" => args.out = value()?.into(),
            "--compare" => {
                let parent = value()?;
                args.compare = Some((parent.into(), value()?.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ofl-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, &args.workload) {
        (Some((parent, change)), _) => suite::compare(parent, change),
        (None, Some(name)) => run_one(name, &args),
        (None, None) => suite::run_suite(args.seed, args.seconds, &args.out),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ofl-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints its metrics, then the result line.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let mut workload =
        workload(name, args.seed).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    println!("{name}: {}", workload.describe());
    let run = measure(&mut *workload, args.seconds as f64, args.trace);
    let rss = peak_rss_mb();
    let mut report = report(&run, args.trace, rss.unwrap_or(0.0));
    if rss.is_none() {
        report.correct = false;
        report
            .problems
            .push("peak RSS is unreadable (no /proc/self/status)".into());
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for (metric, value, unit) in &report.metrics {
        println!("  {metric:<28} {value:>16.6} {unit}");
    }
    for problem in &report.problems {
        eprintln!("{name}: check failed: {problem}");
    }
    if let Some(path) = &args.trace_out {
        write_trace(path, &run)?;
    }
    println!("{}", report.json_line());
    Ok(report.correct)
}

/// Writes the spans of every traced unit as JSON lines.
fn write_trace(path: &Path, run: &Run) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("write {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    for (u, unit) in run.units.iter().enumerate() {
        let Some(traced) = &unit.traced else { continue };
        let sides = [("client", &unit.client), ("daemon", &traced.daemon)];
        for (side, lists) in sides {
            for (shard, spans) in lists.iter().enumerate() {
                for Span { op, start, end } in spans {
                    writeln!(
                        out,
                        r#"{{"unit":{u},"side":"{side}","shard":{shard},"op":"{}","start_ns":{start},"end_ns":{end}}}"#,
                        op.name()
                    )
                    .map_err(fail)?;
                }
            }
        }
    }
    out.flush().map_err(fail)
}
