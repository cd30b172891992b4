//! # ofl-bench
//!
//! The experiment harness: one binary per figure/table of the paper
//! (`fig4_model_performance`, `fig5_transaction_costs`, `fig6_loo`,
//! `table1_payments`, `fig7_time_distribution`) plus four ablations
//! (`ablation_oneshot_vs_fedavg`, `ablation_storage_cost`,
//! `ablation_aggregators`, `ablation_incentives`), and Criterion
//! micro-benchmarks of the substrate hot paths.
//!
//! Each binary prints a paper-style text table and appends a JSON record to
//! `target/experiments/<name>.json` for machine consumption.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::path::PathBuf;

/// Where experiment JSON records are written, relative to the repository root.
const EXPERIMENTS: &str = "target/experiments";

/// Resolves `rel`, a path relative to the repository root. Printing `rel`
/// rather than the resolved path keeps a commit's stdout the same in any
/// checkout.
pub fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Where experiment JSON records are written.
pub fn experiments_dir() -> PathBuf {
    let dir = repo_path(EXPERIMENTS);
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes a JSON record for an experiment.
pub fn write_record<T: Serialize>(name: &str, record: &T) {
    experiments_dir(); // creates the directory on first use
    let rel = format!("{EXPERIMENTS}/{name}.json");
    let json = serde_json::to_string_pretty(record).expect("serializable record");
    std::fs::write(repo_path(&rel), json).expect("write experiment record");
    println!("\n[record written to {rel}]");
}

/// Writes the durable perf-trajectory record `BENCH_<name>.json` at the
/// repository root, where CI uploads it as an artifact — one file per
/// bench, overwritten per run, so the repo carries a machine-readable
/// performance trajectory instead of anecdotes.
pub fn write_bench<T: Serialize>(name: &str, record: &T) {
    let rel = format!("BENCH_{name}.json");
    let json = serde_json::to_string_pretty(record).expect("serializable bench record");
    std::fs::write(repo_path(&rel), json).expect("write bench record");
    println!("[bench record written to {rel}]");
}

/// Prints a section header.
pub fn header(title: &str) {
    let bar = "=".repeat(title.len().max(8));
    println!("\n{bar}\n{title}\n{bar}");
}

/// Renders an ASCII bar for a unit-interval value.
pub fn bar(fraction: f64, width: usize) -> String {
    let filled = ((fraction.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_renders_bounds() {
        assert_eq!(bar(0.0, 10), "..........");
        assert_eq!(bar(1.0, 10), "##########");
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(2.0, 4), "####"); // clamped
    }

    #[test]
    fn experiments_dir_exists() {
        assert!(experiments_dir().is_dir());
    }
}
