//! `ofl-lint` — the workspace determinism & robustness analysis pass.
//!
//! The system's load-bearing guarantee is that serial/parallel and
//! in-process/socket runs produce bit-identical digests. That guarantee
//! is enforced dynamically by the regression tests, but nothing *stops*
//! a change from iterating a `HashMap` in a digest path, reading the
//! wall clock inside the engine, or panicking a daemon worker — each a
//! latent nondeterminism or crash bug the tests may miss for many PRs.
//!
//! This crate is an offline, dependency-free static pass that proves the
//! invariants file-by-file:
//!
//! - **D1 no-wall-clock** — `Instant::now`/`SystemTime` only on the
//!   allowlist (bench legs, the gated hotpath timer).
//! - **D2 no-unordered-iteration** — no `HashMap`/`HashSet` iteration in
//!   digest-bearing crates unless sorted or `ordered-ok`-annotated.
//! - **D3 no-ambient-randomness** — seeds flow from config, never from
//!   entropy.
//! - **R1 no-panic-in-daemon** — `unwrap`/`expect`/`panic!` banned in
//!   `rpcd` and `rpc::transport` non-test code.
//!
//! The gate fails on any violation: fix it, or annotate it with the
//! rule's reasoned escape. Run it with `cargo run -p ofl-lint -- [--json]`.

#![forbid(unsafe_code)]

pub mod config;
pub mod rules;
pub mod scan;

use crate::rules::Violation;
use crate::scan::ScannedFile;
use std::path::{Path, PathBuf};

/// The result of one full workspace pass.
#[derive(Debug)]
pub struct Report {
    /// Every violation found, sorted by (path, line, rule).
    pub violations: Vec<Violation>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

/// Runs the full pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    files.sort();

    let mut violations = Vec::new();
    for absolute in &files {
        let file = ScannedFile::scan_path(root, absolute)?;
        if !config::path_in(&file.path, config::D1_ALLOW) {
            violations.extend(rules::d1_wall_clock(&file));
        }
        if config::path_in(&file.path, config::D2_SCOPE) {
            violations.extend(rules::d2_unordered_iteration(&file));
        }
        violations.extend(rules::d3_ambient_randomness(&file));
        if config::path_in(&file.path, config::R1_SCOPE) {
            violations.extend(rules::r1_no_panic(&file));
        }
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Report {
        violations,
        files_scanned: files.len(),
    })
}

/// Recursively collects `.rs` files under `dir`, honoring
/// [`config::SKIP_DIRS`] (matched against workspace-relative paths).
fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if config::SKIP_DIRS
            .iter()
            .any(|skip| rel == *skip || rel.starts_with(&format!("{skip}/")))
        {
            continue;
        }
        let kind = entry.file_type()?;
        if kind.is_dir() {
            collect_rust_files(root, &path, out)?;
        } else if kind.is_file() && rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root from a starting directory by walking up to
/// the first directory containing both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Renders violations as a JSON array (hand-rolled — the pass must stay
/// dependency-free). Stable field order, sorted input preserved.
pub fn to_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"total\": {},\n", report.violations.len()));
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", json_string(v.rule)));
        out.push_str(&format!("\"path\": {}, ", json_string(&v.path)));
        out.push_str(&format!("\"line\": {}, ", v.line));
        out.push_str(&format!("\"snippet\": {}, ", json_string(&v.snippet)));
        out.push_str(&format!("\"message\": {}", json_string(&v.message)));
        out.push('}');
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escapes a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_report_is_well_formed_when_empty() {
        let report = Report {
            violations: Vec::new(),
            files_scanned: 3,
        };
        let json = to_json(&report);
        assert!(json.contains("\"violations\": []"));
        assert!(json.contains("\"files_scanned\": 3"));
    }
}
