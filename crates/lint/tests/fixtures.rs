//! Fixture tests: every rule proven against a known-bad snippet (tripping
//! exactly its own rule id) and a known-good twin (clean).
//!
//! Fixtures live in `tests/fixtures/` — a directory the workspace pass
//! skips, because the bad twins contain violations on purpose. Each
//! fixture is scanned here under a *synthetic* workspace path so it gets
//! the same rule scoping the real tree would (`crates/eth/src/…` for the
//! determinism rules, `crates/rpcd/src/…` for R1).

use ofl_lint::rules::{
    d1_wall_clock, d2_unordered_iteration, d3_ambient_randomness, r1_no_panic, Violation,
};
use ofl_lint::scan::ScannedFile;
use std::path::PathBuf;

/// Loads a fixture and scans it as if it lived at `as_path` in the
/// workspace (not as test code — the fixtures model production files).
fn scan_fixture(name: &str, as_path: &str) -> ScannedFile {
    let on_disk = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&on_disk)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", on_disk.display()));
    ScannedFile::scan(as_path, &text, false)
}

/// Runs every line rule with the same scoping `ofl_lint::run` applies,
/// and returns the rule ids that fired.
fn fired_rules(file: &ScannedFile) -> Vec<&'static str> {
    let mut violations: Vec<Violation> = Vec::new();
    if !ofl_lint::config::path_in(&file.path, ofl_lint::config::D1_ALLOW) {
        violations.extend(d1_wall_clock(file));
    }
    if ofl_lint::config::path_in(&file.path, ofl_lint::config::D2_SCOPE) {
        violations.extend(d2_unordered_iteration(file));
    }
    violations.extend(d3_ambient_randomness(file));
    if ofl_lint::config::path_in(&file.path, ofl_lint::config::R1_SCOPE) {
        violations.extend(r1_no_panic(file));
    }
    let mut rules: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn d1_bad_trips_exactly_d1() {
    let file = scan_fixture("d1_bad.rs", "crates/eth/src/fixture.rs");
    assert_eq!(fired_rules(&file), vec!["D1"]);
    assert_eq!(d1_wall_clock(&file).len(), 2, "Instant + SystemTime");
}

#[test]
fn d1_good_is_clean() {
    let file = scan_fixture("d1_good.rs", "crates/eth/src/fixture.rs");
    assert_eq!(fired_rules(&file), Vec::<&str>::new());
}

#[test]
fn d2_bad_trips_exactly_d2() {
    let file = scan_fixture("d2_bad.rs", "crates/eth/src/fixture.rs");
    assert_eq!(fired_rules(&file), vec!["D2"]);
    assert_eq!(d2_unordered_iteration(&file).len(), 2, ".iter() + .keys()");
}

#[test]
fn d2_good_is_clean() {
    let file = scan_fixture("d2_good.rs", "crates/eth/src/fixture.rs");
    assert_eq!(fired_rules(&file), Vec::<&str>::new());
}

#[test]
fn d2_is_scoped_to_digest_crates() {
    // The same bad code outside the digest-bearing crates is not D2's
    // business (it cannot reach a digest).
    let file = scan_fixture("d2_bad.rs", "crates/bench/src/fixture.rs");
    assert_eq!(fired_rules(&file), Vec::<&str>::new());
}

#[test]
fn d3_bad_trips_exactly_d3() {
    let file = scan_fixture("d3_bad.rs", "crates/eth/src/fixture.rs");
    assert_eq!(fired_rules(&file), vec!["D3"]);
    assert_eq!(d3_ambient_randomness(&file).len(), 2, "thread_rng + OsRng");
}

#[test]
fn d3_good_is_clean() {
    let file = scan_fixture("d3_good.rs", "crates/eth/src/fixture.rs");
    assert_eq!(fired_rules(&file), Vec::<&str>::new());
}

#[test]
fn r1_bad_trips_exactly_r1() {
    let file = scan_fixture("r1_bad.rs", "crates/rpcd/src/fixture.rs");
    assert_eq!(fired_rules(&file), vec!["R1"]);
    assert_eq!(r1_no_panic(&file).len(), 3, "expect + unwrap + panic!");
}

#[test]
fn r1_good_is_clean() {
    let file = scan_fixture("r1_good.rs", "crates/rpcd/src/fixture.rs");
    assert_eq!(fired_rules(&file), Vec::<&str>::new());
}

#[test]
fn r1_is_scoped_to_daemon_paths() {
    // Panic paths outside the daemon/transport are other crates' choice.
    let file = scan_fixture("r1_bad.rs", "crates/fl/src/fixture.rs");
    assert_eq!(fired_rules(&file), Vec::<&str>::new());
}
