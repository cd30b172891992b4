//! The gate, enforced by `cargo test` itself: the real workspace must
//! carry zero violations.
//!
//! This is the same check CI's `ofl-lint` run performs, so a developer
//! who never touches CI still cannot land a new wall-clock read, an
//! unordered digest-path iteration, ambient randomness, or a daemon panic
//! path without either fixing it or annotating it with a reasoned escape.

use std::path::PathBuf;

#[test]
fn workspace_has_no_violations() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = ofl_lint::run(&root).expect("workspace scan succeeds");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — is the walker broken?",
        report.files_scanned
    );
    assert!(
        report.violations.is_empty(),
        "lint violations (fix them, or annotate with a reasoned escape):\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("  {} {}:{} {}", v.rule, v.path, v.line, v.snippet))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
