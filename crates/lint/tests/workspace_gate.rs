//! The gate, enforced by `cargo test` itself: the real workspace must
//! carry zero violations that are not in the checked-in baseline.
//!
//! This is the same check CI's `--deny-new` run performs, so a developer
//! who never touches CI still cannot land a new wall-clock read, an
//! unordered digest-path iteration, ambient randomness, or a daemon panic
//! path without either fixing it or consciously annotating/baselining it.

use ofl_lint::baseline::Baseline;
use std::path::PathBuf;

#[test]
fn workspace_has_no_unbaselined_violations() {
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

    let baseline = std::fs::read_to_string(root.join("crates/lint/baseline.txt"))
        .map(|text| Baseline::parse(&text))
        .unwrap_or_default();
    let (new, _baselined) = baseline.partition(&report.violations);
    assert!(
        new.is_empty(),
        "new lint violations (fix them, annotate with a reasoned escape, \
         or — only for pre-existing debt — add to crates/lint/baseline.txt):\n{}",
        new.iter()
            .map(|v| format!("  {} {}:{} {}", v.rule, v.path, v.line, v.snippet))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
