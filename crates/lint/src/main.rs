//! CLI driver for `ofl-lint`.
//!
//! ```text
//! cargo run -p ofl-lint -- [--root PATH] [--deny-new] [--json] [--write-baseline]
//! ```
//!
//! Default mode reports every violation (baselined ones tagged) and
//! exits 0: an inventory, not a gate. `--deny-new` is the CI gate: exit
//! 1 if any violation is missing from `crates/lint/baseline.txt`.
//! `--json` emits the machine-readable report on stdout (human summary
//! moves to stderr). `--write-baseline` regenerates the baseline from
//! the current tree and exits.

#![forbid(unsafe_code)]

use ofl_lint::baseline::Baseline;
use ofl_lint::{find_workspace_root, run, to_json};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: Option<PathBuf>,
    deny_new: bool,
    json: bool,
    write_baseline: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        root: None,
        deny_new: false,
        json: false,
        write_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-new" => options.deny_new = true,
            "--json" => options.json = true,
            "--write-baseline" => options.write_baseline = true,
            "--root" => {
                let value = args.next().ok_or("--root needs a path")?;
                options.root = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                println!(
                    "ofl-lint: workspace determinism & robustness analysis\n\n\
                     usage: ofl-lint [--root PATH] [--deny-new] [--json] [--write-baseline]\n\n\
                     rules: D1 no-wall-clock, D2 no-unordered-iteration,\n\
                     D3 no-ambient-randomness, R1 no-panic-in-daemon"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("ofl-lint: {message}");
            return ExitCode::from(2);
        }
    };

    let root = match options.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| find_workspace_root(&cwd))
    }) {
        Some(root) => root,
        None => {
            eprintln!("ofl-lint: could not locate the workspace root; pass --root");
            return ExitCode::from(2);
        }
    };

    let report = match run(&root) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("ofl-lint: scan failed: {error}");
            return ExitCode::from(2);
        }
    };

    let baseline_path = root.join("crates/lint/baseline.txt");
    if options.write_baseline {
        let baseline = Baseline::from_violations(&report.violations);
        if let Err(error) = std::fs::write(&baseline_path, baseline.format()) {
            eprintln!(
                "ofl-lint: cannot write {}: {error}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        eprintln!(
            "ofl-lint: wrote {} baseline entr{} to {}",
            baseline.len(),
            if baseline.len() == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text),
        Err(_) => Baseline::default(),
    };
    let (new, baselined) = baseline.partition(&report.violations);

    if options.json {
        print!("{}", to_json(&report, new.len(), baselined.len()));
    }

    // Human report: stdout normally, stderr when stdout carries JSON.
    let mut human = String::new();
    for violation in &new {
        human.push_str(&format!(
            "{} {}:{} {}\n    {}\n",
            violation.rule, violation.path, violation.line, violation.snippet, violation.message
        ));
    }
    for violation in &baselined {
        human.push_str(&format!(
            "{} {}:{} {} [baselined]\n",
            violation.rule, violation.path, violation.line, violation.snippet
        ));
    }
    for stale in baseline.stale(&report.violations) {
        human.push_str(&format!(
            "note: stale baseline entry (hit was fixed — delete the line): {stale}\n"
        ));
    }
    human.push_str(&format!(
        "ofl-lint: {} files, {} violation{} ({} new, {} baselined)\n",
        report.files_scanned,
        report.violations.len(),
        if report.violations.len() == 1 {
            ""
        } else {
            "s"
        },
        new.len(),
        baselined.len()
    ));
    if options.json {
        eprint!("{human}");
    } else {
        print!("{human}");
    }

    if options.deny_new && !new.is_empty() {
        eprintln!(
            "ofl-lint: --deny-new: {} violation{} not in the baseline",
            new.len(),
            if new.len() == 1 { "" } else { "s" }
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
