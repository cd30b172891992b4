//! CLI driver for `ofl-lint`.
//!
//! ```text
//! cargo run -p ofl-lint -- [--root PATH] [--json]
//! ```
//!
//! Reports every violation and exits 1 if there is any: the CI gate.
//! `--json` emits the machine-readable report on stdout (human summary
//! moves to stderr).

#![forbid(unsafe_code)]

use ofl_lint::{find_workspace_root, run, to_json};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: Option<PathBuf>,
    json: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        root: None,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => options.json = true,
            "--root" => {
                let value = args.next().ok_or("--root needs a path")?;
                options.root = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                println!(
                    "ofl-lint: workspace determinism & robustness analysis\n\n\
                     usage: ofl-lint [--root PATH] [--json]\n\n\
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

    if options.json {
        print!("{}", to_json(&report));
    }

    // Human report: stdout normally, stderr when stdout carries JSON.
    let mut human = String::new();
    for violation in &report.violations {
        human.push_str(&format!(
            "{} {}:{} {}\n    {}\n",
            violation.rule, violation.path, violation.line, violation.snippet, violation.message
        ));
    }
    human.push_str(&format!(
        "ofl-lint: {} files, {} violation{}\n",
        report.files_scanned,
        report.violations.len(),
        if report.violations.len() == 1 {
            ""
        } else {
            "s"
        },
    ));
    if options.json {
        eprint!("{human}");
    } else {
        print!("{human}");
    }

    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
