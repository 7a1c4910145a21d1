#![forbid(unsafe_code)]
#![allow(clippy::print_stdout)]
//! The `fairlint` binary: walk a workspace, run every rule, report.
//!
//! ```text
//! fairlint [--root <dir>] [--strict] [--json] [--list-rules]
//!          [--explain <RULE>]
//! ```
//!
//! `--json` prints the machine-readable report instead of text;
//! `--explain` prints one rule's rationale and fix.
//!
//! Exit codes: 0 clean (or report-only run), 1 violations under
//! `--strict`, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use fairlint::{render_json_report, Workspace, RULES};

struct Options {
    root: PathBuf,
    strict: bool,
    json: bool,
    list_rules: bool,
    explain: Option<String>,
}

const USAGE: &str =
    "usage: fairlint [--root <dir>] [--strict] [--json] [--list-rules] [--explain <RULE>]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        strict: false,
        json: false,
        list_rules: false,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--strict" => opts.strict = true,
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "--root" => {
                let v = args.next().ok_or("--root needs a directory argument")?;
                opts.root = PathBuf::from(v);
            }
            "--explain" => {
                let v = args.next().ok_or("--explain needs a rule id (e.g. C1)")?;
                opts.explain = Some(v);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for r in RULES {
            println!("{:4} {}", r.id, r.summary);
        }
        println!();
        println!("run `fairlint --explain <RULE>` for a rule's rationale and fix");
        return ExitCode::SUCCESS;
    }

    if let Some(id) = &opts.explain {
        let Some(r) = RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id)) else {
            eprintln!("fairlint: unknown rule `{id}` (see --list-rules)");
            return ExitCode::from(2);
        };
        println!("{} — {}", r.id, r.summary);
        println!();
        println!("why:  {}", r.rationale);
        println!("fix:  {}", r.fix);
        return ExitCode::SUCCESS;
    }

    let ws = match Workspace::load(&opts.root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "fairlint: cannot load workspace {}: {e}",
                opts.root.display()
            );
            return ExitCode::from(2);
        }
    };

    let diags = ws.analyze();

    if opts.json {
        println!("{}", render_json_report(&diags));
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
        let files = ws.files.len();
        if diags.is_empty() {
            println!("fairlint: {files} files, clean");
        } else {
            println!("fairlint: {files} files, {} violation(s)", diags.len());
        }
    }

    if opts.strict && !diags.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
