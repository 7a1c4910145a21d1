#![forbid(unsafe_code)]
#![allow(clippy::print_stdout)] // the harness reports on stdout by design
//! The repository benchmark: drives one named workload per process and
//! prints its metrics, ending with one JSON result line.
//!
//! Usage (normally through `perfbench/run.py`, which builds first):
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --repo <root> --serve-bin <fair-serve> --pins <pins.txt> --work <dir>
//! perfbench --bless --repo <root> --pins <pins.txt> --work <dir>
//! perfbench --setup-probe --repo <root>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` runs the layer-by-layer pipeline with spans and prints the
//! per-layer metrics instead. `--bless` recomputes the pinned result
//! digests for every workload (see `pins.txt`). `--setup-probe` is the
//! child process the batch set-up time is measured on.

mod batch;
mod pins;
mod report;
mod serve;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// Everything a workload needs from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub repo: PathBuf,
    pub serve_bin: PathBuf,
    pub pins: PathBuf,
    pub work: PathBuf,
}

/// Workers for batch runs and the traced pipeline: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         --repo DIR --serve-bin PATH --pins PATH --work DIR\n       \
         perfbench --bless --repo DIR --pins PATH --work DIR",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["reproduce_heavy", "registry_sweep", "serve_mixed"];

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repo = None;
    let mut serve_bin = None;
    let mut pins = None;
    let mut work = None;
    let mut bless = false;
    let mut setup_probe = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--bless" || flag == "--setup-probe" {
            bless |= flag == "--bless";
            setup_probe |= flag == "--setup-probe";
            continue;
        }
        let Some(value) = argv.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| *s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--repo" => repo = Some(PathBuf::from(value)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--pins" => pins = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    if setup_probe {
        fair_simlab::set_jobs(nproc());
        return match repo.as_deref().map(batch::setup_registry) {
            Some(Ok(ids)) => {
                println!("ready {ids}");
                ExitCode::SUCCESS
            }
            Some(Err(e)) => usage(&e),
            None => usage("--setup-probe needs --repo"),
        };
    }
    let (Some(repo), Some(pins), Some(work)) = (repo, pins, work) else {
        return usage("--repo, --pins and --work are required");
    };
    if bless {
        return match pins::bless(&repo, &pins) {
            Ok(n) => {
                eprintln!("perfbench: wrote {n} pinned digests to {}", pins.display());
                ExitCode::SUCCESS
            }
            Err(e) => usage(&format!("bless failed: {e}")),
        };
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(serve_bin)) =
        (workload, seed, seconds, trace, serve_bin)
    else {
        return usage(
            "--workload, --seed, --seconds (>0), --trace (0|1) and --serve-bin are required",
        );
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    let args = Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        repo,
        serve_bin,
        pins,
        work,
    };
    let outcome: Result<Outcome, String> = if args.trace {
        traced::run(&args)
    } else if args.workload == "serve_mixed" {
        serve::run(&args)
    } else {
        batch::run(&args)
    };
    match outcome {
        Ok(outcome) => outcome.finish(),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
