#![allow(clippy::print_stdout)]
//! Reproduces the paper's quantitative claims: runs the requested
//! experiments (default: all) through the `fair-simlab` scheduler and
//! prints paper-vs-measured tables plus run observability.
//!
//! Usage:
//!   `cargo run --release -p fair-bench --bin reproduce -- [FLAGS] [e1 e5 …]`
//!
//! Flags:
//!   `--jobs N`      worker threads for trial sharding (default: 1);
//!                   tallies are bit-identical for every N
//!   `--json PATH`   write the aggregate run record to PATH
//!   `--epsilon F`   adaptive precision target: stop each estimate once
//!                   its 95% CI half-width reaches F; records report
//!                   trials used vs requested in their `adaptive` block
//!   `--tiles`       persist full 64-trial tiles under
//!                   `target/simlab/tiles/<build>/` and reuse any already
//!                   there, so repeat runs only compute what is missing;
//!                   `<build>` is the 16-hex fingerprint of the sources
//!                   the binary was built from, so a rebuilt tree starts
//!                   cold
//!   `--list`        list experiment ids with descriptions and exit
//!   `--markdown`    render tables as GitHub markdown
//!   `--trace`       capture sample transcripts per experiment under
//!                   `target/simlab/trace/` (replayable via `fair-trace`)
//!
//! Trials per estimate default to 1000; override with `FAIR_TRIALS`.
//! Per-experiment records always land in `target/simlab/<exp>.json`.

use fair_bench::runner::{run_suite, tile_dir, SuiteOptions, BASE_SEED};

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--jobs N] [--json PATH] [--epsilon F] [--tiles] [--markdown]\n\
         \x20                [--trace] [--list] [EXPERIMENT ...]\n\
         experiment ids: e1 .. e17 plus scenario-derived s_* entries\n\
         (default: all); see --list"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut markdown = false;
    let mut trace = false;
    let mut tiles = false;
    let mut json = None;
    let mut epsilon = None;
    let mut ids: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--markdown" => markdown = true,
            "--trace" => trace = true,
            "--list" => {
                // The shared registry listing — `fair-trace list` prints
                // the same lines, so both tools name experiments
                // identically.
                for (id, title) in fair_bench::experiment_listing() {
                    println!("{id:<4} {title}");
                }
                return;
            }
            "--jobs" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("error: --jobs needs a value");
                    usage()
                });
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => fair_simlab::set_jobs(n),
                    _ => {
                        eprintln!(
                            "error: invalid --jobs value {value:?} (want a positive integer)"
                        );
                        usage()
                    }
                }
            }
            "--json" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("error: --json needs a path");
                    usage()
                });
                json = Some(std::path::PathBuf::from(value));
            }
            "--epsilon" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("error: --epsilon needs a value");
                    usage()
                });
                match value.parse::<f64>() {
                    Ok(e) if e.is_finite() && e >= 0.0 => epsilon = Some(e),
                    _ => {
                        eprintln!(
                            "error: invalid --epsilon value {value:?} \
                             (want a finite non-negative number)"
                        );
                        usage()
                    }
                }
            }
            "--tiles" => tiles = true,
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag:?}");
                usage()
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        ids = fair_bench::all_experiment_ids();
    }
    if tiles {
        // Warm from whatever previous runs (or a serve instance sharing
        // the directory) left behind; run_suite flushes new tiles at the
        // end.
        let dir = tile_dir(std::path::Path::new(fair_tiles::DEFAULT_DIR));
        let store = fair_tiles::Store::persistent(&dir);
        let loaded = store.load();
        fair_tiles::cache::install(std::sync::Arc::new(store));
        eprintln!(
            "[simlab] tile store {}: {} record(s) loaded from {} file(s)",
            dir.display(),
            loaded.loaded_records,
            loaded.files,
        );
    }
    let opts = SuiteOptions {
        ids,
        trials: fair_bench::default_trials(),
        seed: BASE_SEED,
        markdown,
        json,
        trace,
        epsilon,
    };
    let suite = match run_suite(&opts) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[simlab] suite: {} experiments, {} trials each, {} jobs, {:.1}s total",
        suite.experiments.len(),
        suite.trials,
        suite.jobs,
        suite.total_wall_ms / 1000.0
    );
    println!(
        "overall: {}",
        if suite.pass {
            "ALL CLAIMS REPRODUCED ✓"
        } else {
            "SOME CLAIMS FAILED ✗"
        }
    );
    if !suite.pass {
        std::process::exit(1);
    }
}
