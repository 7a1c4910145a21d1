#![allow(clippy::print_stdout)]
//! `fair-serve` — serves the experiment registry over HTTP.
//!
//! Usage:
//!   `cargo run --release -p fair-bench --bin fair-serve -- [FLAGS]`
//!
//! Flags:
//!   `--addr A`          bind address (default `127.0.0.1:0` = ephemeral)
//!   `--loops N`         event loops, accept-sharded via `SO_REUSEPORT`
//!                       (default: available parallelism)
//!   `--workers N`       worker threads (default 4)
//!   `--queue N`         bounded job-queue capacity (default 64)
//!   `--deadline-ms N`   per-request deadline (default 30000)
//!   `--keepalive-ms N`  idle keep-alive connection timeout (default 10000)
//!   `--max-trials N`    largest accepted `trials` (default 100000)
//!   `--default-trials N` trials when the request omits them (default 200)
//!   `--metrics-out P`   flush the final metrics snapshot to P on shutdown
//!   `--tiles-dir P`     persistent tile-store root (default
//!                       `target/simlab/tiles`): full 64-trial tiles live
//!                       in its `<build>/` subdirectory, named by the
//!                       16-hex fingerprint of the sources the binary was
//!                       built from; they are warmed from disk at boot and
//!                       flushed after cold computes, so estimates survive
//!                       restarts of one build
//!   `--no-tiles`        run without a persistent tile store
//!
//! Prints `PORT=<n>` (then `ADDR=<addr>`) on stdout once bound, so
//! scripts binding port 0 can discover the ephemeral port. Stop it with
//! `POST /shutdown` (e.g. `fair-load shutdown --addr 127.0.0.1:<n>`);
//! shutdown drains in-flight requests before the process exits.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use fair_bench::runner::tile_dir;
use fair_bench::servecli::ExperimentBackend;
use fair_serve::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: fair-serve [--addr A] [--loops N] [--workers N] [--queue N] [--deadline-ms N]\n\
         \x20                 [--keepalive-ms N]\n\
         \x20                 [--max-trials N] [--default-trials N] [--metrics-out PATH]\n\
         \x20                 [--tiles-dir PATH] [--no-tiles]"
    );
    std::process::exit(2);
}

fn parsed<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let raw = value.unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        usage()
    });
    raw.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid {flag} value {raw:?}");
        usage()
    })
}

fn main() {
    // The binary defaults to a persistent tile store (the library default
    // is `None` so embedders opt in); `--no-tiles` opts back out.
    let mut config = ServerConfig {
        tiles_dir: Some(std::path::PathBuf::from(fair_tiles::DEFAULT_DIR)),
        loops: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = parsed("--addr", args.next()),
            "--loops" => config.loops = parsed("--loops", args.next()),
            "--workers" => config.workers = parsed("--workers", args.next()),
            "--queue" => config.queue_cap = parsed("--queue", args.next()),
            "--deadline-ms" => {
                config.deadline = Duration::from_millis(parsed("--deadline-ms", args.next()));
            }
            "--keepalive-ms" => {
                config.keepalive_timeout =
                    Duration::from_millis(parsed("--keepalive-ms", args.next()));
            }
            "--max-trials" => config.service.max_trials = parsed("--max-trials", args.next()),
            "--default-trials" => {
                config.service.default_trials = parsed("--default-trials", args.next());
            }
            "--metrics-out" => {
                config.metrics_path =
                    Some(parsed::<std::path::PathBuf>("--metrics-out", args.next()));
            }
            "--tiles-dir" => {
                config.tiles_dir = Some(parsed::<std::path::PathBuf>("--tiles-dir", args.next()));
            }
            "--no-tiles" => config.tiles_dir = None,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage()
            }
        }
    }

    // Collect per-protocol trace metrics for the lifetime of the server;
    // `/metrics` snapshots them live and shutdown flushes them.
    fair_trace::metrics::set_enabled(true);

    config.tiles_dir = config.tiles_dir.map(|root| tile_dir(&root));
    let tiles_note = config.tiles_dir.as_ref().map(|p| p.display().to_string());
    let server = match Server::bind(config, Arc::new(ExperimentBackend)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: could not bind: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.local_addr();
    println!("PORT={}", addr.port());
    println!("ADDR={addr}");
    let _ = std::io::stdout().flush();
    eprintln!(
        "[serve] listening on {addr}; {} event loop(s); stop with POST /shutdown",
        server.loops()
    );
    match tiles_note {
        Some(dir) => eprintln!("[serve] persistent tile store at {dir}"),
        None => eprintln!("[serve] tile store disabled (--no-tiles)"),
    }

    if let Err(e) = server.run() {
        eprintln!("error: server failed: {e}");
        std::process::exit(1);
    }
    eprintln!("[serve] drained and stopped");
}
