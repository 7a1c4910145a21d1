//! The experiment runner: executes experiments through the `fair-simlab`
//! scheduler with observability (progress lines, wall-clock, per-trial
//! latency) and persists structured records — `target/simlab/<exp>.json`
//! per experiment plus an aggregate suite record (`BENCH_reproduce.json`).

use std::path::{Path, PathBuf};
use std::sync::mpsc::Sender;
use std::time::Instant;

use fair_simlab::metrics::{self, fmt_ns};
use fair_simlab::{AdaptiveSummary, ExpRecord, ProgressUpdate, ReportRecord, SuiteRecord};

/// Where per-experiment records are persisted, relative to the working
/// directory.
pub const RECORD_DIR: &str = "target/simlab";

/// The base seed every experiment binary runs with.
pub const BASE_SEED: u64 = 0xfa1e;

/// Transcripts sampled per experiment by `reproduce --trace`.
pub const SUITE_TRACE_SAMPLE: usize = 2;

/// Fingerprint of the workspace sources this build was compiled from:
/// 16 hex digits of FNV-1a over every `crates/*/src/**/*.rs` (see the
/// crate's `build.rs`).
pub const SOURCE_FINGERPRINT: &str = env!("FAIR_SOURCE_FINGERPRINT");

/// The directory this build persists tiles to under `root`: its
/// [`SOURCE_FINGERPRINT`] subdirectory, so every build from one source
/// tree shares a log and any source change starts cold.
pub fn tile_dir(root: &Path) -> PathBuf {
    root.join(SOURCE_FINGERPRINT)
}

/// [`crate::run_experiment`] with the adaptive stopper armed: every
/// `estimate()` inside the experiment stops once its 95% half-width
/// reaches `epsilon`, sending a frame per tile batch to `progress` when
/// given. Returns the report and the trials-used vs trials-requested
/// accounting.
pub(crate) fn run_adaptive(
    id: &str,
    trials: usize,
    seed: u64,
    epsilon: f64,
    progress: Option<Sender<ProgressUpdate>>,
) -> (Option<ReportRecord>, AdaptiveSummary) {
    fair_core::progressive::scoped(epsilon, progress, || {
        crate::run_experiment(id, trials, seed)
    })
}

/// Runs one experiment with metrics collection enabled — both simlab's
/// wall-clock latency pipeline and `fair-trace`'s deterministic
/// per-protocol counters — returning the structured execution record,
/// report included. `None` for an unknown id.
///
/// Recording costs about as much as the plain path: every trial runs
/// through a stats-only `RecordingTracer`, whose byte counts are
/// `fair_trace::WireLen` sizes (arithmetic over field lengths).
pub fn run_recorded(id: &str, trials: usize, seed: u64) -> Option<ExpRecord> {
    run_recorded_with(id, trials, seed, None)
}

/// [`run_recorded`] with an optional adaptive precision target. When
/// `epsilon` is set, every `estimate()` call inside the experiment stops
/// once its 95% half-width reaches it, and the record carries the
/// trials-used vs trials-requested accounting in its `adaptive` block.
pub fn run_recorded_with(
    id: &str,
    trials: usize,
    seed: u64,
    epsilon: Option<f64>,
) -> Option<ExpRecord> {
    metrics::start(id);
    fair_trace::metrics::set_enabled(true);
    let t0 = Instant::now();
    let (report, adaptive) = match epsilon {
        None => (crate::run_experiment(id, trials, seed), None),
        Some(eps) => {
            let (report, adaptive) = run_adaptive(id, trials, seed, eps, None);
            (report, Some(adaptive))
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let latency = metrics::drain_latency();
    let protocols = fair_trace::metrics::drain();
    metrics::stop();
    fair_trace::metrics::set_enabled(false);
    Some(ExpRecord {
        id: id.to_string(),
        trials,
        seed,
        jobs: fair_simlab::effective_jobs(),
        wall_ms,
        latency,
        protocols,
        adaptive,
        report: report?,
    })
}

/// Options for a `reproduce` suite run, parsed from the CLI.
pub struct SuiteOptions {
    /// Experiment ids to run (in order).
    pub ids: Vec<String>,
    /// Trials per estimate.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Render tables as GitHub markdown instead of aligned text.
    pub markdown: bool,
    /// Where to write the aggregate record (`None` = don't).
    pub json: Option<PathBuf>,
    /// Capture per-experiment sample transcripts under
    /// `target/simlab/trace/<exp>/` (see `fair-trace replay`). Which
    /// trials are sampled depends on completion order, so with `--jobs`
    /// above 1 the sampled set may vary between runs; every captured
    /// transcript replays deterministically regardless.
    pub trace: bool,
    /// Adaptive precision target (`--epsilon`): when set, each estimate
    /// stops once its 95% half-width reaches it, and every record carries
    /// the trials-used vs trials-requested accounting.
    pub epsilon: Option<f64>,
}

/// Runs a suite of experiments, printing tables and progress, persisting
/// per-experiment records under [`RECORD_DIR`] and (optionally) the
/// aggregate record. Returns the suite record; `Err` carries an unknown
/// experiment id.
pub fn run_suite(opts: &SuiteOptions) -> Result<SuiteRecord, String> {
    let t0 = Instant::now();
    let total = opts.ids.len();
    let mut experiments = Vec::with_capacity(total);
    for (k, id) in opts.ids.iter().enumerate() {
        if opts.trace {
            fair_trace::capture::begin(
                fair_trace::capture::CaptureFilter::FirstN(SUITE_TRACE_SAMPLE),
                fair_trace::capture::DEFAULT_RING,
            );
        }
        let run = run_recorded_with(id, opts.trials, opts.seed, opts.epsilon);
        let captured = opts.trace.then(fair_trace::capture::end);
        let record = run.ok_or_else(|| format!("unknown experiment id: {id}"))?;
        if let Some(transcripts) = captured {
            let dir = Path::new(crate::tracecli::TRACE_DIR);
            match crate::tracecli::write_transcripts(dir, id, opts.trials, opts.seed, &transcripts)
            {
                Ok(paths) => eprintln!(
                    "[trace] {id}: {} transcript(s) under {}/{id}/",
                    paths.len(),
                    crate::tracecli::TRACE_DIR
                ),
                Err(e) => eprintln!("warning: could not persist {id} transcripts: {e}"),
            }
        }
        if opts.markdown {
            println!("{}", record.report.render_markdown());
        } else {
            println!("{}", record.report.render());
        }
        let lat = record
            .latency
            .map(|l| {
                format!(
                    ", per-trial latency min {} / p50 {} / p99 {} / max {}",
                    fmt_ns(l.min),
                    fmt_ns(l.p50),
                    fmt_ns(l.p99),
                    fmt_ns(l.max)
                )
            })
            .unwrap_or_default();
        if let Some(a) = record.adaptive {
            eprintln!(
                "[simlab] {id}: adaptive ε={} spent {} of {} trials ({} of {} estimates stopped early)",
                a.epsilon, a.trials_used, a.trials_requested, a.early_stops, a.estimates,
            );
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let done = k + 1;
        let eta = if done < total {
            format!(
                ", suite ETA {:.1}s",
                elapsed / done as f64 * (total - done) as f64
            )
        } else {
            String::new()
        };
        eprintln!(
            "[simlab] {id}: {:.1}ms wall clock ({}/{total} experiments, {elapsed:.1}s elapsed{eta}){lat}",
            record.wall_ms, done,
        );
        if let Err(e) = record.write(Path::new(RECORD_DIR)) {
            eprintln!("warning: could not persist {RECORD_DIR}/{id}.json: {e}");
        }
        experiments.push(record);
    }
    let suite = SuiteRecord {
        trials: opts.trials,
        jobs: fair_simlab::effective_jobs(),
        seed: opts.seed,
        total_wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
        pass: experiments.iter().all(|e| e.report.pass()),
        experiments,
    };
    if let Some(path) = &opts.json {
        match suite.write(path) {
            Ok(()) => eprintln!("[simlab] wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    // Persist whatever tiles the suite minted (no-op without a persistent
    // store installed), so the next run — or a serve instance sharing the
    // directory — starts warm.
    fair_tiles::cache::flush();
    Ok(suite)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    static RECORDING: Mutex<()> = Mutex::new(());

    /// Serializes tests that run recorded experiments: the metrics
    /// collectors are process-wide, so two concurrent runs would start,
    /// drain and stop each other's collection.
    pub(crate) fn recording_lock() -> MutexGuard<'static, ()> {
        RECORDING.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn a_tile_dir_written_under_one_fingerprint_is_not_read_under_another() {
        let root = std::env::temp_dir().join(format!("fair-bench-builds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let key = fair_tiles::TileKey {
            stream: "s".into(),
            stream_seed: 1,
            index: 0,
        };
        let tally = fair_tiles::TileTally {
            trials: 64,
            counts: [64, 0, 0, 0],
        };
        // Another build's log, then this build's view of the same root.
        let other = fair_tiles::Store::persistent(root.join("00000000000000aa"));
        other.put(key.clone(), tally);
        assert_eq!(other.flush().expect("flush"), 1);
        let ours = fair_tiles::Store::persistent(tile_dir(&root));
        assert_eq!(ours.load(), fair_tiles::LoadSummary::default());
        assert_eq!(ours.get(&key), None);
        assert_eq!(
            fair_tiles::Store::persistent(root.join("00000000000000aa"))
                .load()
                .loaded_records,
            1
        );

        assert_eq!(SOURCE_FINGERPRINT.len(), 16);
        assert!(SOURCE_FINGERPRINT.chars().all(|c| c.is_ascii_hexdigit()));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_id_is_none_and_disables_metrics() {
        let _serial = recording_lock();
        assert!(run_recorded("e99", 10, 1).is_none());
        assert!(!metrics::enabled());
    }

    #[test]
    fn recorded_run_captures_reports_and_latency() {
        let _serial = recording_lock();
        let record = run_recorded("e1", 20, 7).expect("e1 exists");
        assert_eq!(record.id, "e1");
        assert_eq!(record.trials, 20);
        assert_eq!(record.report.id, "E1");
        // estimate() fed the metrics pipeline, so latency must be present.
        let lat = record.latency.expect("latency collected");
        assert!(lat.count > 0);
        assert!(record.wall_ms > 0.0);
        // The estimator also fed the trace-metrics pipeline: one summary
        // per scenario, each accounting for every trial.
        assert!(!record.protocols.is_empty());
        for p in &record.protocols {
            assert_eq!(p.trials, 20, "{}", p.name);
            assert_eq!(p.rounds.count, 20, "{}", p.name);
            assert!(p.msgs.total > 0, "{}", p.name);
        }
        assert!(!fair_trace::metrics::enabled());
    }

    #[test]
    fn recorded_run_returns_without_waiting_for_a_progress_tick() {
        let _serial = recording_lock();
        let t0 = Instant::now();
        let record = run_recorded("e2", 16, 1).expect("e2 exists");
        let spent_ms = t0.elapsed().as_secs_f64() * 1000.0;
        assert!(
            spent_ms < record.wall_ms + 500.0,
            "run_recorded took {spent_ms:.0} ms for {:.0} ms of experiment",
            record.wall_ms
        );
    }
}
