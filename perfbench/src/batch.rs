//! The batch workloads: `reproduce`'s `run_suite` path over fixed id sets.
//!
//! A pass runs every id of the workload once, one `run_suite` call per id
//! (what `reproduce <id>` does), in an order drawn from the run seed.
//! Experiments always run at the pinned base seed, so every document of
//! every pass is checked against `pins.txt`. Passes repeat until the run's
//! time is spent; the reported times are medians over passes.
//!
//! Two times are taken per experiment: the time as experienced, which
//! includes the runner's progress join and so is rounded up to a multiple
//! of 2 s, and the wall clock the runner reports itself
//! (`ExpRecord::wall_ms`, what `reproduce` prints as "wall clock"). Both
//! are reported; `bounded_as_experienced` says which one a workload's
//! bounded metrics use.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use fair_bench::runner::{run_suite, SuiteOptions, BASE_SEED};

use crate::pins::Pins;
use crate::report::{self, median, Outcome};
use crate::Args;

/// Experiments of `registry_sweep`: every registry id except e1 and e16
/// (in `reproduce_heavy`), e5 and e8 (minutes per run at one tile), e7,
/// e9, e10 (seconds of Π^Opt_nSFE compute each, which would hide the fixed
/// per-experiment costs this workload is about), and e12, whose compute
/// (1.5–1.9 s on the reference host, nearly all of it independent of the
/// trial count) sits just under one 2 s progress tick, so its experienced
/// time flips between one tick and two from run to run.
pub const SWEEP_IDS: [&str; 12] = [
    "e2",
    "e3",
    "e4",
    "e6",
    "e11",
    "e13",
    "e14",
    "e15",
    "e17",
    "s_abort_heatmap",
    "s_deposit_coin",
    "s_gk_curve",
];

/// Trials per estimate in `registry_sweep`: a quarter tile, so one tile per
/// estimate and every experiment's compute (under 0.5 s on the reference
/// host) well under one 2 s progress tick even in slow phases.
pub const SWEEP_TRIALS: usize = 16;

/// Trials per estimate for e16 in `reproduce_heavy`: one GMW-1/2 trial
/// costs ~17 ms with recording on, and e16 has 40 scenarios.
pub const E16_TRIALS: usize = 4;

/// Largest worker count the pinned e1 trial counts cover.
pub const MAX_E1_TILES: usize = 4;

/// Trials per estimate for e1: one 64-trial tile per worker, so every e1
/// estimate keeps every worker busy.
pub fn e1_trials(jobs: usize) -> usize {
    fair_simlab::TILE * jobs.clamp(1, MAX_E1_TILES)
}

/// The `(id, trials)` list a batch workload runs per pass.
pub fn plan(workload: &str, jobs: usize) -> Vec<(String, usize)> {
    match workload {
        "reproduce_heavy" => vec![
            ("e1".to_string(), e1_trials(jobs)),
            ("e16".to_string(), E16_TRIALS),
        ],
        _ => SWEEP_IDS
            .iter()
            .map(|id| (id.to_string(), SWEEP_TRIALS))
            .collect(),
    }
}

/// Registry set-up as `reproduce` pays it: compile `scenarios/*.toml` and
/// build the experiment listing. Returns the number of registry ids.
pub fn setup_registry(repo: &Path) -> Result<usize, String> {
    let load = fair_scenario::load_dir(&repo.join("scenarios"));
    let listing = fair_bench::experiment_listing();
    if load.specs.is_empty()
        || listing.len() != fair_bench::ALL_EXPERIMENTS.len() + load.specs.len()
    {
        return Err(format!(
            "registry set-up found {} scenario specs and {} ids",
            load.specs.len(),
            listing.len()
        ));
    }
    Ok(listing.len())
}

/// Set-up repetitions per run; the median is reported.
pub const SETUP_REPS: usize = 31;

/// Set-up as a user of the batch CLI pays it: a fresh process from spawn
/// until its registry is ready (`perfbench --setup-probe` reports ready
/// on stdout). Measured `SETUP_REPS` times; every sample is returned.
pub fn setup_samples(repo: &Path) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut child = Command::new(&exe)
                .args(["--setup-probe", "--repo"])
                .arg(repo)
                .current_dir(repo)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn set-up probe: {e}"))?;
            let mut line = String::new();
            let stdout = child.stdout.take().ok_or("no probe stdout")?;
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            let secs = t0.elapsed().as_secs_f64();
            let status = child.wait().map_err(|e| e.to_string())?;
            if !status.success() || !line.starts_with("ready") {
                return Err(format!("set-up probe failed: {status} {line:?}"));
            }
            Ok(secs)
        })
        .collect()
}

/// Shuffles `items` with a seed-derived Fisher–Yates.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (report::mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Which time a batch workload's bounded metrics use. `registry_sweep` is
/// about the runner's fixed costs, which its own wall clock leaves out;
/// every experiment there computes for well under 2 s, so the time as
/// experienced is a steady multiple of the 2 s progress tick.
/// `reproduce_heavy` is about compute, and its experiments compute for a
/// few seconds, close to multiples of 2 s, where the experienced time
/// flips between two ticks from run to run; it uses the runner's wall
/// clock.
fn bounded_as_experienced(workload: &str) -> bool {
    workload == "registry_sweep"
}

/// One experiment document from the runner: the time the user waits for
/// it (`secs`, including the runner's 2 s progress-join quantisation), the
/// wall clock the runner itself reports for the experiment
/// (`record_secs`), protocol executions, and canonical bytes.
pub struct Doc {
    pub secs: f64,
    pub record_secs: f64,
    pub executions: u64,
    pub body: String,
}

/// Runs one id through `run_suite` at the base seed.
pub fn run_doc(id: &str, trials: usize) -> Result<Doc, String> {
    let opts = SuiteOptions {
        ids: vec![id.to_string()],
        trials,
        seed: BASE_SEED,
        markdown: false,
        json: None,
        trace: false,
        epsilon: None,
    };
    let t0 = Instant::now();
    let suite = run_suite(&opts)?;
    let secs = t0.elapsed().as_secs_f64();
    let record = suite
        .experiments
        .first()
        .ok_or_else(|| format!("run_suite returned no record for {id}"))?;
    Ok(Doc {
        secs,
        record_secs: record.wall_ms / 1000.0,
        executions: record.protocols.iter().map(|p| p.trials).sum(),
        body: record.result_json().render_pretty() + "\n",
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let jobs = crate::nproc();
    let setup = setup_samples(&args.repo)?;
    fair_simlab::set_jobs(jobs);
    let pins = Pins::load(&args.pins)?;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    let mut items = plan(&args.workload, jobs);
    shuffle(&mut items, args.seed);
    let t_run = Instant::now();
    let mut pass_secs: Vec<f64> = Vec::new();
    let mut pass_wall: Vec<f64> = Vec::new();
    let mut pass_execs: Vec<u64> = Vec::new();
    let mut doc_secs: Vec<f64> = Vec::new();
    let mut doc_wall: Vec<f64> = Vec::new();
    let mut doc_lines: Vec<String> = Vec::new();
    loop {
        let t_pass = Instant::now();
        let mut execs = 0u64;
        let mut wall = 0.0;
        for (id, trials) in &items {
            let doc = run_doc(id, *trials)?;
            out.attempted += 1;
            if let Err(e) = pins.check(id, *trials, BASE_SEED, doc.body.as_bytes()) {
                out.fail(e);
            }
            execs += doc.executions;
            wall += doc.record_secs;
            doc_secs.push(doc.secs);
            doc_wall.push(doc.record_secs);
            doc_lines.push(format!(
                "{id}@{trials} {:.0}/{:.0}",
                doc.secs * 1000.0,
                doc.record_secs * 1000.0
            ));
        }
        pass_secs.push(t_pass.elapsed().as_secs_f64());
        pass_wall.push(wall);
        pass_execs.push(execs);
        let longest = pass_secs.iter().copied().fold(0.0, f64::max);
        if t_run.elapsed() + Duration::from_secs_f64(longest) > args.seconds {
            break;
        }
    }
    if pass_execs.iter().any(|e| *e != pass_execs[0]) || pass_execs[0] == 0 {
        out.fail(format!(
            "protocol executions differ between passes: {pass_execs:?}"
        ));
    }
    let execs = pass_execs[0] as f64;
    let passes = pass_secs.len();
    let (felt_tail, felt_label) = report::tail(&doc_secs);
    let (wall, docs, basis) = if bounded_as_experienced(&args.workload) {
        (
            median(&pass_secs),
            &doc_secs,
            "as experienced, progress join included",
        )
    } else {
        (median(&pass_wall), &doc_wall, "the runner's own wall clock")
    };
    let (tail, tail_label) = report::tail(docs);
    out.line(format!(
        "workload {} seed {} jobs {jobs} passes {passes}: {}",
        args.workload,
        args.seed,
        items
            .iter()
            .map(|(id, t)| format!("{id}@{t}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.line(format!(
        "{} protocol executions per pass (identical across passes)",
        pass_execs[0]
    ));
    out.line(format!(
        "as experienced, progress join included: pass {:.3} s (median of {passes}); \
         per document p50 {:.1} ms, {felt_label} {:.1} ms (n={})",
        median(&pass_secs),
        median(&doc_secs) * 1000.0,
        felt_tail * 1000.0,
        doc_secs.len()
    ));
    out.line(format!(
        "runner wall clock: pass {:.3} s (median of {passes}); per document p50 {:.1} ms (n={})",
        median(&pass_wall),
        median(&doc_wall) * 1000.0,
        doc_wall.len()
    ));
    out.line(format!(
        "per document, ms as experienced/runner wall clock: {}",
        doc_lines.join(" ")
    ));
    out.line(format!("bounded times below: {basis}"));
    out.metric(
        "setup_s",
        median(&setup),
        "s",
        setup.len(),
        "median fresh process: spawn -> registry ready",
    );
    out.metric(
        "wall_s",
        wall,
        "s",
        passes,
        &format!("median pass wall, {basis}"),
    );
    out.metric(
        "trials_per_s",
        execs / wall,
        "1/s",
        passes,
        "protocol executions per pass / wall_s",
    );
    out.metric(
        "peak_rss_mb",
        report::peak_rss_mb("self").ok_or("no /proc/self/status")?,
        "MB",
        1,
        "peak RSS of the batch process",
    );
    out.metric(
        "p50_ms",
        median(docs) * 1000.0,
        "ms",
        docs.len(),
        &format!("median time per experiment document, {basis}"),
    );
    out.line(format!(
        "tail_ms (not bounded) {} ms: {tail_label} time per experiment document, {basis}, n={}",
        tail * 1000.0,
        docs.len()
    ));
    Ok(out)
}
