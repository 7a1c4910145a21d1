//! The implementation behind the `fair-trace` binary: record, replay,
//! diff, and rank per-trial engine transcripts for any experiment in the
//! registry (plus two cheap named protocol sweeps).
//!
//! A recorded trace file is self-describing — its header names the target,
//! trial count, base seed, and ring capacity — so `replay` re-executes
//! exactly the one trial it needs: it arms `fair_trace::capture` with the
//! recorded trial seed (seed selection is a pure function of the trial
//! index, hence jobs-independent), re-runs the target, and byte-compares
//! the fresh rendering against the file. An empty diff certifies that the
//! engine, protocols, and strategies reproduce the recorded execution
//! event for event.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fair_core::{best_of, Payoff};
use fair_protocols::gordon_katz::{GkConfig, ValueSampler};
use fair_protocols::opt2::TwoPartyFn;
use fair_protocols::scenarios::{coin_toss_sweep, gk_sweep};
use fair_runtime::Value;
use fair_simlab::json::Json;
use fair_trace::capture::{self, CaptureFilter, DEFAULT_RING};
use fair_trace::{diff_text, Diff, ExecStats, Transcript};
use rand::rngs::StdRng;
use rand::RngExt;

/// Where trace files are persisted, relative to the working directory.
pub const TRACE_DIR: &str = "target/simlab/trace";

/// First line of every trace file.
pub const TRACE_MAGIC: &str = "fair-trace v1";

/// Named protocol targets beyond the experiment registry, as
/// `(id, description)` — cheap sweeps for record/replay selfchecks.
pub const PROTOCOL_TARGETS: [(&str, &str); 2] = [
    (
        "exp_coin_toss",
        "Blum coin-toss strategy sweep (cheapest record/replay target)",
    ),
    (
        "exp_gordon_katz",
        "small Gordon-Katz AND sweep (p = 2, abort rules)",
    ),
];

/// Whether `id` names a runnable trace target.
pub fn is_target(id: &str) -> bool {
    crate::lookup(id).is_some() || PROTOCOL_TARGETS.iter().any(|(t, _)| *t == id)
}

/// Runs a target for its side effects on the armed trace collectors,
/// discarding reports/estimates. `false` for an unknown target.
pub fn run_target(id: &str, trials: usize, seed: u64) -> bool {
    match id {
        "exp_coin_toss" => {
            let _ = best_of(&coin_toss_sweep(), &Payoff::standard(), trials, seed);
            true
        }
        "exp_gordon_katz" => {
            let bit: ValueSampler =
                Arc::new(|rng: &mut StdRng| Value::Scalar(rng.random_range(0..2)));
            let and_fn: TwoPartyFn = Arc::new(|a: &Value, b: &Value| {
                Value::Scalar((a.as_scalar().unwrap_or(0) & 1) & (b.as_scalar().unwrap_or(0) & 1))
            });
            let cfg = GkConfig::poly_domain(and_fn, 2, 2, Arc::clone(&bit), bit);
            let _ = best_of(&gk_sweep(&cfg, &[1, 2]), &Payoff::gk(), trials, seed);
            true
        }
        _ => crate::run_experiment(id, trials, seed).is_some(),
    }
}

/// A parsed trace file: the self-describing header plus the transcript
/// body `replay` compares against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceFile {
    /// The recorded target id.
    pub target: String,
    /// Trials the recording run used (replay must match it so the trial
    /// seed is generated again).
    pub trials: usize,
    /// Base seed of the recording run.
    pub base_seed: u64,
    /// Ring capacity of the recording tracer.
    pub ring: usize,
    /// The recorded trial seed (from the body's `seed` line).
    pub seed: u64,
    /// The transcript rendering (everything after the header).
    pub body: String,
}

fn parse_hex(s: &str) -> Result<u64, String> {
    let digits = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad hex value {s:?}: {e}"))
}

/// Parses a trace file's text.
pub fn parse_trace_file(text: &str) -> Result<TraceFile, String> {
    let (header, body) = text
        .split_once("\n\n")
        .ok_or_else(|| "missing header/body separator (blank line)".to_string())?;
    let mut lines = header.lines();
    if lines.next() != Some(TRACE_MAGIC) {
        return Err(format!("not a trace file (expected {TRACE_MAGIC:?} first)"));
    }
    let (mut target, mut trials, mut base_seed, mut ring) = (None, None, None, None);
    for line in lines {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed header line {line:?}"))?;
        match key {
            "target" => target = Some(value.to_string()),
            "trials" => {
                trials = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("bad trials {value:?}: {e}"))?,
                )
            }
            "base-seed" => base_seed = Some(parse_hex(value)?),
            "ring" => {
                ring = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("bad ring {value:?}: {e}"))?,
                )
            }
            _ => return Err(format!("unknown header key {key:?}")),
        }
    }
    let seed_line = body
        .lines()
        .next()
        .ok_or_else(|| "empty transcript body".to_string())?;
    let seed = seed_line
        .strip_prefix("seed ")
        .ok_or_else(|| format!("body must start with a seed line, got {seed_line:?}"))
        .and_then(parse_hex)?;
    Ok(TraceFile {
        target: target.ok_or("header missing target")?,
        trials: trials.ok_or("header missing trials")?,
        base_seed: base_seed.ok_or("header missing base-seed")?,
        ring: ring.ok_or("header missing ring")?,
        seed,
        body: body.to_string(),
    })
}

fn render_trace_file(
    target: &str,
    trials: usize,
    base_seed: u64,
    ring: usize,
    t: &Transcript,
) -> String {
    format!(
        "{TRACE_MAGIC}\ntarget {target}\ntrials {trials}\nbase-seed 0x{base_seed:016x}\nring {ring}\n\n{}",
        t.render()
    )
}

/// Writes one `.trace` file per transcript under `dir/<target>/`, named by
/// trial seed. Returns the paths in seed order.
pub fn write_transcripts(
    dir: &Path,
    target: &str,
    trials: usize,
    base_seed: u64,
    transcripts: &[Transcript],
) -> std::io::Result<Vec<PathBuf>> {
    let sub = dir.join(target);
    std::fs::create_dir_all(&sub)?;
    let ring = capture::ring_capacity();
    let mut paths = Vec::with_capacity(transcripts.len());
    for t in transcripts {
        let path = sub.join(format!("{:016x}.trace", t.seed));
        std::fs::write(&path, render_trace_file(target, trials, base_seed, ring, t))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Records `sample` transcripts of a target's first trials into
/// `dir/<target>/`, forcing single-job scheduling so "first" is
/// deterministic. Returns the written paths.
pub fn record(
    target: &str,
    trials: usize,
    sample: usize,
    base_seed: u64,
    dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    if !is_target(target) {
        return Err(format!("unknown target {target:?} (see `fair-trace list`)"));
    }
    capture::begin(CaptureFilter::FirstN(sample), DEFAULT_RING);
    fair_simlab::with_jobs(1, || run_target(target, trials, base_seed));
    let transcripts = capture::end();
    write_transcripts(dir, target, trials, base_seed, &transcripts)
        .map_err(|e| format!("could not write transcripts: {e}"))
}

/// Replays one trace file under the ambient job count: re-runs its
/// `(target, seed)` pair through the engine with a fresh recording tracer
/// and byte-compares the renderings. `Ok(None)` means identical.
pub fn replay_file(path: &Path) -> Result<Option<Diff>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let tf = parse_trace_file(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if !is_target(&tf.target) {
        return Err(format!(
            "{}: unknown target {:?}",
            path.display(),
            tf.target
        ));
    }
    capture::begin(CaptureFilter::Seeds(BTreeSet::from([tf.seed])), tf.ring);
    run_target(&tf.target, tf.trials, tf.base_seed);
    let got = capture::end();
    let replayed = got.into_iter().next().ok_or_else(|| {
        format!(
            "{}: replay never reached trial seed 0x{:016x} (recorded with different trials?)",
            path.display(),
            tf.seed
        )
    })?;
    Ok(diff_text(&tf.body, &replayed.render()))
}

/// All `.trace` files under `dir` (optionally restricted to one target's
/// subdirectory), sorted by path for deterministic iteration order.
pub fn trace_files(dir: &Path, target: Option<&str>) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let roots: Vec<PathBuf> = match target {
        Some(t) => vec![dir.join(t)],
        None => {
            let mut subs: Vec<PathBuf> = std::fs::read_dir(dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            subs.sort();
            subs
        }
    };
    for root in roots {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&root)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "trace"))
            .collect();
        files.sort();
        out.extend(files);
    }
    Ok(out)
}

/// Per-trial statistics ranked for `fair-trace top`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopEntry {
    /// The trial seed (usable with a recorded trace of the same target).
    pub seed: u64,
    /// The trial's execution counters.
    pub stats: ExecStats,
}

/// The sort key for `top`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopBy {
    /// Rank by rounds executed.
    Rounds,
    /// Rank by messages sent.
    Msgs,
    /// Rank by message bytes.
    Bytes,
}

impl TopBy {
    /// Parses a `--by` value.
    pub fn parse(s: &str) -> Option<TopBy> {
        match s {
            "rounds" => Some(TopBy::Rounds),
            "msgs" => Some(TopBy::Msgs),
            "bytes" => Some(TopBy::Bytes),
            _ => None,
        }
    }

    fn key(self, s: &ExecStats) -> u64 {
        match self {
            TopBy::Rounds => s.rounds,
            TopBy::Msgs => s.msgs,
            TopBy::Bytes => s.bytes,
        }
    }
}

/// Runs a target with stats-only capture on *every* trial and returns the
/// `sample` heaviest by the chosen dimension (ties broken by seed, so the
/// ranking is deterministic under any job count).
pub fn top(
    target: &str,
    trials: usize,
    sample: usize,
    by: TopBy,
    seed: u64,
) -> Result<Vec<TopEntry>, String> {
    if !is_target(target) {
        return Err(format!("unknown target {target:?} (see `fair-trace list`)"));
    }
    // Ring capacity 0: stats only, no event retention — capturing every
    // trial stays cheap.
    capture::begin(CaptureFilter::FirstN(usize::MAX), 0);
    run_target(target, trials, seed);
    let mut entries: Vec<TopEntry> = capture::end()
        .into_iter()
        .map(|t| TopEntry {
            seed: t.seed,
            stats: t.stats,
        })
        .collect();
    entries.sort_by_key(|e| (core::cmp::Reverse(by.key(&e.stats)), e.seed));
    entries.truncate(sample);
    Ok(entries)
}

/// The JSON form of a parsed trace file (for `show --json`).
pub fn trace_file_json(tf: &TraceFile) -> Json {
    Json::obj()
        .field("target", Json::str(&tf.target))
        .field("trials", Json::num(tf.trials as f64))
        .field("base_seed", Json::str(format!("0x{:016x}", tf.base_seed)))
        .field("ring", Json::num(tf.ring as f64))
        .field("seed", Json::str(format!("0x{:016x}", tf.seed)))
        .field(
            "events",
            Json::Arr(tf.body.lines().map(Json::str).collect()),
        )
}

/// The JSON form of a `top` ranking.
pub fn top_json(target: &str, by: TopBy, entries: &[TopEntry]) -> Json {
    let by = match by {
        TopBy::Rounds => "rounds",
        TopBy::Msgs => "msgs",
        TopBy::Bytes => "bytes",
    };
    Json::obj()
        .field("target", Json::str(target))
        .field("by", Json::str(by))
        .field(
            "trials",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj()
                            .field("seed", Json::str(format!("0x{:016x}", e.seed)))
                            .field("rounds", Json::num(e.stats.rounds as f64))
                            .field("msgs", Json::num(e.stats.msgs as f64))
                            .field("bytes", Json::num(e.stats.bytes as f64))
                            .field("corruptions", Json::num(e.stats.corruptions as f64))
                            .field("bots", Json::num(e.stats.bots as f64))
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_experiment_is_a_target() {
        for (id, _) in crate::experiment_listing() {
            assert!(is_target(&id), "{id}");
        }
        for (id, _) in PROTOCOL_TARGETS {
            assert!(is_target(id), "{id}");
        }
        assert!(!is_target("e99"));
        assert!(!run_target("e99", 1, 1));
    }

    #[test]
    fn trace_file_round_trips_through_parse() {
        let t = Transcript {
            seed: 0xabc,
            stats: ExecStats::default(),
            dropped: 0,
            events: vec![fair_trace::TraceEvent::End { rounds: 1 }],
        };
        let text = render_trace_file("exp_coin_toss", 50, 0xfa1e, 4096, &t);
        let tf = parse_trace_file(&text).expect("parses");
        assert_eq!(tf.target, "exp_coin_toss");
        assert_eq!(tf.trials, 50);
        assert_eq!(tf.base_seed, 0xfa1e);
        assert_eq!(tf.ring, 4096);
        assert_eq!(tf.seed, 0xabc);
        assert_eq!(tf.body, t.render());
        // Corrupted inputs are typed errors, not panics.
        assert!(parse_trace_file("nonsense").is_err());
        assert!(parse_trace_file("fair-trace v1\ntrials 5\n\nseed 0x1\n").is_err());
    }

    #[test]
    fn top_by_parses_exactly_the_three_dimensions() {
        assert_eq!(TopBy::parse("rounds"), Some(TopBy::Rounds));
        assert_eq!(TopBy::parse("msgs"), Some(TopBy::Msgs));
        assert_eq!(TopBy::parse("bytes"), Some(TopBy::Bytes));
        assert_eq!(TopBy::parse("latency"), None);
    }
}
