//! Monte-Carlo estimation of the attacker's utility u_A(Π, A).
//!
//! The paper defines u_A(Π, A) as the expected payoff of the best simulator
//! for A in the F^⊥_sfe-ideal world under the least favorable environment
//! (Eq. 2). Our concrete analogue: a [`Scenario`] bundles a protocol, an
//! input environment and an attack strategy; [`estimate`] executes it many
//! times with seeded randomness, classifies each execution into its
//! fairness event with the protocol's canonical simulator decision function
//! (see [`crate::event`]), and averages the payoffs. The estimate comes
//! with a 95% confidence half-width so experiment assertions can be made
//! statistically honest.
//!
//! Trials are sharded across workers by `fair-simlab`'s deterministic
//! scheduler: each trial's seed is [`fair_simlab::trial_seed`]`(seed, t)`
//! — a pure function of the trial index — and shards produce integer
//! [`Tally`]s merged in schedule-independent order, so the estimate is
//! **bit-identical for every worker count** (including the sequential
//! `jobs = 1` path, which runs the same tiling code). Several estimates
//! share one fan-out: [`estimate_batch`] hands the tiles of all its jobs
//! to the scheduler as one flat `(job, tile)` list, and [`estimate`] and
//! [`best_of`] are batches of one scenario and of one strategy library.
//! Each individual protocol execution stays single-threaded, preserving
//! reproducible adversary scheduling.

use fair_runtime::{execute, execute_traced, Adversary, ExecutionResult, Instance, Value, WireLen};
use fair_trace::{ExecStats, ProtoBatch, RecordingTracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{classify, truth_from_ledger, Event, HonestCriterion};
use crate::payoff::Payoff;
use crate::stats;

/// One prepared execution: instance, attack strategy, ground truth.
pub struct Trial<M> {
    /// The protocol instance (parties with inputs baked in, hybrids).
    pub instance: Instance<M>,
    /// The attack strategy.
    pub adversary: Box<dyn Adversary<M>>,
    /// Ground-truth output for event classification. `None` means "read
    /// the ledger fact `y` after execution" (hybrid-protocol case).
    pub truth: Option<Value>,
    /// Round budget (0 = engine default).
    pub max_rounds: usize,
}

/// A repeatable experiment: protocol × environment × attack strategy.
pub trait Scenario {
    /// The protocol's wire message type.
    type Msg: Clone + core::fmt::Debug + WireLen;

    /// Short name for reports, and the scenario's identity in the tile
    /// store: equal names must build equal trials from equal seeds, so a
    /// name carries every parameter that can change a trial.
    fn name(&self) -> String;

    /// Builds a fresh trial (drawing inputs and strategy randomness).
    fn build(&self, rng: &mut StdRng) -> Trial<Self::Msg>;

    /// Number of parties.
    fn n(&self) -> usize;

    /// The honest-output criterion for classification.
    fn criterion(&self) -> HonestCriterion {
        HonestCriterion::NonBot
    }
}

/// A partial event tally from a shard of trials — the mergeable unit the
/// parallel scheduler produces per tile.
///
/// The payoff of a trial is a function of its fairness event alone, so the
/// whole estimate (mean, variance, confidence interval) is derivable from
/// these four integers; integer merges commute exactly, which is what makes
/// parallel estimates bit-identical to sequential ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Event occurrence counts, in [`Event::ALL`] order.
    pub event_counts: [usize; 4],
}

impl Tally {
    /// Records one classified trial.
    pub fn record(&mut self, event: Event) {
        let idx = Event::ALL
            .iter()
            .position(|x| *x == event)
            .expect("event in ALL");
        self.event_counts[idx] += 1;
    }

    /// Merges another shard's counts into this one (commutative, exact).
    pub fn merge(mut self, other: Tally) -> Tally {
        for (a, b) in self.event_counts.iter_mut().zip(other.event_counts) {
            *a += b;
        }
        self
    }

    /// Total trials tallied.
    pub fn trials(&self) -> usize {
        self.event_counts.iter().sum()
    }

    /// Finalizes the tally into a [`UtilityEstimate`] under a payoff
    /// vector, with a 95% normal-approximation interval from
    /// [`crate::stats`].
    pub fn into_estimate(self, name: String, payoff: &Payoff) -> UtilityEstimate {
        let trials = self.trials();
        assert!(trials > 0, "cannot finalize an empty tally");
        let n = trials as f64;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for (idx, &count) in self.event_counts.iter().enumerate() {
            let pay = payoff.value(Event::ALL[idx]);
            sum += count as f64 * pay;
            sum_sq += count as f64 * pay * pay;
        }
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        let ci = stats::mean_interval(mean, var, trials, stats::Z_95).half_width();
        UtilityEstimate {
            name,
            mean,
            ci,
            trials,
            event_counts: self.event_counts,
        }
    }
}

/// A Monte-Carlo utility estimate.
#[derive(Clone, Debug)]
pub struct UtilityEstimate {
    /// Scenario name.
    pub name: String,
    /// Mean payoff (the utility estimate).
    pub mean: f64,
    /// 95% confidence half-width (normal approximation).
    pub ci: f64,
    /// Trials executed.
    pub trials: usize,
    /// Event frequencies, in [`Event::ALL`] order.
    pub event_counts: [usize; 4],
}

impl UtilityEstimate {
    /// Empirical probability of an event.
    pub fn event_rate(&self, e: Event) -> f64 {
        let idx = Event::ALL
            .iter()
            .position(|x| *x == e)
            .expect("event in ALL");
        self.event_counts[idx] as f64 / self.trials as f64
    }

    /// Whether the estimate is consistent with `target` (within the CI plus
    /// an absolute tolerance).
    pub fn consistent_with(&self, target: f64, tol: f64) -> bool {
        (self.mean - target).abs() <= self.ci + tol
    }
}

impl core::fmt::Display for UtilityEstimate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: u = {:.4} ± {:.4} ({} trials; E00/E01/E10/E11 = {}/{}/{}/{})",
            self.name,
            self.mean,
            self.ci,
            self.trials,
            self.event_counts[0],
            self.event_counts[1],
            self.event_counts[2],
            self.event_counts[3]
        )
    }
}

/// Runs one trial of a scenario and returns the raw execution result, the
/// classified event and its payoff. When trace metrics or transcript
/// capture are armed (see `fair_trace::{metrics, capture}`) the trial runs
/// through a recording tracer and returns its [`ExecStats`]; otherwise it
/// takes the plain [`execute`] path, whose only extra cost is one relaxed
/// atomic load per trial. A stats-only recording costs about as much as
/// the plain path: message sizes come from [`WireLen`], which neither
/// allocates nor formats.
pub fn run_once_traced<S: Scenario>(
    scenario: &S,
    payoff: &Payoff,
    seed: u64,
) -> (ExecutionResult, Event, f64, Option<ExecStats>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trial = scenario.build(&mut rng);
    let capture = fair_trace::capture::active() && fair_trace::capture::wants(seed);
    let (res, stats) = if fair_trace::metrics::enabled() || capture {
        let ring = if capture {
            fair_trace::capture::ring_capacity()
        } else {
            0
        };
        let mut tracer = RecordingTracer::with_ring(ring);
        let res = execute_traced(
            trial.instance,
            trial.adversary.as_mut(),
            &mut rng,
            trial.max_rounds,
            &mut tracer,
        )
        .expect("scenario builds a well-formed instance");
        let stats = tracer.stats();
        if capture {
            fair_trace::capture::submit(tracer.into_transcript(seed));
        }
        (res, Some(stats))
    } else {
        let res = execute(
            trial.instance,
            trial.adversary.as_mut(),
            &mut rng,
            trial.max_rounds,
        )
        .expect("scenario builds a well-formed instance");
        (res, None)
    };
    let truth = trial.truth.unwrap_or_else(|| truth_from_ledger(&res));
    let event = classify(&res, scenario.n(), &truth, &scenario.criterion());
    let pay = payoff.value(event);
    (res, event, pay, stats)
}

/// Tiles per adaptive batch: the stopper re-checks the confidence interval
/// every `4 × TILE = 256` trials.
const ADAPTIVE_CHUNK_TILES: usize = 4;

/// Floor below which the adaptive stopper may not trigger — the normal
/// approximation behind the interval is meaningless on a handful of trials.
const ADAPTIVE_MIN_TRIALS: usize = 2 * fair_simlab::TILE;

/// One estimate of a batch: a scenario, its name (the tile-store stream
/// and metrics key) and its base seed.
struct Job<'a, S> {
    scenario: &'a S,
    name: String,
    seed: u64,
}

/// Estimates the attacker's utility for a scenario by Monte Carlo: a batch
/// of one for [`estimate_batch`], which documents the tiling, the tile
/// store and the adaptive stopper. The result is bit-identical for every
/// `--jobs` value (see the module docs).
pub fn estimate<S: Scenario + Sync>(
    scenario: &S,
    payoff: &Payoff,
    trials: usize,
    seed: u64,
) -> UtilityEstimate {
    estimate_batch(&[(scenario, seed)], payoff, trials)
        .pop()
        .expect("one estimate per job")
}

/// Estimates every `(scenario, seed)` job at `trials` trials each and
/// returns the estimates in job order. Each one is bit-identical to
/// [`estimate`] of its job on its own, for every `--jobs` value: the
/// tiles of all jobs are one flat `(job, tile)` work list for the
/// `fair-simlab` scheduler, so a batch of one-tile estimates still keeps
/// every worker busy, and each job's tiles are merged in tile order.
///
/// Two ambient contexts refine the execution without changing the result
/// for a full-budget run:
///
/// - when a tile store is installed ([`fair_tiles::cache`]), full 64-trial
///   tiles are looked up by `(scenario name, seed, tile index)` before
///   computing and recorded after, on the calling thread, so repeat
///   estimations only pay for tiles they have never seen; merged results
///   stay byte-identical to a fresh run because the cache stores the same
///   integer tallies the fresh run would fold;
/// - when a progressive context is armed ([`crate::progressive::scoped`]),
///   each job runs on its own, in chunks of tiles, and stops early once
///   its 95% half-width reaches the armed epsilon, emitting a progress
///   frame per chunk.
pub fn estimate_batch<S: Scenario + Sync>(
    jobs: &[(&S, u64)],
    payoff: &Payoff,
    trials: usize,
) -> Vec<UtilityEstimate> {
    assert!(trials > 0, "need at least one trial");
    let jobs: Vec<Job<'_, S>> = jobs
        .iter()
        .map(|&(scenario, seed)| Job {
            scenario,
            name: scenario.name(),
            seed,
        })
        .collect();
    if let Some(epsilon) = crate::progressive::epsilon() {
        return jobs
            .iter()
            .map(|job| estimate_adaptive(job, payoff, trials, epsilon))
            .collect();
    }
    let total_tiles = trials.div_ceil(fair_simlab::TILE);
    tally_batch(&jobs, payoff, 0..total_tiles, trials)
        .into_iter()
        .zip(jobs)
        .map(|(tally, job)| tally.into_estimate(job.name, payoff))
        .collect()
}

/// The chunked, CI-bounded estimation path (armed via
/// [`crate::progressive`]). The stop rule is a pure function of the
/// integer tallies, so adaptive results are worker-count independent too.
fn estimate_adaptive<S: Scenario + Sync>(
    job: &Job<'_, S>,
    payoff: &Payoff,
    trials: usize,
    epsilon: f64,
) -> UtilityEstimate {
    let total_tiles = trials.div_ceil(fair_simlab::TILE);
    let mut tally = Tally::default();
    let mut next = 0usize;
    loop {
        let hi = (next + ADAPTIVE_CHUNK_TILES).min(total_tiles);
        let chunk = tally_batch(core::slice::from_ref(job), payoff, next..hi, trials);
        tally = tally.merge(chunk[0]);
        next = hi;
        let est = tally.into_estimate(job.name.clone(), payoff);
        let exhausted = next >= total_tiles;
        let converged = est.trials >= ADAPTIVE_MIN_TRIALS && est.ci <= epsilon;
        let done = exhausted || converged;
        crate::progressive::emit(fair_simlab::ProgressUpdate {
            scenario: job.name.clone(),
            requested: trials,
            trials: est.trials,
            mean: est.mean,
            ci: est.ci,
            done,
        });
        if done {
            crate::progressive::note(trials, est.trials, est.trials < trials);
            return est;
        }
    }
}

/// The one tile fan-out: tallies the tile span `tiles` of the fixed tiling
/// of `[0, total)` for every job and returns one merged tally per job.
/// Cached full tiles are resolved on the calling thread; the missing tiles
/// of all jobs go to the scheduler as one flat `(job, tile)` list, and
/// freshly computed full tiles are recorded back on the calling thread.
/// Partial tail tiles are never cached — their geometry depends on `total`.
fn tally_batch<S: Scenario + Sync>(
    jobs: &[Job<'_, S>],
    payoff: &Payoff,
    tiles: core::ops::Range<usize>,
    total: usize,
) -> Vec<Tally> {
    const TILE: usize = fair_simlab::TILE;
    let tile_range = |i: usize| i * TILE..((i + 1) * TILE).min(total);
    let full = |i: usize| (i + 1) * TILE <= total;
    // Transcript capture must observe every trial, so it bypasses the
    // cache entirely (and records nothing, keeping stored tallies pure).
    let cacheable = fair_tiles::cache::active() && !fair_trace::capture::active();
    // `(job, tile)` pairs in job-major order: slot `k` of `work` is job
    // `k / span`'s tile `tiles.start + k % span`.
    let span = tiles.len();
    let work: Vec<(&Job<'_, S>, usize)> = jobs
        .iter()
        .flat_map(|job| tiles.clone().map(move |i| (job, i)))
        .collect();
    let mut slots: Vec<Option<Tally>> = work
        .iter()
        .map(|&(job, i)| {
            (cacheable && full(i))
                .then(|| fair_tiles::cache::lookup(&job.name, job.seed, i as u32))
                .flatten()
                .and_then(tally_from_cached)
        })
        .collect();
    let missing: Vec<usize> = (0..work.len()).filter(|&k| slots[k].is_none()).collect();
    let computed = fair_simlab::run_indexed(missing.len(), |m| {
        let (job, i) = work[missing[m]];
        compute_tile(job.scenario, payoff, &job.name, job.seed, tile_range(i))
    });
    for (&k, tally) in missing.iter().zip(computed) {
        let (job, i) = work[k];
        if cacheable && full(i) {
            fair_tiles::cache::record(&job.name, job.seed, i as u32, tally_to_cached(&tally));
        }
        slots[k] = Some(tally);
    }
    slots
        .chunks(span)
        .map(|tiles| {
            tiles
                .iter()
                .flatten()
                .copied()
                .fold(Tally::default(), Tally::merge)
        })
        .collect()
}

/// Executes one tile of trials (the scheduler work unit).
fn compute_tile<S: Scenario + Sync>(
    scenario: &S,
    payoff: &Payoff,
    name: &str,
    seed: u64,
    range: core::ops::Range<usize>,
) -> Tally {
    let mut tally = Tally::default();
    // Per-tile protocol-metric batch, submitted once per tile (same
    // one-mutex-touch-per-tile discipline as the latency batches).
    let mut proto = fair_trace::metrics::enabled().then(ProtoBatch::default);
    // Per-trial latency observation goes through simlab's timing
    // facade: fair-core itself never reads the wall clock (rule D1).
    let mut timer = fair_simlab::BatchTimer::start(range.len());
    for t in range {
        let (_, event, _, stats) = timer
            .time(|| run_once_traced(scenario, payoff, fair_simlab::trial_seed(seed, t as u64)));
        tally.record(event);
        if let (Some(batch), Some(stats)) = (proto.as_mut(), stats) {
            batch.record(&stats);
        }
    }
    timer.finish();
    if let Some(batch) = proto {
        fair_trace::metrics::record_batch(name, batch);
    }
    tally
}

/// Validates a cached tile before trusting it: exactly one full tile of
/// consistent counts. Anything else is treated as a miss.
fn tally_from_cached(cached: fair_tiles::TileTally) -> Option<Tally> {
    if cached.trials as usize != fair_simlab::TILE {
        return None;
    }
    let mut event_counts = [0usize; 4];
    for (dst, src) in event_counts.iter_mut().zip(cached.counts) {
        *dst = usize::try_from(src).ok()?;
    }
    let tally = Tally { event_counts };
    (tally.trials() == fair_simlab::TILE).then_some(tally)
}

fn tally_to_cached(tally: &Tally) -> fair_tiles::TileTally {
    let mut counts = [0u64; 4];
    for (dst, src) in counts.iter_mut().zip(tally.event_counts) {
        *dst = src as u64;
    }
    fair_tiles::TileTally {
        trials: tally.trials() as u32,
        counts,
    }
}

/// Estimates the utility of the *best* strategy among several scenarios
/// (the empirical analogue of `sup_A u_A(Π, A)` over a strategy library):
/// scenario `i` runs at seed `seed + (i << 32)`, and the whole library is
/// one [`estimate_batch`].
///
/// Returns the per-scenario estimates and the index of the maximizer.
pub fn best_of<S: Scenario + Sync>(
    scenarios: &[S],
    payoff: &Payoff,
    trials: usize,
    seed: u64,
) -> (Vec<UtilityEstimate>, usize) {
    best_of_each(&[(scenarios, seed)], payoff, trials)
        .pop()
        .expect("one library")
}

/// [`best_of`] for several `(library, seed)` pairs at once: every scenario
/// of every library goes into one [`estimate_batch`], each library keeps
/// its own seeding, and the results are exactly those of one `best_of`
/// per library, in library order.
pub fn best_of_each<S: Scenario + Sync, L: AsRef<[S]>>(
    libraries: &[(L, u64)],
    payoff: &Payoff,
    trials: usize,
) -> Vec<(Vec<UtilityEstimate>, usize)> {
    let jobs: Vec<(&S, u64)> = libraries
        .iter()
        .flat_map(|(library, seed)| {
            assert!(!library.as_ref().is_empty(), "need at least one scenario");
            library
                .as_ref()
                .iter()
                .enumerate()
                .map(move |(i, s)| (s, seed.wrapping_add((i as u64) << 32)))
        })
        .collect();
    let mut estimates = estimate_batch(&jobs, payoff, trials).into_iter();
    libraries
        .iter()
        .map(|(library, _)| {
            let ests: Vec<UtilityEstimate> =
                estimates.by_ref().take(library.as_ref().len()).collect();
            let best = ests
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.mean.partial_cmp(&b.1.mean).expect("finite means"))
                .map(|(i, _)| i)
                .expect("nonempty");
            (ests, best)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_runtime::{Envelope, OutMsg, Party, Passive, RoundCtx};

    /// A degenerate one-party protocol that outputs its input immediately.
    #[derive(Clone, Debug)]
    struct Echo(Value, bool);

    impl Party<()> for Echo {
        fn round(&mut self, _: &RoundCtx, _: &[Envelope<()>]) -> Vec<OutMsg<()>> {
            self.1 = true;
            vec![]
        }
        fn output(&self) -> Option<Value> {
            self.1.then(|| self.0.clone())
        }
        fn clone_box(&self) -> Box<dyn Party<()>> {
            Box::new(self.clone())
        }
    }

    struct EchoScenario;

    impl Scenario for EchoScenario {
        type Msg = ();
        fn name(&self) -> String {
            "echo".into()
        }
        fn n(&self) -> usize {
            1
        }
        fn build(&self, _rng: &mut StdRng) -> Trial<()> {
            Trial {
                instance: Instance {
                    parties: vec![Box::new(Echo(Value::Scalar(3), false))],
                    funcs: vec![],
                },
                adversary: Box::new(Passive),
                truth: Some(Value::Scalar(3)),
                max_rounds: 5,
            }
        }
    }

    /// A one-party scenario whose honest output is right with probability
    /// `self.0`%, so its estimates depend on the seed (E01 when right,
    /// E00 when wrong).
    struct Flip(u64);

    impl Scenario for Flip {
        type Msg = ();
        fn name(&self) -> String {
            format!("flip{}", self.0)
        }
        fn n(&self) -> usize {
            1
        }
        fn criterion(&self) -> HonestCriterion {
            HonestCriterion::EqualsTruth
        }
        fn build(&self, rng: &mut StdRng) -> Trial<()> {
            let right = rand::RngExt::random_range(rng, 0..100u64) < self.0;
            Trial {
                instance: Instance {
                    parties: vec![Box::new(Echo(Value::Scalar(u64::from(right)), false))],
                    funcs: vec![],
                },
                adversary: Box::new(Passive),
                truth: Some(Value::Scalar(1)),
                max_rounds: 5,
            }
        }
    }

    #[test]
    fn passive_scenario_is_always_e01() {
        let est = estimate(&EchoScenario, &Payoff::standard(), 50, 1);
        assert_eq!(est.mean, 0.0);
        assert_eq!(est.ci, 0.0);
        assert_eq!(est.event_rate(Event::E01), 1.0);
        assert!(est.consistent_with(0.0, 1e-9));
    }

    #[test]
    fn best_of_picks_the_maximum() {
        // Two copies of the same scenario — the tie is broken by max_by
        // (later element wins ties per max_by semantics); just check a
        // valid index and equal means.
        let (ests, best) = best_of(&[EchoScenario, EchoScenario], &Payoff::standard(), 10, 2);
        assert_eq!(ests.len(), 2);
        assert!(best < 2);
        assert_eq!(ests[0].mean, ests[1].mean);
    }

    #[test]
    fn display_contains_counts() {
        let est = estimate(&EchoScenario, &Payoff::standard(), 4, 3);
        let s = est.to_string();
        assert!(s.contains("echo"));
        assert!(s.contains("0/4/0/0"));
    }

    /// Serializes the tests that install the process-global tile store
    /// with the other tests that estimate full tiles: an installed store
    /// serves every estimate, so one running beside a cache test would
    /// move its counters.
    fn store_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn tile_cache_hits_reproduce_fresh_results() {
        let _slot = store_lock();
        let fresh_640 = estimate(&EchoScenario, &Payoff::standard(), 640, 11);
        let fresh_2000 = estimate(&EchoScenario, &Payoff::standard(), 2000, 11);
        fair_tiles::cache::install(std::sync::Arc::new(fair_tiles::Store::in_memory()));
        let warm_640 = estimate(&EchoScenario, &Payoff::standard(), 640, 11);
        let warm_2000 = estimate(&EchoScenario, &Payoff::standard(), 2000, 11);
        let stats = fair_tiles::cache::snapshot().expect("store installed");
        fair_tiles::cache::uninstall();
        // 640 trials = tiles 0..10 (all full, all cold): 10 misses.
        // 2000 trials = tiles 0..32 (tile 31 partial): 10 prefix hits,
        // 21 full misses, the partial tile never consulted.
        assert_eq!((stats.hits, stats.misses, stats.inserts), (10, 31, 31));
        for (warm, fresh) in [(&warm_640, &fresh_640), (&warm_2000, &fresh_2000)] {
            assert_eq!(warm.event_counts, fresh.event_counts);
            assert_eq!(warm.trials, fresh.trials);
            assert_eq!(warm.mean.to_bits(), fresh.mean.to_bits());
            assert_eq!(warm.ci.to_bits(), fresh.ci.to_bits());
        }
    }

    #[test]
    fn batch_over_a_partly_warm_store_matches_per_scenario_estimates() {
        let _slot = store_lock();
        let library = [Flip(30), Flip(50), Flip(70)];
        let payoff = Payoff::standard();
        // 200 trials = tiles 0..4: three full tiles and a partial tail.
        let (trials, seed) = (200, 21);
        let seed_of = |i: u64| seed + (i << 32);
        let (cold, _) = best_of(&library, &payoff, trials, seed);
        // A store holding tile 0 of scenario 0 and tiles 0..2 of scenario
        // 2; returns the counters a closure adds to it.
        let warm_run = |f: &dyn Fn() -> Vec<UtilityEstimate>| {
            fair_tiles::cache::install(std::sync::Arc::new(fair_tiles::Store::in_memory()));
            estimate(&library[0], &payoff, 64, seed_of(0));
            estimate(&library[2], &payoff, 128, seed_of(2));
            let before = fair_tiles::cache::snapshot().expect("store installed");
            let ests = f();
            let after = fair_tiles::cache::snapshot().expect("store installed");
            fair_tiles::cache::uninstall();
            (ests, after.hits - before.hits, after.misses - before.misses)
        };
        let (batched, hits, misses) = warm_run(&|| best_of(&library, &payoff, trials, seed).0);
        let (single, single_hits, single_misses) = warm_run(&|| {
            (0..3)
                .map(|i| estimate(&library[i], &payoff, trials, seed_of(i as u64)))
                .collect()
        });
        // Nine full tiles looked up, three of them stored.
        assert_eq!((hits, misses), (3, 6));
        assert_eq!((hits, misses), (single_hits, single_misses));
        for ests in [&batched, &single] {
            for (warm, fresh) in ests.iter().zip(&cold) {
                assert_eq!(warm.event_counts, fresh.event_counts);
                assert_eq!(warm.mean.to_bits(), fresh.mean.to_bits());
                assert_eq!(warm.ci.to_bits(), fresh.ci.to_bits());
            }
        }
        assert_ne!(cold[0].event_counts, cold[2].event_counts);
    }

    #[test]
    fn best_of_each_matches_one_best_of_per_library() {
        let _slot = store_lock();
        let payoff = Payoff::standard();
        let libraries = [(vec![Flip(20), Flip(80)], 5), (vec![Flip(60)], 9)];
        let each = best_of_each(&libraries, &payoff, 100);
        for ((library, seed), (ests, best)) in libraries.iter().zip(&each) {
            let (alone, alone_best) = best_of(library, &payoff, 100, *seed);
            assert_eq!(*best, alone_best);
            for (a, b) in ests.iter().zip(&alone) {
                assert_eq!(a.event_counts, b.event_counts);
            }
        }
        // E00 pays γ00 > γ01 = 0 here, so the most-often-wrong scenario wins.
        assert_eq!(each[0].1, 0);
    }

    #[test]
    fn adaptive_stopper_converges_early_and_stays_exact() {
        let _slot = store_lock();
        // Zero-variance scenario: the half-width is 0 after the first
        // chunk, so a 1000-trial request stops at 256 trials.
        let (tx, rx) = std::sync::mpsc::channel();
        let (est, summary) = crate::progressive::scoped(0.05, Some(tx), || {
            estimate(&EchoScenario, &Payoff::standard(), 1000, 13)
        });
        assert_eq!(est.trials, ADAPTIVE_CHUNK_TILES * fair_simlab::TILE);
        assert_eq!(est.event_rate(Event::E01), 1.0);
        assert_eq!(summary.estimates, 1);
        assert_eq!(summary.early_stops, 1);
        assert_eq!(summary.trials_requested, 1000);
        assert_eq!(summary.trials_used, 256);
        let frames: Vec<_> = rx.try_iter().collect();
        assert_eq!(frames.len(), 1);
        assert!(frames[0].done);
        assert_eq!(frames[0].trials, 256);
        assert_eq!(frames[0].requested, 1000);
    }

    #[test]
    fn adaptive_exhaustion_matches_fixed_budget_bit_for_bit() {
        let _slot = store_lock();
        // An unreachable epsilon forces the adaptive path to spend the
        // whole budget; the result must equal the plain path exactly.
        let fixed = estimate(&EchoScenario, &Payoff::standard(), 500, 17);
        let (adaptive, summary) = crate::progressive::scoped(-1.0, None, || {
            estimate(&EchoScenario, &Payoff::standard(), 500, 17)
        });
        assert_eq!(adaptive.event_counts, fixed.event_counts);
        assert_eq!(adaptive.mean.to_bits(), fixed.mean.to_bits());
        assert_eq!(adaptive.ci.to_bits(), fixed.ci.to_bits());
        assert_eq!(summary.trials_used, 500);
        assert_eq!(summary.early_stops, 0);
    }
}
