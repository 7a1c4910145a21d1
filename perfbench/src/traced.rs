//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The harness assembles the trial pipeline itself from public functions —
//! `trial_seed` → `Scenario::build` → `execute` / `execute_traced` →
//! `classify` — fans tiles out with `run_indexed`, and records a span
//! around every call into a layer. Spans nest
//! `bench.experiment` ⊃ `core.estimate` ⊃ `simlab.tile` ⊃ per trial
//! {`protocols.build`, `runtime.execute`, `trace.record`, `core.classify`};
//! the spans of one trial share its trial id. Spans are kept in memory and
//! summarised at the end; a span's self time is its duration minus the
//! part of it its child spans cover. Before any number is reported, the
//! pipeline's tallies must equal `fair_core::estimate`'s for the same
//! scenario, trials and seed, so the numbers describe the program that was
//! measured.
//!
//! Primitive layers (field, crypto, sfe, the HTTP parser and the in-process
//! service) are timed directly. On `serve_mixed` the run also drives a
//! shortened serving load for the server, tile-store and event-loop
//! counters. Metrics of a layer a workload does not exercise read 0.

use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fair_bench::runner::BASE_SEED;
use fair_core::utility::Tally;
use fair_core::{classify, truth_from_ledger, Event, Payoff, Scenario};
use fair_protocols::scenarios::{coin_toss_sweep, contract_sweep, gmw_half_sweep, opt2_sweep};
use fair_runtime::{execute, execute_traced};
use fair_simlab::TILE;
use fair_trace::RecordingTracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch;
use crate::report::{self, median, Outcome};
use crate::serve;
use crate::Args;

/// One recorded span; times are ns since the recorder's epoch.
#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    trial: u64,
    start: u64,
    end: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store shared by every worker. Workers collect spans in
/// a local buffer and append it once per tile.
struct Recorder {
    epoch: Instant,
    next_id: std::sync::atomic::AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: std::sync::atomic::AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn id(&self) -> u64 {
        self.next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    fn close(
        &self,
        local: &mut Vec<Span>,
        name: &'static str,
        id: u64,
        parent: u64,
        trial: u64,
        start: u64,
    ) {
        local.push(Span {
            name,
            id,
            parent,
            trial,
            start,
            end: self.now(),
        });
    }

    fn extend(&self, local: Vec<Span>) {
        self.spans.lock().expect("span store lock").extend(local);
    }

    fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store lock"))
    }
}

/// Work counters read off each trial.
#[derive(Default, Clone, Copy)]
struct Counts {
    trials: u64,
    rounds: u64,
    msgs: u64,
    bytes: u64,
    diverged: u64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.trials += o.trials;
        self.rounds += o.rounds;
        self.msgs += o.msgs;
        self.bytes += o.bytes;
        self.diverged += o.diverged;
    }
}

/// One trial: the plain leg (build → execute → classify), then, when
/// `record` is set, the recording leg on a trial rebuilt from the same
/// seed (build → `execute_traced` with a `RecordingTracer`), which must
/// classify identically.
fn trial<S: Scenario>(
    rec: &Recorder,
    local: &mut Vec<Span>,
    s: &S,
    seed: u64,
    trial_id: u64,
    parent: u64,
    record: bool,
) -> (Event, Counts) {
    let mut counts = Counts {
        trials: 1,
        ..Counts::default()
    };
    let span = |local: &mut Vec<Span>, name, start| {
        rec.close(local, name, rec.id(), parent, trial_id, start)
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = rec.now();
    let mut t = s.build(&mut rng);
    span(local, "protocols.build", t0);
    let t0 = rec.now();
    let res = execute(t.instance, t.adversary.as_mut(), &mut rng, t.max_rounds)
        .expect("scenario builds a well-formed instance");
    span(local, "runtime.execute", t0);
    let t0 = rec.now();
    let truth = t.truth.take().unwrap_or_else(|| truth_from_ledger(&res));
    let event = classify(&res, s.n(), &truth, &s.criterion());
    span(local, "core.classify", t0);
    counts.rounds = res.rounds as u64;

    if record {
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = rec.now();
        let mut t = s.build(&mut rng);
        span(local, "protocols.build", t0);
        let t0 = rec.now();
        let mut tracer = RecordingTracer::new();
        let res2 = execute_traced(
            t.instance,
            t.adversary.as_mut(),
            &mut rng,
            t.max_rounds,
            &mut tracer,
        )
        .expect("scenario builds a well-formed instance");
        span(local, "trace.record", t0);
        let stats = tracer.stats();
        let truth = t.truth.take().unwrap_or_else(|| truth_from_ledger(&res2));
        if classify(&res2, s.n(), &truth, &s.criterion()) != event || res2.rounds != res.rounds {
            counts.diverged += 1;
        }
        counts.msgs = stats.msgs;
        counts.bytes = stats.bytes;
    }
    (event, counts)
}

/// One estimate through the harness pipeline: tiles of `TILE` trials on
/// the scheduler's workers, each trial at `trial_seed(seed, t)`.
fn estimate<S: Scenario + Sync>(
    rec: &Recorder,
    s: &S,
    trials: usize,
    seed: u64,
    est_no: u64,
    parent: u64,
    record: bool,
) -> (Tally, Counts) {
    let est_id = rec.id();
    let est_start = rec.now();
    let parts = fair_simlab::run_indexed(trials.div_ceil(TILE), |k| {
        let mut local = Vec::with_capacity(TILE * 6 + 1);
        let tile_id = rec.id();
        let start = rec.now();
        let mut tally = Tally::default();
        let mut counts = Counts::default();
        for t in k * TILE..((k + 1) * TILE).min(trials) {
            let trial_id = ((est_no + 1) << 32) | t as u64;
            let seed = fair_simlab::trial_seed(seed, t as u64);
            let (event, c) = trial(rec, &mut local, s, seed, trial_id, tile_id, record);
            tally.record(event);
            counts.add(c);
        }
        rec.close(&mut local, "simlab.tile", tile_id, est_id, 0, start);
        rec.extend(local);
        (tally, counts)
    });
    let mut tally = Tally::default();
    let mut counts = Counts::default();
    for (t, c) in parts {
        tally = tally.merge(t);
        counts.add(c);
    }
    let mut local = Vec::with_capacity(1);
    rec.close(&mut local, "core.estimate", est_id, parent, 0, est_start);
    rec.extend(local);
    (tally, counts)
}

/// The scenario families a workload's traced pipeline runs: a sample of
/// the families its experiments estimate.
struct Family<S> {
    scenarios: Vec<S>,
    trials: usize,
}

/// Runs `fam` through the pipeline inside span `parent`; scenario `i`
/// runs at `seed + (i << 32)`, as `fair_core::best_of` seeds it.
fn run_family<S: Scenario + Sync>(
    rec: &Recorder,
    fam: &Family<S>,
    seed: u64,
    est_base: u64,
    parent: u64,
    record: bool,
) -> (Counts, Vec<Tally>) {
    let mut counts = Counts::default();
    let mut tallies = Vec::new();
    for (i, s) in fam.scenarios.iter().enumerate() {
        let seed_i = seed.wrapping_add((i as u64) << 32);
        let (tally, c) = estimate(
            rec,
            s,
            fam.trials,
            seed_i,
            est_base + i as u64,
            parent,
            record,
        );
        counts.add(c);
        tallies.push(tally);
    }
    (counts, tallies)
}

/// What the pipeline phase produced.
struct Pipeline {
    spans: Vec<Span>,
    counts: Counts,
    checks: u64,
    mismatches: Vec<String>,
    /// Wall of the spanned plain-leg pipeline and of `fair_core::estimate`.
    spanned_plain_s: f64,
    reference_s: f64,
}

/// Outside the experiment span: compares the pipeline's tallies with
/// `fair_core::estimate` on the same points, then times that untraced
/// reference against the plain leg with spans on a scratch recorder (the
/// harness's own instrumentation against the program's loop).
fn check_family<S: Scenario + Sync>(
    label: &str,
    fam: &Family<S>,
    seed: u64,
    tallies: &[Tally],
    out: &mut Pipeline,
) {
    let payoff = Payoff::standard();
    let reference = || -> Vec<[usize; 4]> {
        fam.scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                fair_core::estimate(s, &payoff, fam.trials, seed.wrapping_add((i as u64) << 32))
                    .event_counts
            })
            .collect()
    };
    let want = reference();
    for (i, (got, want)) in tallies.iter().zip(&want).enumerate() {
        out.checks += 1;
        if got.event_counts != *want {
            out.mismatches.push(format!(
                "{label} scenario {i}: pipeline tally {:?} != estimate {:?}",
                got.event_counts, want
            ));
        }
    }
    // Alternate the two timings and keep each one's median of three.
    let mut reference_s = Vec::new();
    let mut spanned_s = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        black_box(reference());
        reference_s.push(t0.elapsed().as_secs_f64());
        let scratch = Recorder::new();
        let t0 = Instant::now();
        black_box(run_family(&scratch, fam, seed, 0, 0, false));
        spanned_s.push(t0.elapsed().as_secs_f64());
    }
    out.reference_s += median(&reference_s);
    out.spanned_plain_s += median(&spanned_s);
}

fn run_pipeline(workload: &str, seed: u64) -> Pipeline {
    let jobs = crate::nproc();
    let rec = Recorder::new();
    let mut out = Pipeline {
        spans: Vec::new(),
        counts: Counts::default(),
        checks: 0,
        mismatches: Vec::new(),
        spanned_plain_s: 0.0,
        reference_s: 0.0,
    };
    let exp_id = rec.id();
    let exp_start = rec.now();
    let close_experiment = |out: &mut Pipeline| {
        let mut local = Vec::with_capacity(1);
        rec.close(&mut local, "bench.experiment", exp_id, 0, 0, exp_start);
        rec.extend(local);
        out.spans = rec.take();
    };
    match workload {
        "reproduce_heavy" => {
            let trials = batch::e1_trials(jobs);
            let mut contract = contract_sweep(true);
            contract.truncate(4);
            let contract = Family {
                scenarios: contract,
                trials,
            };
            let mut half = gmw_half_sweep(5, 2);
            half.truncate(2);
            let half = Family {
                scenarios: half,
                trials,
            };
            let (c, ta) = run_family(&rec, &contract, seed, 0, exp_id, true);
            out.counts.add(c);
            let (c, tb) = run_family(&rec, &half, seed, 1 << 16, exp_id, true);
            out.counts.add(c);
            close_experiment(&mut out);
            check_family("contract(Π2)", &contract, seed, &ta, &mut out);
            check_family("gmw_half(5,2)", &half, seed, &tb, &mut out);
        }
        "registry_sweep" => {
            let trials = batch::SWEEP_TRIALS;
            let opt2 = Family {
                scenarios: opt2_sweep(),
                trials,
            };
            let coin = Family {
                scenarios: coin_toss_sweep(),
                trials,
            };
            let (c, ta) = run_family(&rec, &opt2, seed, 0, exp_id, true);
            out.counts.add(c);
            let (c, tb) = run_family(&rec, &coin, seed, 1 << 16, exp_id, true);
            out.counts.add(c);
            close_experiment(&mut out);
            check_family("opt2", &opt2, seed, &ta, &mut out);
            check_family("coin_toss", &coin, seed, &tb, &mut out);
        }
        _ => {
            let opt2 = Family {
                scenarios: opt2_sweep(),
                trials: serve::WARM_TRIALS,
            };
            let (c, ta) = run_family(&rec, &opt2, seed, 0, exp_id, true);
            out.counts.add(c);
            close_experiment(&mut out);
            check_family("opt2", &opt2, seed, &ta, &mut out);
        }
    }
    if out.counts.diverged > 0 {
        out.mismatches.push(format!(
            "{} recorded trials classified differently from their plain run",
            out.counts.diverged
        ));
    }
    out
}

/// Length of the union of `[start, end)` intervals.
fn covered(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Seconds per call of `f`: the median over five rounds of `reps` calls.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&rounds)
}

/// The directly timed primitive layers.
fn primitives(out: &mut Outcome) -> Result<(), String> {
    use fair_crypto::{mac, sha256, sign};
    use fair_field::Fp;

    let y = Fp::new(0x1234_5678_9abc);
    let mut x = Fp::new(3);
    let fp = per_call(1, || {
        for _ in 0..100_000 {
            x = black_box(x * y);
        }
    }) / 100_000.0;
    out.metric(
        "field.fp_mul_ns",
        fp * 1e9,
        "ns",
        5,
        "Fp multiply, median of 5 rounds of 1e5",
    );

    let data = vec![0xabu8; 64 * 1024];
    let blocks = (data.len() + 9).div_ceil(64) as f64;
    let sha = per_call(20, || {
        black_box(sha256::sha256(black_box(&data)));
    }) / blocks;
    out.metric(
        "crypto.sha256_block_ns",
        sha * 1e9,
        "ns",
        5,
        "SHA-256 per 64-byte block over 64 KiB",
    );

    let mut rng = StdRng::seed_from_u64(1);
    let (sk, vk) = sign::keygen(&mut rng);
    let sig = sign::sign(&sk, b"message");
    if !sign::verify(&vk, b"message", &sig) {
        return Err("Lamport signature does not verify".into());
    }
    let keygen = per_call(4, || {
        black_box(sign::keygen(&mut rng));
    });
    out.metric(
        "crypto.lamport_keygen_us",
        keygen * 1e6,
        "us",
        5,
        "Lamport keygen",
    );
    let signing = per_call(200, || {
        black_box(sign::sign(&sk, black_box(b"message")));
    });
    out.metric(
        "crypto.lamport_sign_us",
        signing * 1e6,
        "us",
        5,
        "Lamport sign",
    );
    let verify = per_call(10, || {
        black_box(sign::verify(&vk, black_box(b"message"), &sig));
    });
    out.metric(
        "crypto.lamport_verify_us",
        verify * 1e6,
        "us",
        5,
        "Lamport verify",
    );
    let key = mac::MacKey::random(&mut rng);
    let msg: Vec<Fp> = (0..32u64).map(Fp::new).collect();
    let tag = per_call(2000, || {
        black_box(key.tag_elems(black_box(&msg)));
    });
    out.metric(
        "crypto.poly_mac_tag_ns",
        tag * 1e9,
        "ns",
        5,
        "poly MAC tag over 32 field elements",
    );

    let cfg = fair_sfe::gmw::GmwConfig::new(fair_circuits::functions::millionaires(8), vec![8, 8]);
    let gmw = per_call(20, || {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = fair_sfe::gmw::gmw_instance(&cfg, &[5, 9], &mut rng);
        black_box(
            execute(inst, &mut fair_runtime::Passive, &mut rng, cfg.rounds() + 4)
                .expect("GMW executes"),
        );
    });
    out.metric(
        "sfe.gmw_exec_us",
        gmw * 1e6,
        "us",
        5,
        "one 2-party GMW execution, 8-bit millionaires",
    );
    out.metric(
        "sfe.and_gates",
        cfg.circuit().and_count() as f64,
        "count",
        1,
        "AND gates of that circuit",
    );

    let head = b"GET /estimate?exp=e2&trials=128&seed=64030 HTTP/1.1\r\nHost: 127.0.0.1:8080";
    let parse = per_call(20_000, || {
        black_box(fair_serve::http::parse_request(black_box(head)).is_ok());
    });
    out.metric(
        "serve.parse_ns",
        parse * 1e9,
        "ns",
        5,
        "parse one /estimate request head",
    );

    let service = fair_serve::Service::new(
        Arc::new(fair_bench::servecli::ExperimentBackend),
        fair_serve::ServiceConfig::default(),
        Arc::new(AtomicBool::new(false)),
    );
    let req = fair_serve::http::parse_request(head).map_err(|e| format!("parse: {e:?}"))?;
    if service.handle(&req).status != 200 {
        return Err("in-process /estimate failed".into());
    }
    let mut hits_ok = true;
    let hit = per_call(2000, || {
        let r = service.handle(black_box(&req));
        hits_ok &= r.status == 200;
    });
    if !hits_ok {
        return Err("in-process cached /estimate failed".into());
    }
    out.metric(
        "serve.handle_hit_us",
        hit * 1e6,
        "us",
        5,
        "in-process Service::handle on a cached key",
    );
    Ok(())
}

/// `run_recorded` against `run_experiment` for the same point.
fn runner_overhead(out: &mut Outcome, id: &str, trials: usize) -> Result<(), String> {
    let t0 = Instant::now();
    fair_bench::runner::run_recorded(id, trials, BASE_SEED).ok_or("unknown id")?;
    let recorded = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    fair_bench::run_experiment(id, trials, BASE_SEED).ok_or("unknown id")?;
    let bare = t0.elapsed().as_secs_f64();
    out.metric(
        "bench.experiment_s",
        recorded,
        "s",
        1,
        &format!("run_recorded({id}@{trials})"),
    );
    out.metric(
        "bench.runner_overhead_s",
        recorded - bare,
        "s",
        1,
        "run_recorded minus run_experiment, same point",
    );
    Ok(())
}

fn span_metrics(out: &mut Outcome, p: &Pipeline, jobs: usize) {
    let by = |name: &str| -> Vec<&Span> { p.spans.iter().filter(|s| s.name == name).collect() };
    let mean_ns =
        |v: &[&Span]| v.iter().map(|s| s.dur() as f64).sum::<f64>() / v.len().max(1) as f64;
    let builds = by("protocols.build");
    let execs = by("runtime.execute");
    let records = by("trace.record");
    let classifies = by("core.classify");
    let tiles = by("simlab.tile");
    let estimates = by("core.estimate");
    let trials = p.counts.trials.max(1) as f64;
    out.metric(
        "protocols.build_us",
        mean_ns(&builds) / 1e3,
        "us",
        builds.len(),
        "mean protocols.build span",
    );
    out.metric(
        "protocols.builds",
        builds.len() as f64,
        "count",
        1,
        "trial builds (both legs)",
    );
    out.metric(
        "runtime.execute_us",
        mean_ns(&execs) / 1e3,
        "us",
        execs.len(),
        "mean runtime.execute span (plain engine)",
    );
    out.metric(
        "runtime.rounds_per_trial",
        p.counts.rounds as f64 / trials,
        "count",
        p.counts.trials as usize,
        "engine rounds per trial",
    );
    out.metric(
        "runtime.msgs_per_trial",
        p.counts.msgs as f64 / trials,
        "count",
        p.counts.trials as usize,
        "messages per trial (RecordingTracer)",
    );
    out.metric(
        "trace.record_extra_us",
        (mean_ns(&records) - mean_ns(&execs)) / 1e3,
        "us",
        records.len(),
        "mean execute_traced+RecordingTracer minus mean execute, same trials",
    );
    out.metric(
        "trace.bytes_per_trial",
        p.counts.bytes as f64 / trials,
        "B",
        p.counts.trials as usize,
        "recorded message bytes per trial",
    );
    out.metric(
        "core.classify_ns",
        mean_ns(&classifies),
        "ns",
        classifies.len(),
        "mean core.classify span",
    );
    let mut glue = 0u64;
    for e in &estimates {
        let children: Vec<(u64, u64)> = tiles
            .iter()
            .filter(|t| t.parent == e.id)
            .map(|t| (t.start, t.end))
            .collect();
        glue += e.dur().saturating_sub(covered(children));
    }
    out.metric(
        "core.estimate_glue_ms",
        glue as f64 / estimates.len().max(1) as f64 / 1e6,
        "ms",
        estimates.len(),
        "mean core.estimate self time (span minus tile coverage)",
    );
    out.metric(
        "core.estimates",
        estimates.len() as f64,
        "count",
        1,
        "estimates in the pipeline",
    );
    out.metric(
        "simlab.tiles",
        tiles.len() as f64,
        "count",
        1,
        "tiles in the pipeline",
    );
    out.metric(
        "simlab.tile_ms",
        mean_ns(&tiles) / 1e6,
        "ms",
        tiles.len(),
        "mean simlab.tile span",
    );
    let tile_total: u64 = tiles.iter().map(|s| s.dur()).sum();
    let est_total: u64 = estimates.iter().map(|s| s.dur()).sum();
    out.metric(
        "simlab.worker_busy_share",
        tile_total as f64 / (est_total.max(1) as f64 * jobs as f64),
        "ratio",
        tiles.len(),
        &format!("tile time / (estimate time x {jobs} jobs)"),
    );
    let exp = by("bench.experiment");
    if let Some(e) = exp.first() {
        let children: Vec<(u64, u64)> = estimates.iter().map(|s| (s.start, s.end)).collect();
        out.line(format!(
            "bench.experiment span {:.3}s, self {:.3} ms; trial-level self times (ms total): build {:.1} execute {:.1} record {:.1} classify {:.3}",
            e.dur() as f64 / 1e9,
            e.dur().saturating_sub(covered(children)) as f64 / 1e6,
            builds.iter().map(|s| s.dur()).sum::<u64>() as f64 / 1e6,
            execs.iter().map(|s| s.dur()).sum::<u64>() as f64 / 1e6,
            records.iter().map(|s| s.dur()).sum::<u64>() as f64 / 1e6,
            classifies.iter().map(|s| s.dur()).sum::<u64>() as f64 / 1e6,
        ));
    }
    let trial_ids: std::collections::BTreeSet<u64> = p
        .spans
        .iter()
        .filter(|s| s.trial != 0)
        .map(|s| s.trial)
        .collect();
    out.line(format!(
        "{} spans over {} trial ids",
        p.spans.len(),
        trial_ids.len()
    ));
}

/// Serving-layer metrics from a shortened `serve_mixed` load, or zeros.
fn serving(
    out: &mut Outcome,
    args: &Args,
    budget: Duration,
    handle_hit_us: f64,
) -> Result<(), String> {
    let names = [
        ("tiles.load_ms", "ms"),
        ("tiles.flush_ms", "ms"),
        ("tiles.lookups", "count"),
        ("tiles.hits", "count"),
        ("tiles.hit_ratio", "ratio"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.cache_misses", "count"),
        ("serve.rejected", "count"),
        ("serve.streams", "count"),
        ("serve.keepalive_reuses", "count"),
        ("serve.pipelined_requests", "count"),
        ("serve.conn_timeouts", "count"),
        ("aio.rtt_extra_us", "us"),
        ("load.lateness_ms", "ms"),
    ];
    if args.workload != "serve_mixed" {
        for (name, unit) in names {
            out.metric(name, 0.0, unit, 0, "layer not exercised by this workload");
        }
        return Ok(());
    }
    let load = serve::run_load(args, budget, true)?;
    out.attempted += load.attempted;
    for f in &load.failures {
        out.fail(f.clone());
    }
    let m = &load.metrics;
    let c = |section: &str, key: &str| serve::counter(m, section, key);

    let t0 = Instant::now();
    let store = fair_tiles::Store::persistent(&load.tiles_dir);
    let loaded = store.load();
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    fair_tiles::cache::install(Arc::new(store));
    let fresh = report::mix(args.seed, 77) % 1_000_000_000;
    fair_bench::servecli::rendered_result("e3", 512, fresh).ok_or("e3 missing")?;
    let t0 = Instant::now();
    let flushed = fair_tiles::cache::flush();
    let flush_ms = t0.elapsed().as_secs_f64() * 1e3;
    fair_tiles::cache::uninstall();
    let _ = std::fs::remove_dir_all(&load.tiles_dir);
    out.line(format!(
        "tile store: loaded {loaded:?}; flushed {flushed} file(s)"
    ));

    let (hits, misses) = (c("tiles", "hits"), c("tiles", "misses"));
    let (chit, cmiss, cwait) = (
        c("server", "cache_hits"),
        c("server", "cache_misses"),
        c("server", "cache_waits"),
    );
    let reference = load.steps.first().ok_or("ladder ran no step")?;
    out.metric(
        "tiles.load_ms",
        load_ms,
        "ms",
        1,
        "Store::load of the server's tile directory",
    );
    out.metric(
        "tiles.flush_ms",
        flush_ms,
        "ms",
        1,
        "cache::flush after one fresh e3@512 estimate",
    );
    out.metric(
        "tiles.lookups",
        hits + misses,
        "count",
        1,
        "server tile lookups",
    );
    out.metric("tiles.hits", hits, "count", 1, "server tile hits");
    out.metric(
        "tiles.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        1,
        "tile hits / lookups",
    );
    out.metric(
        "serve.cache_hit_ratio",
        chit / (chit + cmiss + cwait).max(1.0),
        "ratio",
        1,
        "result-cache hits / lookups",
    );
    out.metric(
        "serve.cache_misses",
        cmiss,
        "count",
        1,
        "result-cache misses",
    );
    out.metric(
        "serve.rejected",
        c("server", "status_429") + c("server", "status_503"),
        "count",
        1,
        "429 + 503 (incl. deadline expiry)",
    );
    out.metric(
        "serve.streams",
        c("server", "streams"),
        "count",
        1,
        "/stream responses",
    );
    out.metric(
        "serve.keepalive_reuses",
        c("server", "keepalive_reuses"),
        "count",
        1,
        "requests on reused connections",
    );
    out.metric(
        "serve.pipelined_requests",
        c("server", "pipelined_requests"),
        "count",
        1,
        "requests parsed while earlier replies pending",
    );
    out.metric(
        "serve.conn_timeouts",
        c("server", "conn_timeouts"),
        "count",
        1,
        "idle/read timeouts",
    );
    let rtt = load.rtt_us.ok_or("no rtt probe")?;
    out.metric(
        "aio.rtt_extra_us",
        rtt - handle_hit_us,
        "us",
        2000,
        "unloaded warm round trip minus serve.handle_hit_us",
    );
    let late = report::sorted(&reference.late_ms);
    out.metric(
        "load.lateness_ms",
        report::percentile(&late, 0.99),
        "ms",
        late.len(),
        "p99 generator lateness at the reference rate",
    );
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let t_run = Instant::now();
    let jobs = crate::nproc();
    fair_simlab::set_jobs(jobs);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let compile: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let load = fair_scenario::load_dir(&args.repo.join("scenarios"));
            black_box(load.specs.len());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    out.metric(
        "scenario.compile_ms",
        median(&compile) * 1e3,
        "ms",
        compile.len(),
        "median load_dir(scenarios)",
    );
    primitives(&mut out)?;
    out.attempted += 1;

    let seed = report::mix(args.seed, 0);
    let p = run_pipeline(&args.workload, seed);
    out.attempted += p.checks;
    for m in &p.mismatches {
        out.fail(m.clone());
    }
    span_metrics(&mut out, &p, jobs);
    out.metric(
        "perfbench.span_overhead_share",
        p.spanned_plain_s / p.reference_s - 1.0,
        "ratio",
        1,
        "spanned plain-leg pipeline wall / fair_core::estimate wall - 1 (tracing overhead)",
    );
    out.line(format!(
        "traced-pipeline check: {} tallies equal fair_core::estimate ({} mismatches)",
        p.checks,
        p.mismatches.len()
    ));

    let (id, trials) = match args.workload.as_str() {
        "reproduce_heavy" => ("e16", batch::E16_TRIALS),
        "registry_sweep" => ("e2", batch::SWEEP_TRIALS),
        _ => (serve::WARM_EXP, serve::WARM_TRIALS),
    };
    runner_overhead(&mut out, id, trials)?;

    let handle_hit_us = out
        .metrics
        .iter()
        .find(|m| m.name == "serve.handle_hit_us")
        .map_or(0.0, |m| m.value);
    let left = args
        .seconds
        .saturating_sub(t_run.elapsed() + Duration::from_secs(8));
    serving(
        &mut out,
        args,
        left.max(Duration::from_secs(3)),
        handle_hit_us,
    )?;
    out.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}
