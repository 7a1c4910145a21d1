//! The tracing no-op guard (ISSUE satellite): threading a `Tracer`
//! through `runtime::engine` must never change an execution's outcome.
//! For the two canonical record/replay targets — the Blum coin toss and a
//! small Gordon–Katz AND instance — the plain `execute` entry point, an
//! explicit `NoopTracer`, and a full `RecordingTracer` must produce
//! byte-identical `ExecutionResult`s across many seeds.

use std::sync::Arc;

use fair_protocols::coin_toss::coin_toss_instance;
use fair_protocols::gordon_katz::{gk_instance, AbortRule, GkAttack, GkConfig, ValueSampler};
use fair_protocols::opt2::TwoPartyFn;
use fair_runtime::{execute, execute_traced, Passive, Value};
use fair_trace::{NoopTracer, RecordingTracer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn gk_config() -> GkConfig {
    let bit: ValueSampler = Arc::new(|rng: &mut StdRng| Value::Scalar(rng.random_range(0..2)));
    let and_fn: TwoPartyFn = Arc::new(|a: &Value, b: &Value| {
        Value::Scalar((a.as_scalar().unwrap_or(0) & 1) & (b.as_scalar().unwrap_or(0) & 1))
    });
    GkConfig::poly_domain(and_fn, 2, 2, Arc::clone(&bit), bit)
}

/// Runs one trial three ways from the same seed and returns the three
/// debug renderings of the results (the strongest equality available:
/// outputs, abort flags, and rounds used all land in `Debug`).
fn three_ways<M, F>(seed: u64, build: F) -> [String; 3]
where
    M: Clone + std::fmt::Debug + fair_runtime::WireLen,
    F: Fn(&mut StdRng) -> (fair_runtime::Instance<M>, usize),
{
    let run_plain = || {
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, max_rounds) = build(&mut rng);
        execute(inst, &mut Passive, &mut rng, max_rounds).expect("plain execution succeeds")
    };
    let run_noop = || {
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, max_rounds) = build(&mut rng);
        execute_traced(inst, &mut Passive, &mut rng, max_rounds, &mut NoopTracer)
            .expect("no-op traced execution succeeds")
    };
    let run_recording = || {
        let mut rng = StdRng::seed_from_u64(seed);
        let (inst, max_rounds) = build(&mut rng);
        let mut tracer = RecordingTracer::new();
        let result = execute_traced(inst, &mut Passive, &mut rng, max_rounds, &mut tracer)
            .expect("recording traced execution succeeds");
        assert!(tracer.stats().rounds > 0, "recording saw the execution");
        result
    };
    [
        format!("{:?}", run_plain()),
        format!("{:?}", run_noop()),
        format!("{:?}", run_recording()),
    ]
}

#[test]
fn coin_toss_outcomes_are_tracer_independent() {
    for seed in 0..32u64 {
        let [plain, noop, recording] = three_ways(seed, |rng| (coin_toss_instance(rng), 10));
        assert_eq!(plain, noop, "seed {seed}: NoopTracer changed the outcome");
        assert_eq!(
            plain, recording,
            "seed {seed}: RecordingTracer changed the outcome"
        );
    }
}

#[test]
fn gordon_katz_outcomes_are_tracer_independent() {
    let cfg = gk_config();
    let max_rounds = 3 * cfg.m + 20;
    for seed in 0..16u64 {
        let [plain, noop, recording] = three_ways(seed, |rng| {
            let x1 = Value::Scalar(rng.random_range(0..2));
            let x2 = Value::Scalar(rng.random_range(0..2));
            (gk_instance("gk", cfg.clone(), [x1, x2]), max_rounds)
        });
        assert_eq!(plain, noop, "seed {seed}: NoopTracer changed the outcome");
        assert_eq!(
            plain, recording,
            "seed {seed}: RecordingTracer changed the outcome"
        );
    }
}

/// Adversarial executions too: the Gordon–Katz abort attack exercises the
/// corruption and abort emission sites, which must also be observe-only.
#[test]
fn adversarial_gordon_katz_outcomes_are_tracer_independent() {
    let cfg = gk_config();
    let max_rounds = 3 * cfg.m + 20;
    for seed in 0..16u64 {
        let build = |rng: &mut StdRng| {
            let x1 = Value::Scalar(rng.random_range(0..2));
            let x2 = Value::Scalar(rng.random_range(0..2));
            (gk_instance("gk", cfg.clone(), [x1, x2]), max_rounds)
        };
        let plain = {
            let mut rng = StdRng::seed_from_u64(seed);
            let (inst, mr) = build(&mut rng);
            let mut adv = GkAttack::new(AbortRule::AtRound(1));
            format!(
                "{:?}",
                execute(inst, &mut adv, &mut rng, mr).expect("plain execution succeeds")
            )
        };
        let traced = {
            let mut rng = StdRng::seed_from_u64(seed);
            let (inst, mr) = build(&mut rng);
            let mut adv = GkAttack::new(AbortRule::AtRound(1));
            let mut tracer = RecordingTracer::new();
            format!(
                "{:?}",
                execute_traced(inst, &mut adv, &mut rng, mr, &mut tracer)
                    .expect("traced execution succeeds")
            )
        };
        assert_eq!(
            plain, traced,
            "seed {seed}: tracing changed the attack outcome"
        );
    }
}
