//! Criterion benchmarks for protocol executions: GMW gate throughput,
//! engine round throughput, full fairness-experiment executions, and the
//! tracing overhead rows (plain engine vs no-op vs recording tracer).

use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion, Throughput,
};
use fair_circuits::functions;
use fair_core::strategy::CorruptionPlan;
use fair_core::{run_once, Payoff, Scenario};
use fair_protocols::scenarios::{
    gmw_half_sweep, CoinTossScenario, Opt2Scenario, OptnScenario, Strategy,
};
use fair_runtime::{execute, execute_traced, Passive};
use fair_sfe::gmw::{gmw_instance, GmwConfig};
use fair_trace::{NoopTracer, RecordingTracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_gmw(c: &mut Criterion) {
    let mut g = c.benchmark_group("gmw");
    for bits in [4usize, 8, 16] {
        let cfg = GmwConfig::new(functions::millionaires(bits), vec![bits, bits]);
        let ands = cfg.circuit().and_count() as u64;
        g.throughput(Throughput::Elements(ands));
        g.bench_function(format!("millionaires_{bits}b"), |b| {
            b.iter_batched(
                || StdRng::seed_from_u64(1),
                |mut rng| {
                    let inst = gmw_instance(&cfg, &[5, 9], &mut rng);
                    execute(inst, &mut Passive, &mut rng, cfg.rounds() + 4)
                        .expect("execution succeeds")
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_opt2_trial(c: &mut Criterion) {
    let payoff = Payoff::standard();
    c.bench_function("opt2/lock_abort_trial", |b| {
        let scenario = Opt2Scenario {
            strategy: Strategy::LockAbort(CorruptionPlan::RandomSingleton),
        };
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_once(&scenario, &payoff, seed)
        })
    });
}

fn bench_optn_trial(c: &mut Criterion) {
    let payoff = Payoff::standard();
    let mut g = c.benchmark_group("optn_trial");
    for n in [3usize, 5, 8] {
        g.bench_function(format!("n{n}"), |b| {
            let scenario = OptnScenario {
                n,
                strategy: Strategy::LockAbort(CorruptionPlan::RandomSubset(n - 1)),
            };
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                run_once(&scenario, &payoff, seed)
            })
        });
    }
    g.finish();
}

/// Tracing overhead: `execute` (which monomorphizes
/// `execute_traced::<_, NoopTracer>`) against an explicit no-op-traced call
/// and a recording tracer, on the coin toss (tiny messages), Π^Opt_2SFE
/// and Π^{1/2}_GMW at n = 5 (kilobytes of Lamport keys per message). The
/// first two rows must be indistinguishable — every emission site is behind
/// the compile-time `T::ENABLED` constant — while the recording row shows
/// what enabling observability costs. Trials are built untimed.
fn bench_trace_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead");
    trace_rows(
        &mut g,
        "coin_toss",
        &CoinTossScenario {
            strategy: Strategy::NoCorruption,
        },
    );
    trace_rows(
        &mut g,
        "opt2",
        &Opt2Scenario {
            strategy: Strategy::NoCorruption,
        },
    );
    trace_rows(&mut g, "gmw_half", &gmw_half_sweep(5, 2).remove(0));
    g.finish();
}

/// The three `trace_overhead` rows for one scenario.
fn trace_rows<S: Scenario>(g: &mut BenchmarkGroup<'_>, name: &str, scenario: &S) {
    let setup = || {
        let mut rng = StdRng::seed_from_u64(7);
        (scenario.build(&mut rng), rng)
    };
    g.bench_function(format!("{name}/untraced"), |b| {
        b.iter_batched(
            setup,
            |(mut t, mut rng)| {
                execute(t.instance, t.adversary.as_mut(), &mut rng, t.max_rounds)
                    .expect("execution succeeds")
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function(format!("{name}/noop_traced"), |b| {
        b.iter_batched(
            setup,
            |(mut t, mut rng)| {
                execute_traced(
                    t.instance,
                    t.adversary.as_mut(),
                    &mut rng,
                    t.max_rounds,
                    &mut NoopTracer,
                )
                .expect("execution succeeds")
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function(format!("{name}/recording"), |b| {
        b.iter_batched(
            setup,
            |(mut t, mut rng)| {
                let mut tracer = RecordingTracer::with_ring(256);
                execute_traced(
                    t.instance,
                    t.adversary.as_mut(),
                    &mut rng,
                    t.max_rounds,
                    &mut tracer,
                )
                .expect("execution succeeds")
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_gmw,
    bench_opt2_trial,
    bench_optn_trial,
    bench_trace_overhead
);
criterion_main!(benches);
