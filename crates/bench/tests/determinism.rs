//! Cross-cutting determinism guarantees of the simlab rewiring: the same
//! `(id, trials, seed)` always produces identical report rows, and the
//! tallies are bit-identical for every `--jobs` value (the acceptance
//! criterion of the parallel scheduler).

use fair_core::{best_of, estimate, Payoff};
use fair_protocols::scenarios::{contract_sweep, opt2_sweep};
use fair_simlab::with_jobs;
use proptest::prelude::*;

#[test]
fn same_inputs_give_identical_reports() {
    for id in ["e1", "e4", "e13"] {
        let a = fair_bench::run_experiment(id, 60, 0xfa1e).expect("known id");
        let b = fair_bench::run_experiment(id, 60, 0xfa1e).expect("known id");
        assert_eq!(a, b, "{id} not deterministic");
    }
}

#[test]
fn reports_are_bit_identical_across_job_counts() {
    let baseline = with_jobs(1, || fair_bench::run_experiment("e1", 150, 7).expect("e1"));
    for jobs in [4usize, 8] {
        let run = with_jobs(jobs, || {
            fair_bench::run_experiment("e1", 150, 7).expect("e1")
        });
        assert_eq!(run, baseline, "jobs {jobs} diverged from jobs 1");
    }
}

#[test]
fn acceptance_is_bit_identical_across_job_counts() {
    let experiment = |s: u64| s.wrapping_mul(0x9e37_79b9_7f4a_7c15).is_multiple_of(3);
    let a1 = with_jobs(1, || fair_core::partial::acceptance(experiment, 500, 3));
    for jobs in [4usize, 8] {
        let aj = with_jobs(jobs, || fair_core::partial::acceptance(experiment, 500, 3));
        assert_eq!(aj.rate.to_bits(), a1.rate.to_bits(), "jobs {jobs}");
        assert_eq!(aj.ci.to_bits(), a1.ci.to_bits(), "jobs {jobs}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant, property-tested: for arbitrary trial counts
    /// (spanning partial/multiple tiles) and seeds, the estimator's tallies
    /// at jobs = 4 equal the jobs = 1 tallies bit-for-bit.
    #[test]
    fn estimate_tallies_match_across_jobs(trials in 1usize..200, seed in 0u64..1_000_000) {
        let scenarios = contract_sweep(false);
        let payoff = Payoff::standard();
        let seq = with_jobs(1, || estimate(&scenarios[0], &payoff, trials, seed));
        let par = with_jobs(4, || estimate(&scenarios[0], &payoff, trials, seed));
        prop_assert_eq!(seq.event_counts, par.event_counts);
        prop_assert_eq!(seq.mean.to_bits(), par.mean.to_bits());
        prop_assert_eq!(seq.ci.to_bits(), par.ci.to_bits());
        prop_assert_eq!(seq.trials, par.trials);
    }

    /// The batch contract: `best_of` runs a whole strategy library as one
    /// flat `(scenario, tile)` batch, and each of its estimates equals the
    /// scenario's own `estimate` at seed `seed + (i << 32)` bit-for-bit,
    /// at every job count.
    #[test]
    fn best_of_matches_per_scenario_estimates(trials in 1usize..200, seed in 0u64..1_000_000) {
        let library = opt2_sweep();
        prop_assert!(library.len() >= 3);
        let payoff = Payoff::standard();
        let alone: Vec<_> = with_jobs(1, || {
            library
                .iter()
                .enumerate()
                .map(|(i, s)| estimate(s, &payoff, trials, seed + ((i as u64) << 32)))
                .collect()
        });
        for jobs in [1usize, 2, 4] {
            let (batched, _) = with_jobs(jobs, || best_of(&library, &payoff, trials, seed));
            prop_assert_eq!(batched.len(), alone.len());
            for (b, a) in batched.iter().zip(&alone) {
                prop_assert_eq!(b.event_counts, a.event_counts);
                prop_assert_eq!(b.mean.to_bits(), a.mean.to_bits());
                prop_assert_eq!(b.ci.to_bits(), a.ci.to_bits());
                prop_assert_eq!(b.trials, a.trials);
            }
        }
    }
}
