//! The experiment suite: one function per entry in DESIGN.md's experiment
//! index, each returning its paper-vs-measured rows (the registry in the
//! crate root supplies each report's id and title).
//!
//! All experiments are deterministic in `(trials, seed)`.

use std::sync::Arc;

use fair_circuits::{bits_to_u64, u64_to_bits};
use fair_core::strategy::{any_output, CorruptionPlan, LockAndAbort};
use fair_core::{
    analytic, best_of, best_of_each, estimate, estimate_batch, Payoff, Scenario, Trial,
    UtilityEstimate,
};
use fair_protocols::scenarios::{
    artificial_sweep, contract_sweep, gk_sweep, gmw_half_sweep, ideal_fair_sweep, one_round_sweep,
    opt2_sweep, optn_sweep, Opt2Scenario, Strategy,
};
use fair_runtime::{PartyId, Value};
use fair_sfe::gmw::{gmw_instance, GmwConfig, GmwMsg};
use rand::rngs::StdRng;
use rand::RngExt;

use fair_simlab::RowRecord;

/// Tolerance added on top of confidence intervals for pass/fail decisions.
pub(crate) const TOL: f64 = 0.05;

/// The estimate of the strategy with the highest utility in `scenarios`.
pub(crate) fn best<S: Scenario + Sync>(
    scenarios: &[S],
    payoff: &Payoff,
    trials: usize,
    seed: u64,
) -> UtilityEstimate {
    let (ests, idx) = best_of(scenarios, payoff, trials, seed);
    ests[idx].clone()
}

/// [`best`] of every `(library, seed)` pair, estimated as one batch.
pub(crate) fn best_each<S: Scenario + Sync>(
    libraries: &[(Vec<S>, u64)],
    payoff: &Payoff,
    trials: usize,
) -> Vec<UtilityEstimate> {
    best_of_each(libraries, payoff, trials)
        .into_iter()
        .map(|(mut ests, idx)| ests.swap_remove(idx))
        .collect()
}

/// E1 — Introduction: Π2 is twice as fair as Π1.
pub fn e1(trials: usize, seed: u64) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let u1 = best(&contract_sweep(false), &payoff, trials, seed);
    let u2 = best(&contract_sweep(true), &payoff, trials, seed ^ 1);
    vec![
        RowRecord::vs_paper(
            "Π1 sup-utility (γ10)",
            analytic::pi1(&payoff),
            u1.mean,
            u1.ci,
            TOL,
        ),
        RowRecord::vs_paper(
            "Π2 sup-utility ((γ10+γ11)/2)",
            analytic::pi2(&payoff),
            u2.mean,
            u2.ci,
            TOL,
        ),
        RowRecord::check(
            "Π2 strictly fairer than Π1",
            u1.mean - u2.mean,
            u2.mean + u2.ci < u1.mean - u1.ci,
        ),
    ]
}

/// E2 — Theorem 3: every strategy in the library stays at or below
/// (γ10+γ11)/2 against Π^Opt_2SFE.
pub fn e2(trials: usize, seed: u64) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let bound = analytic::opt2(&payoff);
    let (ests, best_idx) = best_of(&opt2_sweep(), &payoff, trials, seed);
    let mut rows: Vec<RowRecord> = ests
        .iter()
        .map(|e| RowRecord::upper_bound(e.name.clone(), bound, e.mean, e.ci, TOL))
        .collect();
    rows.push(RowRecord::vs_paper(
        "sup over library",
        bound,
        ests[best_idx].mean,
        ests[best_idx].ci,
        TOL,
    ));
    rows
}

/// E3 — Theorem 4 / Lemma 7: the proof adversaries attain the bound.
pub fn e3(trials: usize, seed: u64) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let bound = analytic::opt2(&payoff);
    let a1 = estimate(
        &Opt2Scenario {
            strategy: Strategy::LockAbort(CorruptionPlan::Fixed(vec![0])),
        },
        &payoff,
        trials,
        seed,
    );
    let a2 = estimate(
        &Opt2Scenario {
            strategy: Strategy::LockAbort(CorruptionPlan::Fixed(vec![1])),
        },
        &payoff,
        trials,
        seed ^ 2,
    );
    let agen = estimate(
        &Opt2Scenario {
            strategy: Strategy::LockAbort(CorruptionPlan::RandomSingleton),
        },
        &payoff,
        trials,
        seed ^ 3,
    );
    vec![
        RowRecord::vs_paper("u(A1) (corrupt p1)", bound, a1.mean, a1.ci, TOL),
        RowRecord::vs_paper("u(A2) (corrupt p2)", bound, a2.mean, a2.ci, TOL),
        RowRecord::vs_paper("u(A_gen) (random party)", bound, agen.mean, agen.ci, TOL),
        RowRecord::vs_paper(
            "u(A1)+u(A2) (Lemma 7: γ10+γ11)",
            payoff.g10 + payoff.g11,
            a1.mean + a2.mean,
            a1.ci + a2.ci,
            2.0 * TOL,
        ),
    ]
}

/// E4 — Lemmas 9/10: Π^Opt_2SFE has two reconstruction rounds; the
/// one-reconstruction-round strawman hands the attacker γ10.
pub fn e4(trials: usize, seed: u64) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    // Sweep abort rounds against Π^Opt_2SFE for both corrupted parties.
    let total_rounds = 6;
    let sweep_for = |party: usize, seed: u64| {
        fair_core::reconstruction::sweep(
            total_rounds,
            |r| Opt2Scenario {
                strategy: Strategy::AbortAtRound(CorruptionPlan::Fixed(vec![party]), r),
            },
            &payoff,
            trials,
            seed,
        )
    };
    let s0 = sweep_for(0, seed);
    let s1 = sweep_for(1, seed ^ 4);
    let fair: Vec<bool> = s0
        .fair
        .iter()
        .zip(&s1.fair)
        .map(|(a, b)| *a && *b)
        .collect();
    // Definition 8: ℓ counts the rounds in which an abort breaks fairness —
    // the reconstruction rounds. (Engine rounds 0–1 are phase 1, rounds
    // 2–3 are the two reconstruction rounds, round 4+ is past the end.)
    let ell = fair.iter().filter(|f| !**f).count();
    let unfair_block: Vec<usize> = fair
        .iter()
        .enumerate()
        .filter(|(_, f)| !**f)
        .map(|(r, _)| r)
        .collect();
    let strawman = best(&one_round_sweep(), &payoff, trials, seed ^ 5);
    vec![
        RowRecord::vs_paper(
            "Π^Opt_2SFE reconstruction rounds ℓ",
            2.0,
            ell as f64,
            0.0,
            0.0,
        ),
        RowRecord::check(
            "unfair aborts are exactly the reconstruction rounds {2,3}",
            unfair_block.len() as f64,
            unfair_block == vec![2, 3],
        ),
        RowRecord::vs_paper(
            "strawman sup-utility (γ10)",
            payoff.g10,
            strawman.mean,
            strawman.ci,
            TOL,
        ),
        RowRecord::check(
            "strawman less fair than Π^Opt_2SFE",
            strawman.mean,
            strawman.mean - strawman.ci > analytic::opt2(&payoff),
        ),
    ]
}

/// E5 — Lemma 11: per-t utilities against Π^Opt_nSFE.
pub fn e5(trials: usize, seed: u64, ns: &[usize]) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let mut rows = Vec::new();
    for &n in ns {
        for t in 1..n {
            let u = best(
                &optn_sweep(n, t),
                &payoff,
                trials,
                seed ^ ((n * 16 + t) as u64),
            );
            rows.push(RowRecord::vs_paper(
                format!("n={n} t={t}: (t·γ10+(n−t)·γ11)/n"),
                analytic::optn_t(&payoff, n, t),
                u.mean,
                u.ci,
                TOL,
            ));
        }
    }
    rows
}

/// E6 — Lemmas 12/13: the A_ī strategies and their mix.
pub fn e6(trials: usize, seed: u64, n: usize) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let mut rows = Vec::new();
    let mut sum = 0.0;
    let mut sum_ci = 0.0;
    // The A_ī strategies, then their mix, estimated as one batch.
    let scenarios: Vec<_> = (0..n)
        .map(CorruptionPlan::AllBut)
        .chain([CorruptionPlan::RandomAllButOne])
        .map(|plan| fair_protocols::scenarios::OptnScenario {
            n,
            strategy: Strategy::LockAbort(plan),
        })
        .collect();
    let seeds = (0..n as u64).chain([99]).map(|k| seed ^ k);
    let jobs: Vec<_> = scenarios.iter().zip(seeds).collect();
    let ests = estimate_batch(&jobs, &payoff, trials);
    let (mixed, each) = ests.split_last().expect("n + 1 estimates");
    for (i, u) in each.iter().enumerate() {
        sum += u.mean;
        sum_ci += u.ci;
        rows.push(RowRecord::vs_paper(
            format!("u(A_{{¬{}}})", i + 1),
            analytic::optn_best(&payoff, n),
            u.mean,
            u.ci,
            TOL,
        ));
    }
    rows.push(RowRecord::vs_paper(
        "Σ_i u(A_ī) ≥ (n−1)γ10 + γ11",
        (n as f64 - 1.0) * payoff.g10 + payoff.g11,
        sum,
        sum_ci,
        n as f64 * TOL,
    ));
    rows.push(RowRecord::vs_paper(
        "mixed A: ((n−1)γ10+γ11)/n",
        analytic::optn_best(&payoff, n),
        mixed.mean,
        mixed.ci,
        TOL,
    ));
    rows
}

/// E7 — Lemmas 14/16: Π^Opt_nSFE is utility-balanced.
pub fn e7(trials: usize, seed: u64, n: usize) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let mut rows = Vec::new();
    let mut sum = 0.0;
    let mut sum_ci = 0.0;
    let libraries: Vec<_> = (1..n)
        .map(|t| (optn_sweep(n, t), seed ^ (t as u64)))
        .collect();
    for u in best_each(&libraries, &payoff, trials) {
        sum += u.mean;
        sum_ci += u.ci;
    }
    rows.push(RowRecord::vs_paper(
        format!("Σ_t u(A_t) vs (n−1)(γ10+γ11)/2 (n={n})"),
        analytic::balance_sum(&payoff, n),
        sum,
        sum_ci,
        (n - 1) as f64 * TOL,
    ));
    rows
}

/// E8 — Lemma 17: Π^{1/2}_GMW per-t cliff; balance violated for even n.
pub fn e8(trials: usize, seed: u64, ns: &[usize]) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let mut rows = Vec::new();
    for &n in ns {
        let mut sum = 0.0;
        let mut sum_ci = 0.0;
        let libraries: Vec<_> = (1..n)
            .map(|t| (gmw_half_sweep(n, t), seed ^ ((n * 16 + t) as u64)))
            .collect();
        for (t, u) in (1..n).zip(best_each(&libraries, &payoff, trials)) {
            sum += u.mean;
            sum_ci += u.ci;
            rows.push(RowRecord::vs_paper(
                format!("n={n} t={t}"),
                analytic::gmw_half_t(&payoff, n, t),
                u.mean,
                u.ci,
                TOL,
            ));
        }
        let bound = analytic::balance_sum(&payoff, n);
        let violated = sum - sum_ci > bound + 0.01;
        if n % 2 == 0 {
            rows.push(RowRecord::check(
                format!("n={n} (even): balance bound exceeded by (γ10−γ11)/2"),
                sum - bound,
                violated && (sum - bound - (payoff.g10 - payoff.g11) / 2.0).abs() < sum_ci + TOL,
            ));
        } else {
            rows.push(RowRecord::vs_paper(
                format!("n={n} (odd): Σ_t meets balance bound"),
                bound,
                sum,
                sum_ci,
                (n - 1) as f64 * TOL,
            ));
        }
    }
    rows
}

/// E9 — Lemma 18: the artificial protocol is optimally fair but not
/// utility-balanced.
pub fn e9(trials: usize, seed: u64, n: usize) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let t1 = best(&artificial_sweep(n, 1), &payoff, trials, seed);
    let tmax = best(&artificial_sweep(n, n - 1), &payoff, trials, seed ^ 7);
    let optn_t1 = analytic::optn_t(&payoff, n, 1);
    vec![
        RowRecord::vs_paper(
            "t=1: γ10/n + (n−1)/n·(γ10+γ11)/2",
            analytic::artificial_t1(&payoff, n),
            t1.mean,
            t1.ci,
            TOL,
        ),
        RowRecord::check(
            "t=1 exceeds Π^Opt_nSFE's bound (not balanced)",
            t1.mean - optn_t1,
            t1.mean - t1.ci > optn_t1,
        ),
        RowRecord::vs_paper(
            "t=n−1: ((n−1)γ10+γ11)/n (still optimal)",
            analytic::optn_best(&payoff, n),
            tmax.mean,
            tmax.ci,
            TOL,
        ),
    ]
}

/// E10 — Theorem 6 / Lemma 22: the corruption-cost duality.
pub fn e10(trials: usize, seed: u64, n: usize) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let phi: Vec<f64> = (1..n)
        .map(|t| best(&optn_sweep(n, t), &payoff, trials, seed ^ (t as u64)).mean)
        .collect();
    // Measure the ideal benchmark s(t) (dummy protocol around fair SFE)
    // rather than trusting the closed form.
    let s_measured: Vec<UtilityEstimate> = (1..n)
        .map(|t| {
            best(
                &ideal_fair_sweep(n, t),
                &payoff,
                trials,
                seed ^ (0x100 + t as u64),
            )
        })
        .collect();
    let cost = fair_core::cost::cost_from_phi(&phi, &payoff, n);
    let ideally_fair = fair_core::cost::is_ideally_fair(&phi, &cost, &payoff, n, TOL);
    // Any strictly dominated (uniformly cheaper) cost must fail.
    let cheaper = fair_core::cost::CostFn::new(
        (0..n)
            .map(|t| if t == 0 { 0.0 } else { cost.cost(t) - 0.15 })
            .collect(),
    );
    let cheaper_fails = !fair_core::cost::is_ideally_fair(&phi, &cheaper, &payoff, n, TOL);
    let mut rows: Vec<RowRecord> = (1..n)
        .map(|t| {
            RowRecord::vs_paper(
                format!("c({t}) = φ({t}) − s({t})"),
                analytic::optn_t(&payoff, n, t) - analytic::ideal_fair_t(&payoff, n, t),
                cost.cost(t),
                0.02,
                TOL,
            )
        })
        .collect();
    for (i, s) in s_measured.iter().enumerate() {
        rows.push(RowRecord::vs_paper(
            format!("measured s({}) vs γ11 (ideal benchmark)", i + 1),
            analytic::ideal_fair_t(&payoff, n, i + 1),
            s.mean,
            s.ci,
            TOL,
        ));
    }
    rows.push(RowRecord::check(
        "Π^Opt_nSFE ideally γ^C-fair under C",
        1.0,
        ideally_fair,
    ));
    rows.push(RowRecord::check(
        "strictly dominated C′ fails (optimality of C)",
        1.0,
        cheaper_fails,
    ));
    rows
}

/// A scenario for the *real* GMW protocol (no ideal hybrid): the rushing
/// lock-and-abort adversary against the millionaires circuit.
pub struct GmwScenario {
    cfg: std::sync::Arc<GmwConfig>,
    lock_abort: bool,
}

impl Scenario for GmwScenario {
    type Msg = GmwMsg;

    fn name(&self) -> String {
        format!(
            "GMW-real/{}",
            if self.lock_abort {
                "lock-abort"
            } else {
                "honest"
            }
        )
    }

    fn n(&self) -> usize {
        2
    }

    fn build(&self, rng: &mut StdRng) -> Trial<GmwMsg> {
        let a = rng.random_range(0u64..256);
        let b = rng.random_range(0u64..256);
        let instance = gmw_instance(&self.cfg, &[a, b], rng);
        let bits: Vec<bool> = u64_to_bits(a, 8)
            .into_iter()
            .chain(u64_to_bits(b, 8))
            .collect();
        let truth = Value::Scalar(bits_to_u64(&self.cfg.circuit().eval(&bits)));
        let adversary: Box<dyn fair_runtime::Adversary<GmwMsg>> = if self.lock_abort {
            Box::new(LockAndAbort::new(
                CorruptionPlan::Fixed(vec![0]),
                any_output(),
            ))
        } else {
            Box::new(fair_core::strategy::RunHonestly::new(
                CorruptionPlan::Fixed(vec![0]),
                any_output(),
            ))
        };
        Trial {
            instance,
            adversary,
            truth: Some(truth),
            max_rounds: self.cfg.rounds() + 6,
        }
    }
}

/// E13 — composability: the real GMW instantiation of unfair SFE gives the
/// attacker exactly the same utility (γ10) as the ideal hybrid, and the
/// hybrid-built Π^Opt_2SFE keeps its bound.
pub fn e13(trials: usize, seed: u64) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let cfg = GmwConfig::new(fair_circuits::functions::millionaires(8), vec![8, 8]);
    let real = estimate(
        &GmwScenario {
            cfg: Arc::clone(&cfg),
            lock_abort: true,
        },
        &payoff,
        trials,
        seed,
    );
    let honest = estimate(
        &GmwScenario {
            cfg,
            lock_abort: false,
        },
        &payoff,
        trials,
        seed ^ 8,
    );
    // The ideal unfair-SFE hybrid under the equivalent attack: submit an
    // input, grab the corrupted output, then send the explicit abort to F
    // (the simulator-interface move that "going silent" is in the real
    // protocol).
    struct GrabAbort {
        learned: Option<Value>,
    }
    impl fair_runtime::Adversary<fair_sfe::ideal::SfeMsg> for GrabAbort {
        fn initial_corruptions(&mut self, _n: usize, _r: &mut StdRng) -> Vec<PartyId> {
            vec![PartyId(0)]
        }
        fn on_round(
            &mut self,
            view: &fair_runtime::RoundView<'_, fair_sfe::ideal::SfeMsg>,
            ctrl: &mut fair_runtime::AdvControl<'_, fair_sfe::ideal::SfeMsg>,
            _rng: &mut StdRng,
        ) {
            use fair_sfe::ideal::SfeMsg;
            if view.round == 0 {
                ctrl.run_honestly(PartyId(0)); // submit the input
                return;
            }
            for e in view.delivered {
                if let SfeMsg::Output(v) = &e.msg {
                    self.learned = Some(v.clone());
                    ctrl.send_adv(fair_runtime::OutMsg::to_func(
                        fair_runtime::FuncId(0),
                        SfeMsg::Abort,
                    ));
                }
            }
        }
        fn learned(&self) -> Option<Value> {
            self.learned.clone()
        }
    }
    struct IdealUnfair;
    impl Scenario for IdealUnfair {
        type Msg = fair_sfe::ideal::SfeMsg;
        fn name(&self) -> String {
            "ideal-unfair-sfe/grab-abort".into()
        }
        fn n(&self) -> usize {
            2
        }
        fn build(&self, rng: &mut StdRng) -> Trial<fair_sfe::ideal::SfeMsg> {
            let a = rng.random_range(0u64..256);
            let b = rng.random_range(0u64..256);
            let spec = fair_sfe::spec::IdealSpec::global("millionaires", 2, |ins: &[Value]| {
                Value::Scalar(
                    (ins[0].as_scalar().unwrap_or(0) > ins[1].as_scalar().unwrap_or(0)) as u64,
                )
            });
            let instance = fair_runtime::Instance {
                parties: vec![
                    Box::new(fair_sfe::dummy::SfeDummyParty::new(Value::Scalar(a))),
                    Box::new(fair_sfe::dummy::SfeDummyParty::new(Value::Scalar(b))),
                ],
                funcs: vec![Box::new(fair_sfe::ideal::SfeWithAbort::new(spec))],
            };
            Trial {
                instance,
                adversary: Box::new(GrabAbort { learned: None }),
                truth: None,
                max_rounds: 30,
            }
        }
    }
    let ideal = estimate(&IdealUnfair, &payoff, trials, seed ^ 9);
    // The second real instantiation: Yao garbled circuits. Its unfairness
    // is asymmetric — the evaluator (p2) learns first.
    struct YaoScenario {
        corrupt: usize,
    }
    impl Scenario for YaoScenario {
        type Msg = fair_sfe::yao::YaoMsg;
        fn name(&self) -> String {
            format!("yao/lock-abort(p{})", self.corrupt + 1)
        }
        fn n(&self) -> usize {
            2
        }
        fn build(&self, rng: &mut StdRng) -> Trial<fair_sfe::yao::YaoMsg> {
            let a = rng.random_range(0u64..256);
            let b = rng.random_range(0u64..256);
            let circuit = std::sync::Arc::new(fair_circuits::functions::millionaires(8));
            let instance = fair_sfe::yao::yao_instance(&circuit, [8, 8], [a, b], rng);
            Trial {
                instance,
                adversary: Box::new(LockAndAbort::new(
                    CorruptionPlan::Fixed(vec![self.corrupt]),
                    any_output(),
                )),
                truth: Some(Value::Scalar((a > b) as u64)),
                max_rounds: 20,
            }
        }
    }
    let yao_eval = estimate(&YaoScenario { corrupt: 1 }, &payoff, trials, seed ^ 10);
    let yao_garb = estimate(&YaoScenario { corrupt: 0 }, &payoff, trials, seed ^ 11);
    vec![
        RowRecord::vs_paper(
            "real GMW, lock-abort (γ10)",
            payoff.g10,
            real.mean,
            real.ci,
            TOL,
        ),
        RowRecord::vs_paper(
            "ideal F_sfe^⊥, same attack (γ10)",
            payoff.g10,
            ideal.mean,
            ideal.ci,
            TOL,
        ),
        RowRecord::check(
            "hybrid and real instantiation agree",
            (real.mean - ideal.mean).abs(),
            (real.mean - ideal.mean).abs() <= real.ci + ideal.ci + TOL,
        ),
        RowRecord::vs_paper(
            "real GMW, honest coalition (γ11)",
            payoff.g11,
            honest.mean,
            honest.ci,
            TOL,
        ),
        RowRecord::vs_paper(
            "real Yao, corrupted evaluator (γ10)",
            payoff.g10,
            yao_eval.mean,
            yao_eval.ci,
            TOL,
        ),
        RowRecord::vs_paper(
            "real Yao, corrupted garbler (γ11: it learns last)",
            payoff.g11,
            yao_garb.mean,
            yao_garb.ci,
            TOL,
        ),
    ]
}

/// E11 — Theorems 23/24: the Gordon–Katz protocols bound the attacker's
/// payoff by 1/p under γ = (0,0,1,0).
pub fn e11(trials: usize, seed: u64) -> Vec<RowRecord> {
    let payoff = Payoff::gk();
    let mut rows = Vec::new();
    let bit: fair_protocols::gordon_katz::ValueSampler =
        Arc::new(|rng: &mut StdRng| Value::Scalar(rng.random_range(0..2)));
    let and_fn: fair_protocols::opt2::TwoPartyFn = Arc::new(|a: &Value, b: &Value| {
        Value::Scalar((a.as_scalar().unwrap_or(0) & 1) & (b.as_scalar().unwrap_or(0) & 1))
    });
    for p in [2u64, 4] {
        let cfg = fair_protocols::gordon_katz::GkConfig::poly_domain(
            Arc::clone(&and_fn),
            p,
            2,
            Arc::clone(&bit),
            Arc::clone(&bit),
        );
        let rounds: Vec<usize> = (1..=8).collect();
        let u = best(&gk_sweep(&cfg, &rounds), &payoff, trials, seed ^ p);
        rows.push(RowRecord::upper_bound(
            format!("poly-domain p={p}: best attack ≤ 1/p"),
            analytic::gk_bound(p),
            u.mean,
            u.ci,
            TOL / 2.0,
        ));
        rows.push(RowRecord::vs_paper(
            format!("poly-domain p={p}: rounds m = 8·p·|Y|"),
            (8 * p * 2) as f64,
            cfg.m as f64,
            0.0,
            0.0,
        ));
    }
    let cfg = fair_protocols::gordon_katz::GkConfig::poly_range(
        Arc::clone(&and_fn),
        2,
        vec![Value::Scalar(0), Value::Scalar(1)],
    );
    let rounds: Vec<usize> = (1..=8).collect();
    let u = best(&gk_sweep(&cfg, &rounds), &payoff, trials, seed ^ 77);
    rows.push(RowRecord::upper_bound(
        "poly-range p=2: best attack ≤ 1/p",
        analytic::gk_bound(2),
        u.mean,
        u.ci,
        TOL / 2.0,
    ));
    rows.push(RowRecord::vs_paper(
        "poly-range p=2: rounds m = 8·p²·|Z|",
        (8 * 4 * 2) as f64,
        cfg.m as f64,
        0.0,
        0.0,
    ));
    rows
}

/// E14 — the Section 4.1 remark: for functions admitting a 1/p-secure
/// solution, fairness beats the generic (γ10+γ11)/2 optimum. We evaluate
/// the Gordon–Katz protocol for AND (poly-size domain) under the *general*
/// Γ⁺_fair payoff and show its best attacker earns strictly less than the
/// generic bound, approaching γ11 as p grows.
pub fn e14(trials: usize, seed: u64) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let generic = analytic::opt2(&payoff);
    let bit: fair_protocols::gordon_katz::ValueSampler =
        Arc::new(|rng: &mut StdRng| Value::Scalar(rng.random_range(0..2)));
    let and_fn: fair_protocols::opt2::TwoPartyFn = Arc::new(|a: &Value, b: &Value| {
        Value::Scalar((a.as_scalar().unwrap_or(0) & 1) & (b.as_scalar().unwrap_or(0) & 1))
    });
    let mut rows = Vec::new();
    for p in [2u64, 4] {
        let cfg = fair_protocols::gordon_katz::GkConfig::poly_domain(
            Arc::clone(&and_fn),
            p,
            2,
            Arc::clone(&bit),
            Arc::clone(&bit),
        );
        let rounds: Vec<usize> = (1..=8).collect();
        let u = best(&gk_sweep(&cfg, &rounds), &payoff, trials, seed ^ p);
        // Remark after Theorem 3: the bound drops to roughly
        // (γ10 + (p−1)·γ11)/p for 1/p-secure functions.
        let remark_bound = (payoff.g10 + (p as f64 - 1.0) * payoff.g11) / p as f64;
        rows.push(RowRecord::upper_bound(
            format!("GK(p={p}) under Γ⁺_fair ≤ (γ10+(p−1)γ11)/p"),
            remark_bound,
            u.mean,
            u.ci,
            TOL,
        ));
        rows.push(RowRecord::check(
            format!("GK(p={p}) strictly fairer than the generic optimum"),
            generic - u.mean,
            u.mean + u.ci < generic,
        ));
    }
    rows
}

/// E15 — the RPD attack game (Remark 1): the designer's uniform choice of
/// the designated party is minimax-optimal. Sweeping Pr[i* = 1] = q shows
/// the best attacker earns max(q, 1−q)·γ10 + min(q, 1−q)·γ11, minimized
/// exactly at q = 1/2.
pub fn e15(trials: usize, seed: u64) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let qs = [0.1f64, 0.3, 0.5, 0.7, 0.9];
    // Build the measured attack-game matrix: designer rows = bias q,
    // attacker columns = which party the lock-and-abort corrupts.
    let mut matrix = Vec::with_capacity(qs.len());
    let mut rows = Vec::new();
    for (i, q) in qs.into_iter().enumerate() {
        let sweep = fair_protocols::scenarios::biased_opt2_sweep(q);
        // Columns 0/1 of the sweep are lock-abort on p1 / p2.
        let u1 = estimate(&sweep[0], &payoff, trials, seed ^ (i as u64));
        let u2 = estimate(&sweep[1], &payoff, trials, seed ^ (0x40 + i as u64));
        let expect = q.max(1.0 - q) * payoff.g10 + q.min(1.0 - q) * payoff.g11;
        let measured_best = u1.mean.max(u2.mean);
        rows.push(RowRecord::vs_paper(
            format!("q = {q}: max(q,1−q)·γ10 + min(q,1−q)·γ11"),
            expect,
            measured_best,
            u1.ci + u2.ci,
            TOL,
        ));
        matrix.push(vec![u1.mean, u2.mean]);
    }
    let game = fair_core::game::Game::new(
        qs.iter().map(|q| format!("q={q}")).collect(),
        vec!["lock-abort p1".into(), "lock-abort p2".into()],
        matrix,
    );
    let (d_star, value) = game.minimax();
    rows.push(RowRecord::check(
        "designer's minimax optimum at q = 1/2",
        value,
        game.designer_moves()[d_star] == "q=0.5",
    ));
    rows.push(RowRecord::vs_paper(
        "game value = (γ10+γ11)/2",
        analytic::opt2(&payoff),
        value,
        0.03,
        TOL,
    ));
    rows.push(RowRecord::check(
        "uniform design forms a saddle point",
        1.0,
        game.is_saddle_point(d_star, game.best_response(d_star).0, 0.05),
    ));
    rows
}

/// E16 — the two-way separation (Appendix B.1): utility-balanced fairness
/// and optimal fairness are incomparable. For odd n the honest-majority
/// protocol Π^{1/2}_GMW (the paper's mixed protocol Π′ on odd n) meets the
/// balance bound yet its best attacker earns γ10 — far above Π^Opt_nSFE's
/// optimum; conversely E9 shows the Lemma 18 protocol is optimal but
/// unbalanced.
pub fn e16(trials: usize, seed: u64) -> Vec<RowRecord> {
    let payoff = Payoff::standard();
    let n = 5; // odd: Π′ = Π^{1/2}_GMW
    let mut sum = 0.0;
    let mut sum_ci = 0.0;
    let mut sup = f64::NEG_INFINITY;
    let libraries: Vec<_> = (1..n)
        .map(|t| (gmw_half_sweep(n, t), seed ^ (t as u64)))
        .collect();
    for u in best_each(&libraries, &payoff, trials) {
        sum += u.mean;
        sum_ci += u.ci;
        sup = sup.max(u.mean);
    }
    vec![
        RowRecord::vs_paper(
            format!("Π′ (n={n}, odd): Σ_t meets the balance bound"),
            analytic::balance_sum(&payoff, n),
            sum,
            sum_ci,
            (n - 1) as f64 * TOL,
        ),
        RowRecord::vs_paper(
            "Π′ sup-utility = γ10 (not optimal)",
            payoff.g10,
            sup,
            0.02,
            TOL,
        ),
        RowRecord::check(
            "balanced ⇏ optimal: sup exceeds Π^Opt_nSFE's bound",
            sup - analytic::optn_best(&payoff, n),
            sup > analytic::optn_best(&payoff, n) + 0.05,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 150;

    #[test]
    fn e1_reproduces() {
        crate::assert_reproduces("e1", e1(T, 1));
    }

    #[test]
    fn e3_reproduces() {
        crate::assert_reproduces("e3", e3(T, 3));
    }

    #[test]
    fn e4_reproduces() {
        crate::assert_reproduces("e4", e4(T, 4));
    }

    #[test]
    fn e7_reproduces_small() {
        crate::assert_reproduces("e7", e7(T, 7, 3));
    }

    #[test]
    fn e9_reproduces_small() {
        crate::assert_reproduces("e9", e9(T, 9, 3));
    }

    #[test]
    fn e13_reproduces() {
        crate::assert_reproduces("e13", e13(80, 13));
    }

    #[test]
    fn e15_reproduces() {
        crate::assert_reproduces("e15", e15(250, 15));
    }
}
