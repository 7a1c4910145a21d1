//! The registry's scenario-derived leg: loads `scenarios/*.toml` through
//! the `fair-scenario` compiler once per process and runs each compiled
//! family with the same estimator machinery the static experiments use.
//!
//! The scenario directory is resolved relative to the working directory
//! first (release binaries run from the repo root), then relative to this
//! crate's manifest (`cargo test` runs with `crates/bench` as cwd). Files
//! that fail validation are simply absent from the registry; the
//! workspace test `tests/registry.rs` fails on any such file and keeps the
//! directory and EXPERIMENTS.md in lockstep, and `ci.sh` runs
//! `fair-scenario check scenarios`, so a malformed file fails the build
//! loudly rather than silently here.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use fair_core::cost::CostFn;
use fair_core::strategy::CorruptionPlan;
use fair_core::{analytic, Payoff};
use fair_protocols::scenarios::{coin_toss_sweep, gk_sweep, Opt2Scenario, Strategy};
use fair_runtime::Value;
use fair_scenario::{load_dir, Family, ScenarioSpec};
use fair_simlab::{ReportRecord, RowRecord};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::experiments::{best, TOL};

fn scenario_dir() -> PathBuf {
    let cwd = PathBuf::from("scenarios");
    if cwd.is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// The compiled scenario registry, loaded once per process (the serving
/// layer snapshots ids at startup and relies on the set staying fixed).
pub fn specs() -> &'static [ScenarioSpec] {
    static SPECS: OnceLock<Vec<ScenarioSpec>> = OnceLock::new();
    SPECS.get_or_init(|| load_dir(&scenario_dir()).specs)
}

/// Runs one compiled scenario. Deterministic in `(trials, seed)` like
/// every static experiment.
pub(crate) fn run_spec(spec: &ScenarioSpec, trials: usize, seed: u64) -> ReportRecord {
    let rows = match &spec.family {
        Family::DepositCoinToss {
            g00,
            g10,
            g11,
            deposits,
        } => deposit_rows(*g00, *g10, *g11, deposits, trials, seed),
        Family::AbortHeatmap {
            g00,
            g11,
            g10,
            costs,
            rounds,
        } => heatmap_rows(*g00, *g11, g10, costs, *rounds, trials, seed),
        Family::PartialFairness { p, abort_rounds } => partial_rows(p, *abort_rounds, trials, seed),
    };
    ReportRecord {
        id: spec.id.clone(),
        title: spec.title.clone(),
        rows,
    }
}

/// Penalty-deposit coin toss: the deposit is forfeited on abort, so the
/// payoff the abort events carry is γ00 − d (and γ10 − d, unreachable
/// here: the coin toss has no secret to learn, truth ⊥ pins events to
/// E₀₀/E₀₁). The best deviation therefore nets exactly max(γ00 − d, γ01).
fn deposit_rows(
    g00: f64,
    g10: f64,
    g11: f64,
    deposits: &[f64],
    trials: usize,
    seed: u64,
) -> Vec<RowRecord> {
    let base = Payoff::gamma_fair_plus(g00, g10, g11).expect("compiler validated the payoff class");
    let mut rows = Vec::new();
    let mut deterred_at = None;
    for (i, d) in deposits.iter().enumerate() {
        let payoff = base.with_abort_penalty(*d);
        let u = best(
            &coin_toss_sweep(),
            &payoff,
            trials,
            seed.wrapping_add((i as u64) << 16),
        );
        let expect = (g00 - d).max(0.0);
        rows.push(RowRecord::vs_paper(
            format!("deposit={d:.2}: best deviation = max(γ00−d, 0)"),
            expect,
            u.mean,
            u.ci,
            TOL,
        ));
        if deterred_at.is_none() && *d >= g00 {
            deterred_at = Some((*d, u));
        }
    }
    // The deterrence threshold: once d ≥ γ00 aborting nets no more than
    // behaving (the compiler guarantees the sweep reaches this regime).
    if let Some((d, u)) = deterred_at {
        rows.push(RowRecord::upper_bound(
            format!("deterrence: d={d:.2} ≥ γ00={g00:.2} ⇒ best deviation ≤ 0"),
            0.0,
            u.mean,
            u.ci,
            TOL,
        ));
    }
    rows
}

/// (γ10, cost) heatmap against Π^Opt_2SFE: per γ10 the sup over abort
/// strategies is the e2 bound (γ10 + γ11)/2 (lock-and-abort attains it);
/// per cell the attacker's net is that value minus the price of the one
/// corruption a two-party abort attack needs.
fn heatmap_rows(
    g00: f64,
    g11: f64,
    g10s: &[f64],
    costs: &[f64],
    rounds: usize,
    trials: usize,
    seed: u64,
) -> Vec<RowRecord> {
    let mut rows = Vec::new();
    for (i, g10) in g10s.iter().enumerate() {
        let payoff = Payoff::gamma_fair_plus(g00, *g10, g11).expect("compiler validated every γ10");
        let bound = analytic::opt2(&payoff);
        let mut sweep = vec![
            Opt2Scenario {
                strategy: Strategy::NoCorruption,
            },
            Opt2Scenario {
                strategy: Strategy::LockAbort(CorruptionPlan::Fixed(vec![0])),
            },
        ];
        for r in 0..rounds {
            sweep.push(Opt2Scenario {
                strategy: Strategy::AbortAtRound(CorruptionPlan::Fixed(vec![0]), r),
            });
        }
        let u = best(&sweep, &payoff, trials, seed.wrapping_add((i as u64) << 16));
        rows.push(RowRecord::vs_paper(
            format!("γ10={g10:.2}: best abort = (γ10+γ11)/2"),
            bound,
            u.mean,
            u.ci,
            TOL,
        ));
        for c in costs {
            let price = CostFn::linear(2, *c);
            let net = u.mean - price.cost(1);
            rows.push(RowRecord::vs_paper(
                format!("γ10={g10:.2} cost={c:.2}: net attack value"),
                bound - price.cost(1),
                net,
                u.ci,
                TOL,
            ));
        }
    }
    // Internal consistency: the measured rationality frontier (cells
    // where attacking nets a profit) must match the analytic one. The
    // shipped grids keep every |net| margin well above CI noise.
    let rational_analytic = g10s
        .iter()
        .flat_map(|g10| {
            costs
                .iter()
                .map(move |c| (g10 + g11) / 2.0 - CostFn::linear(2, *c).cost(1) > 0.0)
        })
        .filter(|rational| *rational)
        .count();
    let rational_measured = rows
        .iter()
        .filter(|r| r.label.contains("net attack value") && r.measured > 0.0)
        .count();
    rows.push(RowRecord::check(
        "rational cells (net > 0) match the analytic frontier",
        rational_measured as f64,
        rational_measured == rational_analytic,
    ));
    rows
}

/// Gordon–Katz 1/p curve: for each p, the best abort attack against the
/// poly-domain protocol (AND on bits, |Y| = 2) stays at or below 1/p,
/// with the m = 8·p·|Y| round count the construction prescribes.
fn partial_rows(ps: &[u64], abort_rounds: usize, trials: usize, seed: u64) -> Vec<RowRecord> {
    let payoff = Payoff::gk();
    let bit: fair_protocols::gordon_katz::ValueSampler =
        Arc::new(|rng: &mut StdRng| Value::Scalar(rng.random_range(0..2)));
    let and_fn: fair_protocols::opt2::TwoPartyFn = Arc::new(|a: &Value, b: &Value| {
        Value::Scalar((a.as_scalar().unwrap_or(0) & 1) & (b.as_scalar().unwrap_or(0) & 1))
    });
    let mut rows = Vec::new();
    for p in ps {
        let cfg = fair_protocols::gordon_katz::GkConfig::poly_domain(
            Arc::clone(&and_fn),
            *p,
            2,
            Arc::clone(&bit),
            Arc::clone(&bit),
        );
        let rounds: Vec<usize> = (1..=abort_rounds).collect();
        let u = best(&gk_sweep(&cfg, &rounds), &payoff, trials, seed ^ p);
        rows.push(RowRecord::upper_bound(
            format!("p={p}: best abort attack ≤ 1/p"),
            analytic::gk_bound(*p),
            u.mean,
            u.ci,
            TOL / 2.0,
        ));
        rows.push(RowRecord::vs_paper(
            format!("p={p}: rounds m = 8·p·|Y|"),
            (8 * p * 2) as f64,
            cfg.m as f64,
            0.0,
            0.0,
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_scenarios_load() {
        let ids: Vec<&str> = specs().iter().map(|s| s.id.as_str()).collect();
        assert!(ids.contains(&"s_deposit_coin"), "{ids:?}");
        assert!(ids.contains(&"s_abort_heatmap"), "{ids:?}");
        assert!(ids.contains(&"s_gk_curve"), "{ids:?}");
        for spec in specs() {
            assert!(spec.id.starts_with("s_"), "{}", spec.id);
            assert!(!spec.title.trim().is_empty(), "{} untitled", spec.id);
        }
    }

    #[test]
    fn scenario_ids_stay_disjoint_from_the_static_registry() {
        for spec in specs() {
            assert!(
                crate::ALL_EXPERIMENTS.iter().all(|e| e.id != spec.id),
                "{} collides with a static experiment id",
                spec.id
            );
        }
    }

    #[test]
    fn deposit_family_reproduces_its_threshold() {
        let report = crate::run_experiment("s_deposit_coin", 60, 11).expect("registered");
        assert!(
            report.pass(),
            "deposit scenario failed:\n{}",
            report.render()
        );
    }

    #[test]
    fn unknown_ids_stay_unknown() {
        assert!(crate::run_experiment("s_nope", 10, 1).is_none());
    }
}
