#![forbid(unsafe_code)]
#![allow(clippy::print_stdout)] // the experiment reporters print their tables
#![warn(missing_docs)]
//! Experiment harness for the `fair-protocols` workspace: the experiment
//! registry — every table the reproduction generates (E1–E17 from
//! DESIGN.md, plus the scenario-derived entries) — and the runner behind
//! `reproduce` (`reproduce eN` runs one).

pub mod experiments;
pub mod partial_exp;
pub mod runner;
pub mod scenario_exp;
pub mod servecli;
pub mod tracecli;

use fair_scenario::ScenarioSpec;
use fair_simlab::{ReportRecord, RowRecord};

/// Number of Monte-Carlo trials used by the experiment binaries (override
/// with the `FAIR_TRIALS` environment variable). A malformed value is
/// reported on stderr, then the default of 1000 applies. Routed through
/// `fair-simlab`'s sanctioned env entry point (fairlint rule R4).
pub fn default_trials() -> usize {
    fair_simlab::config::env_usize("FAIR_TRIALS", 1000)
}

/// A static experiment: one paper claim and the function that checks it.
pub struct Experiment {
    /// Registry id (`e1` … `e17`); the report id is its upper-case form.
    pub id: &'static str,
    /// The paper claim, as listings and reports title it.
    pub title: &'static str,
    run: fn(usize, u64) -> Vec<RowRecord>,
}

impl Experiment {
    /// Wraps rows measured for this experiment into its report.
    pub fn report(&self, rows: Vec<RowRecord>) -> ReportRecord {
        ReportRecord {
            id: self.id.to_ascii_uppercase(),
            title: self.title.to_string(),
            rows,
        }
    }
}

/// The static experiments in listing order — the one place each id, title
/// and runner is written.
pub static ALL_EXPERIMENTS: [Experiment; 17] = [
    Experiment {
        id: "e1",
        title: "contract signing: coin-tossed order halves the attacker's edge",
        run: experiments::e1,
    },
    Experiment {
        id: "e2",
        title: "Π^Opt_2SFE upper bound: u_A ≤ (γ10+γ11)/2 for every strategy",
        run: experiments::e2,
    },
    Experiment {
        id: "e3",
        title: "Π^Opt_2SFE lower bound: A1/A2/A_gen achieve (γ10+γ11)/2",
        run: experiments::e3,
    },
    Experiment {
        id: "e4",
        title: "reconstruction-round optimality (Lemmas 9/10)",
        run: experiments::e4,
    },
    Experiment {
        id: "e5",
        title: "Π^Opt_nSFE per-coalition utilities (Lemma 11, tight by Lemma 13)",
        run: |trials, seed| experiments::e5(trials, seed, &[3, 4, 5]),
    },
    Experiment {
        id: "e6",
        title: "multi-party lower bound via the A_ī strategies (Lemmas 12/13)",
        run: |trials, seed| experiments::e6(trials, seed, 4),
    },
    Experiment {
        id: "e7",
        title: "Π^Opt_nSFE is utility-balanced (Lemma 14, tight by Lemma 16)",
        run: |trials, seed| experiments::e7(trials, seed, 4),
    },
    Experiment {
        id: "e8",
        title: "Π^{1/2}_GMW: fair below n/2, unfair at n/2, unbalanced for even n (Lemma 17)",
        run: |trials, seed| experiments::e8(trials, seed, &[4, 5]),
    },
    Experiment {
        id: "e9",
        title: "optimal fairness does not imply utility balance (Lemma 18)",
        run: |trials, seed| experiments::e9(trials, seed, 4),
    },
    Experiment {
        id: "e10",
        title: "utility balance ⇔ optimal corruption-cost function (Theorem 6)",
        run: |trials, seed| experiments::e10(trials, seed, 4),
    },
    Experiment {
        id: "e11",
        title: "Gordon–Katz protocols: payoff ≤ 1/p with O(p·|Y|) / O(p²·|Z|) rounds",
        run: experiments::e11,
    },
    Experiment {
        id: "e12",
        title: "Π̃ separates 1/p-security from utility-based fairness (Lemmas 25–27)",
        run: partial_exp::e12,
    },
    Experiment {
        id: "e13",
        title: "composability: replacing the hybrid by real GMW/Yao preserves utilities",
        run: experiments::e13,
    },
    Experiment {
        id: "e14",
        title: "Section 4.1 remark: 1/p-secure functions admit fairness beyond the generic optimum",
        run: experiments::e14,
    },
    Experiment {
        id: "e15",
        title: "the attack game: uniform i* is the designer's minimax move (Remark 1)",
        run: experiments::e15,
    },
    Experiment {
        id: "e16",
        title: "utility-balanced and optimal fairness are incomparable (Appendix B.1)",
        run: experiments::e16,
    },
    Experiment {
        id: "e17",
        title: "Theorem 23: the GK protocol realizes F^{∧,$} — real and ideal observables coincide",
        run: partial_exp::e17,
    },
];

/// One registry entry: a static experiment, or a family compiled from
/// `scenarios/*.toml`.
#[derive(Clone, Copy)]
pub enum Entry {
    /// An entry of [`ALL_EXPERIMENTS`].
    Static(&'static Experiment),
    /// A compiled scenario (see [`scenario_exp`]).
    Scenario(&'static ScenarioSpec),
}

impl Entry {
    /// The registry id.
    pub fn id(self) -> &'static str {
        match self {
            Entry::Static(e) => e.id,
            Entry::Scenario(spec) => &spec.id,
        }
    }

    /// The claim the entry checks.
    pub fn title(self) -> &'static str {
        match self {
            Entry::Static(e) => e.title,
            Entry::Scenario(spec) => &spec.title,
        }
    }

    /// Runs the entry at `(trials, seed)`; deterministic in both.
    pub fn run(self, trials: usize, seed: u64) -> ReportRecord {
        match self {
            Entry::Static(e) => e.report((e.run)(trials, seed)),
            Entry::Scenario(spec) => scenario_exp::run_spec(spec, trials, seed),
        }
    }
}

/// Every registry entry: [`ALL_EXPERIMENTS`] in order, then the
/// scenario-derived entries in file-name order.
fn entries() -> impl Iterator<Item = Entry> {
    let scenarios = scenario_exp::specs().iter().map(Entry::Scenario);
    ALL_EXPERIMENTS.iter().map(Entry::Static).chain(scenarios)
}

/// The registry entry named `id`, or `None`. Static ids resolve without
/// loading the scenario directory.
pub fn lookup(id: &str) -> Option<Entry> {
    match ALL_EXPERIMENTS.iter().find(|e| e.id == id) {
        Some(e) => Some(Entry::Static(e)),
        None => scenario_exp::specs()
            .iter()
            .find(|spec| spec.id == id)
            .map(Entry::Scenario),
    }
}

/// Runs an experiment by id; `None` for an unknown id.
pub fn run_experiment(id: &str, trials: usize, seed: u64) -> Option<ReportRecord> {
    Some(lookup(id)?.run(trials, seed))
}

/// The experiment registry as `(id, title)` pairs: [`ALL_EXPERIMENTS`] in
/// order, then the scenario-derived entries in file-name order — the
/// single listing behind `reproduce --list`, `fair-trace list`, and
/// `fair-serve`, so every tool names experiments identically.
pub fn experiment_listing() -> Vec<(String, String)> {
    entries()
        .map(|e| (e.id().to_string(), e.title().to_string()))
        .collect()
}

/// Every runnable experiment id, in [`experiment_listing`] order (what
/// `reproduce` runs when invoked bare).
pub fn all_experiment_ids() -> Vec<String> {
    entries().map(|e| e.id().to_string()).collect()
}

/// Asserts that `rows` measured for experiment `id` reproduce its claim,
/// printing the rendered report when they do not.
#[cfg(test)]
pub(crate) fn assert_reproduces(id: &str, rows: Vec<RowRecord>) {
    let Some(Entry::Static(e)) = lookup(id) else {
        panic!("{id} is not a static experiment");
    };
    let report = e.report(rows);
    assert!(report.pass(), "{}", report.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_take_their_id_and_title_from_the_table() {
        let report = run_experiment("e4", 20, 1).expect("e4 is registered");
        assert_eq!(report.id, "E4");
        assert_eq!(report.title, ALL_EXPERIMENTS[3].title);
        assert!(run_experiment("e99", 20, 1).is_none());
    }

    #[test]
    fn lookup_resolves_both_legs_of_the_registry() {
        assert!(matches!(lookup("e17"), Some(Entry::Static(_))));
        assert!(matches!(lookup("s_deposit_coin"), Some(Entry::Scenario(_))));
        assert!(lookup("E1").is_none());
        let listing = experiment_listing();
        assert_eq!(
            listing.len(),
            ALL_EXPERIMENTS.len() + scenario_exp::specs().len()
        );
        assert!(listing.iter().all(|(_, title)| !title.trim().is_empty()));
    }
}
