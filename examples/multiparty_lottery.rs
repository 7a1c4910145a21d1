#![allow(clippy::print_stdout)]
//! A multi-party workload: n parties jointly evaluate a function and care
//! about fairness — modeled on a lottery where everyone contributes a
//! ticket and the concatenated inputs decide the pot.
//!
//! Shows the Lemma 11 utility profile of Π^Opt_nSFE (a coalition of t
//! parties gains (t·γ₁₀+(n−t)·γ₁₁)/n), the utility-balanced sum of
//! Lemma 14, and the honest-majority cliff of Π^{1/2}_GMW (Lemma 17).
//!
//! Run with: `cargo run --release --example multiparty_lottery`

use fair_core::{analytic, best_of, Payoff};
use fair_protocols::scenarios::{gmw_half_sweep, optn_sweep};

fn main() {
    let payoff = Payoff::standard();
    let trials = 800;
    let n = 4;

    println!("Π^Opt_nSFE, n = {n} (optimally fair, utility-balanced):");
    let mut sum = 0.0;
    for t in 1..n {
        let (ests, b) = best_of(&optn_sweep(n, t), &payoff, trials, t as u64);
        sum += ests[b].mean;
        println!(
            "  t={t}: measured {:.3} ± {:.3}   paper {:.3}",
            ests[b].mean,
            ests[b].ci,
            analytic::optn_t(&payoff, n, t)
        );
    }
    println!(
        "  Σ_t = {:.3}   balance bound (n−1)(γ10+γ11)/2 = {:.3}   (Lemma 14: equal)",
        sum,
        analytic::balance_sum(&payoff, n)
    );
    println!();

    println!("Π^1/2_GMW, n = {n} (honest-majority fair, cliff at n/2):");
    let mut sum_half = 0.0;
    for t in 1..n {
        let (ests, b) = best_of(&gmw_half_sweep(n, t), &payoff, trials, 100 + t as u64);
        sum_half += ests[b].mean;
        println!(
            "  t={t}: measured {:.3} ± {:.3}   paper {:.3}",
            ests[b].mean,
            ests[b].ci,
            analytic::gmw_half_t(&payoff, n, t)
        );
    }
    println!(
        "  Σ_t = {:.3} exceeds the balance bound {:.3} by ≈ (γ10−γ11)/2 = {:.3}",
        sum_half,
        analytic::balance_sum(&payoff, n),
        (payoff.g10 - payoff.g11) / 2.0
    );
    println!();
    println!(
        "Lemma 17's moral: with an even number of lottery players, classic GMW \
         concentrates all the unfairness in the half-corruption coalition — \
         Π^Opt_nSFE spreads it optimally across coalition sizes."
    );
}
