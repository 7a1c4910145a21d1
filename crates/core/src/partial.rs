//! Machinery for the 1/p-security ("partial fairness") comparisons of
//! Section 5.
//!
//! 1/p-security allows the real and ideal ensembles to be distinguished
//! with advantage up to 1/p. The experiments estimate acceptance
//! probabilities of an environment/distinguisher against the real protocol
//! and against an ideal world (dummy parties + F^$ + simulator), each with
//! a confidence bound. Lemma 26's separation (the leaky protocol Π̃ is
//! 1/2-secure yet fails the F^$-based notion) is asserted on exactly these
//! estimates.

/// An estimated acceptance probability.
#[derive(Clone, Copy, Debug)]
pub struct Acceptance {
    /// Empirical acceptance rate.
    pub rate: f64,
    /// 95% confidence half-width.
    pub ci: f64,
    /// Trials.
    pub trials: usize,
}

impl Acceptance {
    /// The estimate from `hits` accepting runs out of `trials`, with a
    /// Wilson half-width: well-behaved at rates near 0 or 1 (a plain
    /// normal approximation reports zero uncertainty there).
    pub fn from_hits(hits: usize, trials: usize) -> Acceptance {
        Acceptance {
            rate: hits as f64 / trials as f64,
            ci: crate::stats::wilson(hits, trials, crate::stats::Z_95).half_width(),
            trials,
        }
    }
}

/// Estimates the acceptance probability of a boolean experiment over
/// seeded runs.
///
/// Per-trial seeds come from [`fair_simlab::trial_seed`] and trials are
/// sharded across the simlab scheduler; like [`crate::utility::estimate`],
/// the result is bit-identical for every worker count (hit counts are
/// integers, so shard merges are exact).
///
/// # Examples
///
/// ```
/// use fair_core::partial::acceptance;
///
/// // trial_seed output is uniform over u64, so `seed % 4 == 0` accepts a
/// // quarter of the time.
/// let a = acceptance(|seed| seed % 4 == 0, 1000, 0);
/// assert!((a.rate - 0.25).abs() < 0.05);
/// ```
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn acceptance<F: Fn(u64) -> bool + Sync>(run: F, trials: usize, seed: u64) -> Acceptance {
    assert!(trials > 0, "need at least one trial");
    let hits: usize = fair_simlab::run_tiled(trials, |range| {
        range
            .filter(|&t| run(fair_simlab::trial_seed(seed, t as u64)))
            .count()
    })
    .into_iter()
    .sum();
    Acceptance::from_hits(hits, trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_of_constant_experiments() {
        let a = acceptance(|_| true, 100, 0);
        assert_eq!(a.rate, 1.0);
        // Wilson intervals stay honest at the extremes: the uncertainty is
        // small but *not* zero after only 100 trials.
        assert!(a.ci > 0.0 && a.ci < 0.04, "ci = {}", a.ci);
        let b = acceptance(|_| false, 100, 0);
        assert_eq!(b.rate, 0.0);
    }

    #[test]
    fn acceptance_of_biased_coin() {
        // Deterministic pseudo-coin from the seed.
        let a = acceptance(|s| s.wrapping_mul(0x9e3779b97f4a7c15) % 4 == 0, 4000, 7);
        assert!((a.rate - 0.25).abs() < 0.05, "rate = {}", a.rate);
        assert!(a.ci > 0.0);
    }
}
