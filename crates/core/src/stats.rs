//! Small statistics toolkit backing the estimator's confidence claims.
//!
//! The experiments assert inequalities like "measured ≤ paper bound" with
//! statistical tolerances; this module provides the standard machinery —
//! Wilson score intervals for proportions and normal-approximation
//! intervals for bounded means.

/// A two-sided confidence interval.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// The midpoint.
    pub fn mid(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    /// The half-width.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// The 97.5% standard-normal quantile (two-sided 95%).
pub const Z_95: f64 = 1.959_963_984_540_054;

/// Default absolute tolerance for floating-point comparisons in estimator
/// code. Direct `==`/`!=` on floats is forbidden inside the determinism
/// boundary (fairlint rule D2); compare through [`approx_eq`] /
/// [`approx_zero`] instead so platform-dependent rounding cannot flip an
/// experiment verdict.
pub const F64_TOL: f64 = 1e-12;

/// Whether two floats agree within an absolute tolerance.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Whether a float is zero within [`F64_TOL`].
pub fn approx_zero(x: f64) -> bool {
    x.abs() <= F64_TOL
}

/// Wilson score interval for a binomial proportion — better behaved than
/// the normal approximation near 0 and 1, which is exactly where the
/// fairness experiments live (events that "never happen" under a correct
/// protocol).
///
/// # Panics
///
/// Panics if `trials == 0` or `successes > trials`.
pub fn wilson(successes: usize, trials: usize, z: f64) -> Interval {
    assert!(trials > 0, "need at least one trial");
    assert!(successes <= trials, "successes bounded by trials");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let spread = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt());
    // At the extremes the exact endpoints are 0 resp. 1; snap them to
    // avoid 1e-18-scale floating-point residue.
    let lo = if successes == 0 {
        0.0
    } else {
        (center - spread).max(0.0)
    };
    let hi = if successes == trials {
        1.0
    } else {
        (center + spread).min(1.0)
    };
    Interval { lo, hi }
}

/// Normal-approximation confidence interval for the mean of a bounded
/// variable, from the sample mean and sample variance.
pub fn mean_interval(mean: f64, variance: f64, trials: usize, z: f64) -> Interval {
    assert!(trials > 0, "need at least one trial");
    let se = (variance.max(0.0) / trials as f64).sqrt();
    Interval {
        lo: mean - z * se,
        hi: mean + z * se,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wilson_centers_near_the_proportion() {
        let i = wilson(500, 1000, Z_95);
        assert!(i.contains(0.5));
        assert!(i.half_width() < 0.04);
    }

    #[test]
    fn wilson_handles_extremes_gracefully() {
        let zero = wilson(0, 100, Z_95);
        assert_eq!(zero.lo, 0.0);
        assert!(zero.hi > 0.0 && zero.hi < 0.06, "hi = {}", zero.hi);
        let one = wilson(100, 100, Z_95);
        assert_eq!(one.hi, 1.0);
        assert!(one.lo > 0.94);
    }

    #[test]
    fn mean_interval_shrinks_with_trials() {
        let wide = mean_interval(0.5, 0.25, 100, Z_95);
        let tight = mean_interval(0.5, 0.25, 10_000, Z_95);
        assert!(tight.half_width() < wide.half_width() / 5.0);
        assert!(wide.contains(0.5));
    }

    proptest! {
        #[test]
        fn prop_wilson_is_a_valid_interval(s in 0usize..=500, extra in 0usize..500) {
            let n = s + extra.max(1);
            let i = wilson(s, n, Z_95);
            prop_assert!(i.lo >= 0.0 && i.hi <= 1.0 && i.lo <= i.hi);
            // The point estimate always lies inside.
            prop_assert!(i.contains(s as f64 / n as f64));
        }

        #[test]
        fn prop_wilson_narrows_with_n(s_rate in 0.0f64..=1.0) {
            let small = wilson((s_rate * 100.0) as usize, 100, Z_95);
            let large = wilson((s_rate * 10_000.0) as usize, 10_000, Z_95);
            prop_assert!(large.half_width() <= small.half_width() + 1e-9);
        }
    }
}
