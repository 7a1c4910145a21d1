//! Shared deterministic quantile code.
//!
//! Percentile indices are computed in exact integer arithmetic (basis
//! points over `count − 1`, rounding half up). The float formulation it
//! replaces — `round((count − 1) as f64 * p)` — silently depended on the
//! binary representation of `p`: `0.99` is not exactly representable, so
//! `50 × 0.99` evaluates to `49.499…` and rounds to 49 where the exact
//! value `49.5` rounds to 50. Integer basis points make the index a pure
//! function of `(count, percentile)` with no representation hazard, which
//! is what lets both simlab's latency summaries and the trace histograms
//! claim bit-identical output for any scheduling.

/// Basis points for the median.
pub const P50: u32 = 5_000;
/// Basis points for the 99th percentile.
pub const P99: u32 = 9_900;

/// The index of the `bp`-basis-point order statistic among `count` sorted
/// samples: `round((count − 1) · bp / 10000)`, half rounding up, in exact
/// integer arithmetic. Returns 0 for an empty batch (callers guard).
pub fn percentile_index(count: usize, bp: u32) -> usize {
    debug_assert!(bp <= 10_000, "basis points exceed 100%");
    if count == 0 {
        return 0;
    }
    ((count - 1) * bp as usize + 5_000) / 10_000
}

/// An integer five-number summary (plus total) of a sample batch.
///
/// Built from per-trial integer observations (rounds, messages, bytes,
/// latencies); the order statistics are taken over the sorted samples,
/// so the summary depends only on the sample *multiset* — never on the
/// order tiles were merged in, i.e. never on the worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantileSummary {
    /// Number of samples.
    pub count: usize,
    /// Sum of all samples.
    pub total: u64,
    /// Smallest sample.
    pub min: u64,
    /// Median (order statistic at [`percentile_index`]`(count, P50)`).
    pub p50: u64,
    /// 99th percentile (order statistic at [`percentile_index`]`(count, P99)`).
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl QuantileSummary {
    /// Summarizes a batch of samples (all-zero summary when empty).
    pub fn from_samples(mut samples: Vec<u64>) -> QuantileSummary {
        samples.sort_unstable();
        QuantileSummary::from_counts(
            samples
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as u64)),
        )
    }

    /// Summarizes a sample multiset given as exact value counts:
    /// `(value, multiplicity)` pairs in strictly ascending value order,
    /// every multiplicity positive (all-zero summary when empty). The
    /// order statistics are those of the expanded sorted samples.
    pub fn from_counts<I>(runs: I) -> QuantileSummary
    where
        I: IntoIterator<Item = (u64, u64)>,
        I::IntoIter: Clone,
    {
        let runs = runs.into_iter();
        let (mut count, mut total) = (0u64, 0u64);
        let (mut min, mut max) = (None, 0);
        for (v, n) in runs.clone() {
            count += n;
            total += v * n;
            min.get_or_insert(v);
            max = v;
        }
        let Some(min) = min else {
            return QuantileSummary::default();
        };
        let count = count as usize;
        // The value at sorted position `i`: the run whose cumulative
        // multiplicity first exceeds `i`.
        let at = |i: usize| {
            let mut seen = 0;
            runs.clone()
                .find(|&(_, n)| {
                    seen += n;
                    i < seen as usize
                })
                .map_or(max, |(v, _)| v)
        };
        QuantileSummary {
            count,
            total,
            min,
            p50: at(percentile_index(count, P50)),
            p99: at(percentile_index(count, P99)),
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_exact_on_the_halfway_case() {
        // 51 samples: (51-1)·0.99 = 49.5 exactly; the float formulation
        // computed 49.499… (0.99 is not representable) and picked 49.
        assert_eq!(percentile_index(51, P99), 50);
        // The pinned legacy cases are unchanged.
        assert_eq!(percentile_index(100, P50), 50);
        assert_eq!(percentile_index(100, P99), 98);
    }

    #[test]
    fn empty_batch_summary_is_all_zero() {
        assert_eq!(percentile_index(0, P50), 0);
        assert_eq!(
            QuantileSummary::from_samples(vec![]),
            QuantileSummary::default()
        );
    }

    #[test]
    fn one_element_batch_is_that_element_everywhere() {
        assert_eq!(percentile_index(1, P50), 0);
        assert_eq!(percentile_index(1, P99), 0);
        let s = QuantileSummary::from_samples(vec![7]);
        assert_eq!((s.count, s.total), (1, 7));
        assert_eq!((s.min, s.p50, s.p99, s.max), (7, 7, 7, 7));
    }

    #[test]
    fn two_element_batch_rounds_the_median_up() {
        // index round(1·0.5) = round(0.5) = 1 (half rounds up).
        assert_eq!(percentile_index(2, P50), 1);
        assert_eq!(percentile_index(2, P99), 1);
        let s = QuantileSummary::from_samples(vec![10, 2]);
        assert_eq!((s.min, s.p50, s.p99, s.max), (2, 10, 10, 10));
        assert_eq!(s.total, 12);
    }

    #[test]
    fn sixty_four_element_batch_matches_order_statistics() {
        // One simlab tile: indices round(63·0.5)=32 (31.5 up), round(63·0.99)=62.
        assert_eq!(percentile_index(64, P50), 32);
        assert_eq!(percentile_index(64, P99), 62);
        // Samples 1..=64 in reversed order: sorting makes value = index+1.
        let s = QuantileSummary::from_samples((1..=64).rev().collect());
        assert_eq!(s.count, 64);
        assert_eq!((s.min, s.p50, s.p99, s.max), (1, 33, 63, 64));
        assert_eq!(s.total, 64 * 65 / 2);
    }

    #[test]
    fn summary_is_order_independent() {
        let a = QuantileSummary::from_samples(vec![5, 1, 9, 1, 3]);
        let b = QuantileSummary::from_samples(vec![1, 1, 3, 5, 9]);
        assert_eq!(a, b);
    }

    /// The summary taken directly over a sorted copy: the oracle the
    /// count path must equal.
    fn sorted_oracle(samples: &[u64]) -> QuantileSummary {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let count = s.len();
        if count == 0 {
            return QuantileSummary::default();
        }
        QuantileSummary {
            count,
            total: s.iter().sum(),
            min: s[0],
            p50: s[percentile_index(count, P50)],
            p99: s[percentile_index(count, P99)],
            max: s[count - 1],
        }
    }

    /// Exact value counts of `samples`, as a collector keeps them.
    fn counts(samples: &[u64]) -> Vec<(u64, u64)> {
        let mut m = std::collections::BTreeMap::new();
        for &v in samples {
            *m.entry(v).or_insert(0) += 1;
        }
        m.into_iter().collect()
    }

    #[test]
    fn count_path_matches_the_sort_on_the_p99_halfway_case() {
        // 51 samples, P99 at index 50 exactly: 49 ones, then 2 and 3,
        // so index 49 (the float formulation's pick) reads 2, index 50 reads 3.
        let mut samples = vec![1u64; 49];
        samples.extend([3, 2]);
        let oracle = sorted_oracle(&samples);
        assert_eq!((oracle.p50, oracle.p99, oracle.max), (1, 3, 3));
        assert_eq!(QuantileSummary::from_counts(counts(&samples)), oracle);
        assert_eq!(QuantileSummary::from_samples(samples), oracle);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn prop_count_path_matches_a_sort(
            len in 0usize..120,
            spread in 1u64..12,
            raw in proptest::collection::vec(proptest::any::<u64>(), 120..121),
        ) {
            // Few distinct values, so most cases have long runs.
            let samples: Vec<u64> = raw[..len].iter().map(|r| r % spread * 7).collect();
            let oracle = sorted_oracle(&samples);
            proptest::prop_assert_eq!(QuantileSummary::from_counts(counts(&samples)), oracle);
            proptest::prop_assert_eq!(QuantileSummary::from_samples(samples), oracle);
        }
    }
}
