//! Plain (unauthenticated) secret sharing: additive n-of-n and Shamir t-of-n
//! over GF(2^61 − 1).
//!
//! These are the building blocks under both the authenticated 2-of-2 scheme
//! of the paper's Appendix A ([`crate::authshare`]) and the verifiable
//! ⌈n/2⌉-of-n sharing used by the honest-majority GMW protocol in Lemma 17.

use fair_field::{Fp, Poly};
use rand::Rng;

use crate::ct::CtEq;
use crate::prg::random_fp;

/// Errors produced by reconstruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ShareError {
    /// Fewer shares than the threshold requires.
    TooFewShares {
        /// Shares provided.
        got: usize,
        /// Shares required.
        need: usize,
    },
    /// Two shares carry the same index.
    DuplicateIndex(u64),
    /// A MAC or signature check failed during authenticated reconstruction.
    BadTag,
}

impl core::fmt::Display for ShareError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShareError::TooFewShares { got, need } => {
                write!(f, "too few shares: got {got}, need {need}")
            }
            ShareError::DuplicateIndex(i) => write!(f, "duplicate share index {i}"),
            ShareError::BadTag => write!(f, "share authentication failed"),
        }
    }
}

impl std::error::Error for ShareError {}

/// Splits `secret` into `n` additive shares that sum to it.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn additive_share<R: Rng + ?Sized>(secret: Fp, n: usize, rng: &mut R) -> Vec<Fp> {
    assert!(n > 0, "additive_share: need at least one share");
    let mut shares: Vec<Fp> = (0..n - 1).map(|_| random_fp(rng)).collect();
    let sum: Fp = shares.iter().copied().sum();
    shares.push(secret - sum);
    shares
}

/// Reconstructs an additive sharing (the sum of all shares).
pub fn additive_reconstruct(shares: &[Fp]) -> Fp {
    shares.iter().copied().sum()
}

/// Splits each element of `secret` into `n` additive shares; returns one
/// vector share per party.
pub fn additive_share_vec<R: Rng + ?Sized>(secret: &[Fp], n: usize, rng: &mut R) -> Vec<Vec<Fp>> {
    let mut out: Vec<Vec<Fp>> = (0..n).map(|_| Vec::with_capacity(secret.len())).collect();
    for &s in secret {
        for (p, sh) in additive_share(s, n, rng).into_iter().enumerate() {
            out[p].push(sh);
        }
    }
    out
}

/// Reconstructs a vector additive sharing.
///
/// # Panics
///
/// Panics if shares have inconsistent lengths.
pub fn additive_reconstruct_vec(shares: &[Vec<Fp>]) -> Vec<Fp> {
    assert!(!shares.is_empty(), "need at least one share");
    let len = shares[0].len();
    assert!(
        shares.iter().all(|s| s.len() == len),
        "inconsistent share lengths"
    );
    (0..len)
        .map(|i| shares.iter().map(|s| s[i]).sum())
        .collect()
}

/// A Shamir share: the evaluation point index (1-based) and the value.
///
/// The value is share material: `Debug` prints the public index but
/// redacts the evaluation, and equality is constant-time in the value
/// (fairlint rule S1).
#[derive(Clone, Copy)]
pub struct ShamirShare {
    /// 1-based party index (the evaluation point).
    pub index: u64,
    /// Polynomial evaluation at `index`.
    pub value: Fp,
}

impl core::fmt::Debug for ShamirShare {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShamirShare")
            .field("index", &self.index)
            .field("value", &"<redacted>")
            .finish()
    }
}

impl PartialEq for ShamirShare {
    fn eq(&self, other: &Self) -> bool {
        (self.index == other.index) & self.value.ct_eq(&other.value)
    }
}

impl Eq for ShamirShare {}

/// Shamir-shares `secret` among `n` parties with threshold `t`: any `t`
/// shares reconstruct, any `t − 1` reveal nothing.
///
/// # Panics
///
/// Panics unless `1 <= t <= n`.
pub fn shamir_share<R: Rng + ?Sized>(
    secret: Fp,
    t: usize,
    n: usize,
    rng: &mut R,
) -> Vec<ShamirShare> {
    assert!(t >= 1 && t <= n, "shamir_share: need 1 <= t <= n");
    let mut coeffs = vec![secret];
    for _ in 1..t {
        coeffs.push(random_fp(rng));
    }
    let poly = Poly::from_coeffs(coeffs);
    (1..=n as u64)
        .map(|i| ShamirShare {
            index: i,
            value: poly.eval(Fp::new(i)),
        })
        .collect()
}

/// Reconstructs a Shamir secret from at least `t` distinct shares.
///
/// # Errors
///
/// Returns [`ShareError::TooFewShares`] or [`ShareError::DuplicateIndex`].
pub fn shamir_reconstruct(shares: &[ShamirShare], t: usize) -> Result<Fp, ShareError> {
    if shares.len() < t {
        return Err(ShareError::TooFewShares {
            got: shares.len(),
            need: t,
        });
    }
    let subset = &shares[..t];
    for (i, a) in subset.iter().enumerate() {
        for b in &subset[i + 1..] {
            if a.index == b.index {
                return Err(ShareError::DuplicateIndex(a.index));
            }
        }
    }
    let pts: Vec<(Fp, Fp)> = subset.iter().map(|s| (Fp::new(s.index), s.value)).collect();
    Ok(Poly::interpolate_at(&pts, Fp::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn additive_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = Fp::new(424242);
        for n in 1..6 {
            let shares = additive_share(s, n, &mut rng);
            assert_eq!(shares.len(), n);
            assert_eq!(additive_reconstruct(&shares), s);
        }
    }

    #[test]
    fn additive_single_share_is_secret() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = Fp::new(7);
        assert_eq!(additive_share(s, 1, &mut rng), vec![s]);
    }

    #[test]
    fn additive_vec_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let secret: Vec<Fp> = (0..10u64).map(Fp::new).collect();
        let shares = additive_share_vec(&secret, 3, &mut rng);
        assert_eq!(additive_reconstruct_vec(&shares), secret);
    }

    #[test]
    fn shamir_roundtrip_any_t_subset() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = Fp::new(99999);
        let shares = shamir_share(s, 3, 5, &mut rng);
        // Every 3-subset reconstructs.
        for a in 0..5 {
            for b in a + 1..5 {
                for c in b + 1..5 {
                    let subset = [shares[a], shares[b], shares[c]];
                    assert_eq!(shamir_reconstruct(&subset, 3).unwrap(), s);
                }
            }
        }
    }

    #[test]
    fn shamir_too_few_shares_errors() {
        let mut rng = StdRng::seed_from_u64(4);
        let shares = shamir_share(Fp::new(1), 3, 5, &mut rng);
        let err = shamir_reconstruct(&shares[..2], 3).unwrap_err();
        assert_eq!(err, ShareError::TooFewShares { got: 2, need: 3 });
    }

    #[test]
    fn shamir_duplicate_index_errors() {
        let mut rng = StdRng::seed_from_u64(5);
        let shares = shamir_share(Fp::new(1), 2, 3, &mut rng);
        let dup = [shares[0], shares[0]];
        assert_eq!(
            shamir_reconstruct(&dup, 2).unwrap_err(),
            ShareError::DuplicateIndex(1)
        );
    }

    #[test]
    fn shamir_below_threshold_is_uniformish() {
        // With t=2, a single share value changes when the secret is re-shared
        // with different randomness (i.e. the share alone does not pin the
        // secret). Statistical smoke test, exact secrecy is by construction.
        let s = Fp::new(5);
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let shares = shamir_share(s, 2, 3, &mut rng);
            distinct.insert(shares[0].value.value());
        }
        assert!(distinct.len() > 40);
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(
            ShareError::TooFewShares { got: 1, need: 3 }.to_string(),
            "too few shares: got 1, need 3"
        );
        assert_eq!(
            ShareError::BadTag.to_string(),
            "share authentication failed"
        );
    }

    proptest! {
        #[test]
        fn prop_additive_roundtrip(v in 0u64..u64::MAX, n in 1usize..8, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = Fp::new(v);
            prop_assert_eq!(additive_reconstruct(&additive_share(s, n, &mut rng)), s);
        }

        #[test]
        fn prop_shamir_roundtrip(v in 0u64..u64::MAX, t in 1usize..5, extra in 0usize..4, seed: u64) {
            let n = t + extra;
            let mut rng = StdRng::seed_from_u64(seed);
            let s = Fp::new(v);
            let shares = shamir_share(s, t, n, &mut rng);
            prop_assert_eq!(shamir_reconstruct(&shares, t).unwrap(), s);
        }

    }
}
