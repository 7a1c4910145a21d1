//! Authenticated two-out-of-two additive secret sharing — the concrete
//! instantiation from Appendix A of the paper.
//!
//! A sharing of a secret `s` (a vector of field elements) is a pair
//! `(s₁, s₂)` of random vectors with `s₁ + s₂ = (s, tag(s, k₁), tag(s, k₂))`,
//! where `k₁, k₂` are one-time MAC keys associated with parties p₁ and p₂.
//! Party `pᵢ` holds the *share* `⟨s⟩ᵢ = (sᵢ, tag(sᵢ, k₍¬ᵢ₎))` together with
//! its own key `kᵢ`. To reconstruct towards `pᵢ`, party `p₍¬ᵢ₎` sends its
//! share; `pᵢ` verifies the summand tag under `kᵢ`, adds the summands,
//! parses the result as `(s, t₁, t₂)` and finally verifies `tᵢ` on `s`.
//!
//! Any manipulation of the transmitted summand is caught with probability
//! `1 − ℓ/p`, which is what lets the protocols in `fair-protocols` treat
//! "invalid share" and "abort" as the only adversarial options in the
//! reconstruction phase — exactly the dichotomy the paper's Theorem 3 proof
//! relies on.

use fair_field::Fp;
use rand::Rng;

use crate::ct::CtEq;
use crate::mac::{MacKey, MacTag};
use crate::share::{additive_share_vec, ShareError};

/// The share held by one party: a summand and a tag on that summand under
/// the *other* party's key (so the other party can verify it on receipt).
///
/// Share material: `Debug` is redacted and equality is constant-time
/// (fairlint rule S1).
#[derive(Clone)]
pub struct AuthShare {
    /// This party's additive summand of the authenticated payload.
    pub summand: Vec<Fp>,
    /// MAC tag on `summand` under the counterparty's key.
    pub summand_tag: MacTag,
}

impl core::fmt::Debug for AuthShare {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AuthShare")
            .field(
                "summand",
                &format_args!("<{} elems redacted>", self.summand.len()),
            )
            .field("summand_tag", &self.summand_tag)
            .finish()
    }
}

impl PartialEq for AuthShare {
    fn eq(&self, other: &Self) -> bool {
        self.summand.ct_eq(&other.summand) & self.summand_tag.ct_eq(&other.summand_tag)
    }
}

impl Eq for AuthShare {}

/// Everything a party holds after dealing: its share plus its MAC key.
///
/// Contains key material; `Debug` is redacted and equality constant-time.
#[derive(Clone)]
pub struct AuthShareHolding {
    /// The transferable share.
    pub share: AuthShare,
    /// The party's own verification key `kᵢ`.
    pub key: MacKey,
}

impl core::fmt::Debug for AuthShareHolding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AuthShareHolding")
            .field("share", &self.share)
            .field("key", &self.key)
            .finish()
    }
}

impl PartialEq for AuthShareHolding {
    fn eq(&self, other: &Self) -> bool {
        (self.share == other.share) & (self.key == other.key)
    }
}

impl Eq for AuthShareHolding {}

/// Deals an authenticated 2-of-2 sharing of `secret`; returns the holdings
/// of p₁ and p₂.
pub fn deal<R: Rng + ?Sized>(secret: &[Fp], rng: &mut R) -> (AuthShareHolding, AuthShareHolding) {
    let k1 = MacKey::random(rng);
    let k2 = MacKey::random(rng);
    // Authenticated payload: (s, tag(s,k1), tag(s,k2)).
    let mut payload = secret.to_vec();
    payload.push(k1.tag_elems(secret).0);
    payload.push(k2.tag_elems(secret).0);
    let [s1, s2]: [Vec<Fp>; 2] = additive_share_vec(&payload, 2, rng)
        .try_into()
        .expect("two summand vectors");
    let h1 = AuthShareHolding {
        share: AuthShare {
            summand_tag: k2.tag_elems(&s1),
            summand: s1,
        },
        key: k1,
    };
    let h2 = AuthShareHolding {
        share: AuthShare {
            summand_tag: k1.tag_elems(&s2),
            summand: s2,
        },
        key: k2,
    };
    (h1, h2)
}

impl AuthShare {
    /// Serializes the share: `[count u64][summand elems…][tag]`, all
    /// big-endian u64s.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * (self.summand.len() + 2));
        out.extend_from_slice(&(self.summand.len() as u64).to_be_bytes());
        for s in &self.summand {
            out.extend_from_slice(&s.value().to_be_bytes());
        }
        out.extend_from_slice(&self.summand_tag.to_bytes());
        out
    }

    /// Encoded size: `to_bytes().len()`, computed without building it.
    pub fn wire_len(&self) -> usize {
        8 * (1 + self.summand.len()) + MacTag::WIRE_LEN
    }
}

impl AuthShareHolding {
    /// Encoded size: the share's encoding followed by the 16-byte MAC key.
    pub fn wire_len(&self) -> usize {
        self.share.wire_len() + MacKey::WIRE_LEN
    }
}

/// Index of the tag belonging to party `i` (1-based) inside the payload.
fn tag_position(payload_len: usize, party: usize) -> usize {
    debug_assert!(party == 1 || party == 2);
    payload_len - 2 + (party - 1)
}

/// Reconstructs the secret towards the holder of `own` (party `party` ∈
/// {1, 2}), given the counterparty's transmitted share.
///
/// # Errors
///
/// Returns [`ShareError::BadTag`] if either the transmitted summand's tag or
/// the reconstructed secret's tag fails to verify — which, per the paper,
/// the honest party treats as the counterparty aborting.
///
/// # Panics
///
/// Panics if `party` is not 1 or 2.
pub fn reconstruct(
    party: usize,
    own: &AuthShareHolding,
    incoming: &AuthShare,
) -> Result<Vec<Fp>, ShareError> {
    assert!(party == 1 || party == 2, "party must be 1 or 2");
    // Verify the counterparty's summand under our key.
    if !own
        .key
        .verify_elems(&incoming.summand, &incoming.summand_tag)
    {
        return Err(ShareError::BadTag);
    }
    if incoming.summand.len() != own.share.summand.len() || own.share.summand.len() < 2 {
        return Err(ShareError::BadTag);
    }
    let payload: Vec<Fp> = own
        .share
        .summand
        .iter()
        .zip(&incoming.summand)
        .map(|(&a, &b)| a + b)
        .collect();
    let n = payload.len();
    let secret = payload[..n - 2].to_vec();
    let own_tag = MacTag(payload[tag_position(n, party)]);
    if !own.key.verify_elems(&secret, &own_tag) {
        return Err(ShareError::BadTag);
    }
    Ok(secret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn secret() -> Vec<Fp> {
        vec![Fp::new(31337), Fp::new(0), Fp::new(u64::MAX / 3)]
    }

    #[test]
    fn reconstructs_towards_both_parties() {
        let mut rng = StdRng::seed_from_u64(0);
        let (h1, h2) = deal(&secret(), &mut rng);
        assert_eq!(reconstruct(1, &h1, &h2.share).unwrap(), secret());
        assert_eq!(reconstruct(2, &h2, &h1.share).unwrap(), secret());
    }

    #[test]
    fn single_share_reveals_nothing_statistically() {
        // Re-dealing the same secret yields fresh-looking summands.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (h1, _) = deal(&secret(), &mut rng);
            seen.insert(h1.share.summand[0].value());
        }
        assert!(seen.len() > 25);
    }

    #[test]
    fn tampered_summand_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let (h1, h2) = deal(&secret(), &mut rng);
        let mut bad = h2.share.clone();
        bad.summand[0] += Fp::ONE;
        assert_eq!(reconstruct(1, &h1, &bad), Err(ShareError::BadTag));
    }

    #[test]
    fn tampered_tag_is_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let (h1, h2) = deal(&secret(), &mut rng);
        let mut bad = h2.share.clone();
        bad.summand_tag = MacTag(bad.summand_tag.0 + Fp::ONE);
        assert_eq!(reconstruct(1, &h1, &bad), Err(ShareError::BadTag));
    }

    #[test]
    fn share_from_different_dealing_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let (h1, _) = deal(&secret(), &mut rng);
        let (_, other2) = deal(&secret(), &mut rng);
        assert_eq!(reconstruct(1, &h1, &other2.share), Err(ShareError::BadTag));
    }

    #[test]
    fn wrong_length_share_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let (h1, h2) = deal(&secret(), &mut rng);
        let mut bad = h2.share.clone();
        bad.summand.pop();
        assert_eq!(reconstruct(1, &h1, &bad), Err(ShareError::BadTag));
    }

    #[test]
    fn wire_sizes_match_serializations() {
        for (seed, len) in [(7u64, 0usize), (8, 1), (9, 5)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let s: Vec<Fp> = (0..len as u64).map(Fp::new).collect();
            let (h1, h2) = deal(&s, &mut rng);
            for h in [&h1, &h2] {
                assert_eq!(h.share.wire_len(), h.share.to_bytes().len());
                assert_eq!(MacTag::WIRE_LEN, h.share.summand_tag.to_bytes().len());
                // The key's two field elements, 8 bytes each.
                assert_eq!(h.wire_len(), h.share.to_bytes().len() + 2 * 8);
            }
        }
    }

    #[test]
    fn empty_secret_roundtrips() {
        let mut rng = StdRng::seed_from_u64(5);
        let (h1, h2) = deal(&[], &mut rng);
        assert_eq!(reconstruct(1, &h1, &h2.share).unwrap(), Vec::<Fp>::new());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(vals in proptest::collection::vec(0u64..u64::MAX, 0..8), seed: u64) {
            let s: Vec<Fp> = vals.iter().map(|&v| Fp::new(v)).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let (h1, h2) = deal(&s, &mut rng);
            prop_assert_eq!(reconstruct(1, &h1, &h2.share).unwrap(), s.clone());
            prop_assert_eq!(reconstruct(2, &h2, &h1.share).unwrap(), s);
        }

        #[test]
        fn prop_random_forgery_fails(vals in proptest::collection::vec(0u64..u64::MAX, 1..4),
                                     forged in proptest::collection::vec(0u64..u64::MAX, 3..6),
                                     tag in 0u64..u64::MAX,
                                     seed: u64) {
            let s: Vec<Fp> = vals.iter().map(|&v| Fp::new(v)).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let (h1, h2) = deal(&s, &mut rng);
            let candidate = AuthShare {
                summand: forged.iter().map(|&v| Fp::new(v)).collect(),
                summand_tag: MacTag(Fp::new(tag)),
            };
            prop_assume!(candidate != h2.share);
            prop_assert_eq!(reconstruct(1, &h1, &candidate), Err(ShareError::BadTag));
        }
    }
}
