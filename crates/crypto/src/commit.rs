//! Non-interactive hash commitments.
//!
//! `commit(m; r) = SHA-256(tuple(r, m))` with a 32-byte random opening value
//! `r`. Binding follows from collision resistance, hiding from modeling the
//! tuple hash as a random oracle on the high-entropy `r`. These are the
//! commitments used by the contract-signing protocols Π1/Π2 in the paper's
//! introduction and by the coin-toss subprotocol.

use rand::Rng;

use crate::ct::CtEq;
use crate::prg::random_bytes;
use crate::sha256::{sha256_parts, Digest, DIGEST_LEN};

/// Byte length of the commitment randomness.
pub const OPENING_LEN: usize = 32;

/// A commitment string (a SHA-256 digest).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Commitment(pub Digest);

impl Commitment {
    /// Encoded size: the digest bytes.
    pub const WIRE_LEN: usize = DIGEST_LEN;
}

/// The opening of a commitment: the committed message and the randomness.
///
/// Until the opening phase this is secret material — a leaked `r` lets the
/// counterparty brute-force low-entropy messages — so `Debug` is redacted
/// and equality is constant-time (fairlint rule S1).
#[derive(Clone)]
pub struct Opening {
    /// The committed message.
    pub message: Vec<u8>,
    /// The commitment randomness.
    pub randomness: Vec<u8>,
}

impl core::fmt::Debug for Opening {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Opening")
            .field("message", &"<redacted>")
            .field("randomness", &"<redacted>")
            .finish()
    }
}

impl PartialEq for Opening {
    fn eq(&self, other: &Self) -> bool {
        self.message.ct_eq(&other.message) & self.randomness.ct_eq(&other.randomness)
    }
}

impl Eq for Opening {}

impl Opening {
    /// Recomputes the commitment this opening corresponds to.
    pub fn commitment(&self) -> Commitment {
        Commitment(sha256_parts(&[&self.randomness, &self.message]))
    }

    /// Encoded size: the message, then the randomness, each as a byte
    /// string behind a 4-byte length prefix.
    pub fn wire_len(&self) -> usize {
        8 + self.message.len() + self.randomness.len()
    }
}

/// Commits to `message` with fresh randomness from `rng`.
///
/// # Examples
///
/// ```
/// use rand::{SeedableRng, rngs::StdRng};
/// use fair_crypto::commit::{commit, verify};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let (c, o) = commit(b"signed contract", &mut rng);
/// assert!(verify(&c, &o));
/// ```
pub fn commit<R: Rng + ?Sized>(message: &[u8], rng: &mut R) -> (Commitment, Opening) {
    let randomness = random_bytes(rng, OPENING_LEN);
    let opening = Opening {
        message: message.to_vec(),
        randomness,
    };
    (opening.commitment(), opening)
}

/// Verifies that `opening` opens `commitment`, comparing digests in
/// constant time.
pub fn verify(commitment: &Commitment, opening: &Opening) -> bool {
    opening.commitment().0.ct_eq(&commitment.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn commit_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let (c, o) = commit(b"hello", &mut rng);
        assert!(verify(&c, &o));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let (c, mut o) = commit(b"hello", &mut rng);
        o.message = b"olleh".to_vec();
        assert!(!verify(&c, &o));
    }

    #[test]
    fn wrong_randomness_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let (c, mut o) = commit(b"hello", &mut rng);
        o.randomness[0] ^= 1;
        assert!(!verify(&c, &o));
    }

    #[test]
    fn commitments_are_hiding_across_randomness() {
        // Same message, different randomness -> different commitment strings.
        let mut rng = StdRng::seed_from_u64(0);
        let (c1, _) = commit(b"msg", &mut rng);
        let (c2, _) = commit(b"msg", &mut rng);
        assert_ne!(c1, c2);
    }

    #[test]
    fn distinct_messages_distinct_commitments_under_same_randomness() {
        // Binding sanity check: crafting two openings with equal randomness
        // but different messages yields different digests.
        let o1 = Opening {
            message: b"a".to_vec(),
            randomness: vec![7; OPENING_LEN],
        };
        let o2 = Opening {
            message: b"b".to_vec(),
            randomness: vec![7; OPENING_LEN],
        };
        assert_ne!(o1.commitment(), o2.commitment());
    }

    #[test]
    fn wire_sizes_follow_the_encoding() {
        let mut rng = StdRng::seed_from_u64(5);
        for msg in [&b""[..], b"signed contract", &[0xab; 300]] {
            let (c, o) = commit(msg, &mut rng);
            assert_eq!(Commitment::WIRE_LEN, c.0.len());
            assert_eq!(o.wire_len(), 4 + msg.len() + 4 + OPENING_LEN);
        }
    }

    #[test]
    fn empty_message_commits_fine() {
        let mut rng = StdRng::seed_from_u64(3);
        let (c, o) = commit(b"", &mut rng);
        assert!(verify(&c, &o));
        assert!(o.message.is_empty());
    }
}
