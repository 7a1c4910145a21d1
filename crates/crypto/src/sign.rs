//! Lamport one-time signatures over SHA-256.
//!
//! The multi-party protocol Π^Opt_nSFE (paper, Appendix B) has the hybrid
//! functionality sign the designated output `(y, σ)` so that in the
//! broadcast phase no coalition can announce a forged output. One signature
//! per execution is exactly the one-time setting Lamport signatures are made
//! for, and they are existentially unforgeable assuming only the preimage
//! resistance of SHA-256 — no number theory required.
//!
//! Messages of arbitrary length are first hashed to 256 bits; the signature
//! reveals one of two 32-byte preimages per message-hash bit.

use rand::Rng;

use crate::ct::{ct_eq_bytes, CtEq};
use crate::sha256::{sha256, sha256_parts, Digest, DIGEST_LEN};

const BITS: usize = 256;

fn ct_eq_digest_pairs(a: &[[Digest; 2]], b: &[[Digest; 2]]) -> bool {
    let mut ok = a.len() == b.len();
    for (x, y) in a.iter().zip(b.iter()) {
        ok &= x[0].ct_eq(&y[0]) & x[1].ct_eq(&y[1]);
    }
    ok
}

/// A Lamport signing key: 2×256 random 32-byte preimages.
///
/// Secret key material: `Debug` is redacted and equality is constant-time
/// (fairlint rule S1).
#[derive(Clone)]
pub struct SigningKey {
    secrets: Vec<[Digest; 2]>, // BITS entries
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("SigningKey(<redacted>)")
    }
}

impl PartialEq for SigningKey {
    fn eq(&self, other: &Self) -> bool {
        ct_eq_digest_pairs(&self.secrets, &other.secrets)
    }
}

impl Eq for SigningKey {}

/// A Lamport verification key: the hashes of the signing-key preimages.
///
/// Public material, but compared in constant time anyway so key checks
/// are uniform with the rest of the crate.
#[derive(Clone)]
pub struct VerifyingKey {
    hashes: Vec<[Digest; 2]>, // BITS entries
}

impl core::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "VerifyingKey({} bit positions)", self.hashes.len())
    }
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &Self) -> bool {
        ct_eq_digest_pairs(&self.hashes, &other.hashes)
    }
}

impl Eq for VerifyingKey {}

/// A Lamport signature: one revealed preimage per message-hash bit.
///
/// The reveals are spent one-time secrets; equality is constant-time and
/// `Debug` is redacted.
#[derive(Clone)]
pub struct Signature {
    reveals: Vec<Digest>, // BITS entries
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Signature(<redacted>)")
    }
}

impl PartialEq for Signature {
    fn eq(&self, other: &Self) -> bool {
        let mut ok = self.reveals.len() == other.reveals.len();
        for (x, y) in self.reveals.iter().zip(other.reveals.iter()) {
            ok &= x.ct_eq(y);
        }
        ok
    }
}

impl Eq for Signature {}

impl VerifyingKey {
    /// Serializes the key (2 × 256 × 32 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(BITS * 64);
        for pair in &self.hashes {
            out.extend_from_slice(&pair[0]);
            out.extend_from_slice(&pair[1]);
        }
        out
    }

    /// Encoded size: `to_bytes().len()`, computed without building it.
    pub fn wire_len(&self) -> usize {
        self.hashes.len() * 2 * DIGEST_LEN
    }

    /// Parses a serialized key; `None` on wrong length.
    pub fn from_bytes(bytes: &[u8]) -> Option<VerifyingKey> {
        if bytes.len() != BITS * 64 {
            return None;
        }
        let mut hashes = Vec::with_capacity(BITS);
        for chunk in bytes.chunks(64) {
            let h0: Digest = chunk[..32].try_into().ok()?;
            let h1: Digest = chunk[32..].try_into().ok()?;
            hashes.push([h0, h1]);
        }
        Some(VerifyingKey { hashes })
    }
}

impl Signature {
    /// Serializes the signature (256 × 32 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(BITS * 32);
        for r in &self.reveals {
            out.extend_from_slice(r);
        }
        out
    }

    /// Encoded size: `to_bytes().len()`, computed without building it.
    pub fn wire_len(&self) -> usize {
        self.reveals.len() * DIGEST_LEN
    }

    /// Parses a serialized signature; `None` on wrong length.
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        if bytes.len() != BITS * 32 {
            return None;
        }
        let reveals = bytes
            .chunks(32)
            .map(|c| c.try_into().expect("32-byte chunk"))
            .collect();
        Some(Signature { reveals })
    }
}

/// Generates a fresh one-time key pair.
pub fn keygen<R: Rng + ?Sized>(rng: &mut R) -> (SigningKey, VerifyingKey) {
    // One draw for the whole 16 KiB table, in the order (bit 0: s0, s1),
    // (bit 1: s0, s1), … — the same bytes 512 separate 32-byte draws give.
    let mut secrets = vec![[[0u8; DIGEST_LEN]; 2]; BITS];
    rng.fill_bytes(secrets.as_flattened_mut().as_flattened_mut());
    let hashes = secrets
        .iter()
        .map(|[s0, s1]| [sha256(s0), sha256(s1)])
        .collect();
    (SigningKey { secrets }, VerifyingKey { hashes })
}

/// The bits of the domain-separated message hash, most significant first,
/// as indices 0/1 into a key's preimage pairs.
fn message_bits(message: &[u8]) -> impl Iterator<Item = usize> {
    let d = sha256_parts(&[b"fair-protocols/lamport", message]);
    (0..BITS).map(move |i| usize::from((d[i / 8] >> (7 - i % 8)) & 1))
}

/// Signs `message` with the one-time key.
///
/// Signing two different messages with the same key leaks it — callers in
/// this workspace sign exactly once per generated key, as the paper's
/// functionality does.
pub fn sign(key: &SigningKey, message: &[u8]) -> Signature {
    let reveals = key
        .secrets
        .iter()
        .zip(message_bits(message))
        .map(|(pair, b)| pair[b])
        .collect();
    Signature { reveals }
}

/// Verifies `signature` on `message` under `key`.
///
/// Every bit position is checked unconditionally — the loop never exits
/// early on the first bad preimage, so verification time does not reveal
/// which reveal a forger got wrong.
pub fn verify(key: &VerifyingKey, message: &[u8], signature: &Signature) -> bool {
    if signature.reveals.len() != BITS {
        return false;
    }
    let mut ok = true;
    for ((reveal, pair), b) in signature
        .reveals
        .iter()
        .zip(&key.hashes)
        .zip(message_bits(message))
    {
        ok &= ct_eq_bytes(&sha256(reveal), &pair[b]);
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(10);
        let (sk, vk) = keygen(&mut rng);
        let sig = sign(&sk, b"the output y");
        assert!(verify(&vk, b"the output y", &sig));
    }

    #[test]
    fn signature_does_not_transfer_to_other_message() {
        let mut rng = StdRng::seed_from_u64(11);
        let (sk, vk) = keygen(&mut rng);
        let sig = sign(&sk, b"message one");
        assert!(!verify(&vk, b"message two", &sig));
    }

    #[test]
    fn signature_fails_under_other_key() {
        let mut rng = StdRng::seed_from_u64(12);
        let (sk, _) = keygen(&mut rng);
        let (_, vk2) = keygen(&mut rng);
        let sig = sign(&sk, b"msg");
        assert!(!verify(&vk2, b"msg", &sig));
    }

    #[test]
    fn tampered_reveal_rejected() {
        let mut rng = StdRng::seed_from_u64(13);
        let (sk, vk) = keygen(&mut rng);
        let mut sig = sign(&sk, b"msg");
        sig.reveals[17][0] ^= 1;
        assert!(!verify(&vk, b"msg", &sig));
    }

    #[test]
    fn truncated_signature_rejected() {
        let mut rng = StdRng::seed_from_u64(14);
        let (sk, vk) = keygen(&mut rng);
        let mut sig = sign(&sk, b"msg");
        sig.reveals.pop();
        assert!(!verify(&vk, b"msg", &sig));
    }

    #[test]
    fn serialization_roundtrips() {
        let mut rng = StdRng::seed_from_u64(16);
        let (sk, vk) = keygen(&mut rng);
        let sig = sign(&sk, b"payload");
        let vk2 = VerifyingKey::from_bytes(&vk.to_bytes()).expect("roundtrip");
        let sig2 = Signature::from_bytes(&sig.to_bytes()).expect("roundtrip");
        assert_eq!(vk, vk2);
        assert_eq!(sig, sig2);
        assert!(verify(&vk2, b"payload", &sig2));
    }

    #[test]
    fn wire_sizes_match_serializations() {
        let mut rng = StdRng::seed_from_u64(17);
        let (sk, vk) = keygen(&mut rng);
        let sig = sign(&sk, b"payload");
        assert_eq!(vk.wire_len(), vk.to_bytes().len());
        assert_eq!(sig.wire_len(), sig.to_bytes().len());
        assert_eq!(vk.wire_len(), 16_384);
        assert_eq!(sig.wire_len(), 8_192);
    }

    #[test]
    fn deserialization_rejects_bad_lengths() {
        assert!(VerifyingKey::from_bytes(&[0u8; 10]).is_none());
        assert!(Signature::from_bytes(&[0u8; 10]).is_none());
        assert!(Signature::from_bytes(&[]).is_none());
    }

    #[test]
    fn empty_message_signs_fine() {
        let mut rng = StdRng::seed_from_u64(15);
        let (sk, vk) = keygen(&mut rng);
        let sig = sign(&sk, b"");
        assert!(verify(&vk, b"", &sig));
        assert!(!verify(&vk, b"x", &sig));
    }
}
