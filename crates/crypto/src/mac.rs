//! Information-theoretic one-time MAC over GF(2^61 − 1).
//!
//! The authenticated secret sharing of the paper (Appendix A) needs a MAC
//! `tag(x, k)` whose unforgeability does not rest on computational
//! assumptions, so that the share-verification error is a crisp, analyzable
//! quantity. We use the standard polynomial-evaluation MAC: a key is a pair
//! `(a, b)` of field elements and the tag of a message `m = (m_1, …, m_ℓ)`
//! (packed into field elements) is `b + Σ_i a^i · m_i`. A forger who never
//! saw a tag under the key succeeds with probability 1/p; one who saw one
//! tag succeeds with probability ≤ ℓ/p ≤ 2^{−50} for every message length
//! used in this workspace.

use fair_field::Fp;
use rand::Rng;

use crate::ct::CtEq;
use crate::prg::random_fp;

/// A one-time MAC key `(a, b)`.
///
/// Key material: `Debug` is redacted and equality is constant-time (no
/// derived `PartialEq`/`Debug` — fairlint rule S1).
#[derive(Clone, Copy)]
pub struct MacKey {
    a: Fp,
    b: Fp,
}

impl core::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("MacKey(<redacted>)")
    }
}

impl PartialEq for MacKey {
    fn eq(&self, other: &Self) -> bool {
        self.a.ct_eq(&other.a) & self.b.ct_eq(&other.b)
    }
}

impl Eq for MacKey {}

impl CtEq for MacKey {
    fn ct_eq(&self, other: &Self) -> bool {
        self == other
    }
}

/// A MAC tag (a single field element).
///
/// Authenticator material: `Debug` is redacted and equality is
/// constant-time, so tag verification cannot leak a mismatch position.
#[derive(Clone, Copy)]
pub struct MacTag(pub Fp);

impl core::fmt::Debug for MacTag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("MacTag(<redacted>)")
    }
}

impl PartialEq for MacTag {
    fn eq(&self, other: &Self) -> bool {
        self.0.ct_eq(&other.0)
    }
}

impl Eq for MacTag {}

impl MacTag {
    /// Encoded size: one big-endian field element.
    pub const WIRE_LEN: usize = 8;

    /// Serializes the tag ([`MacTag::WIRE_LEN`] bytes).
    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        self.0.value().to_be_bytes()
    }
}

impl CtEq for MacTag {
    fn ct_eq(&self, other: &Self) -> bool {
        self == other
    }
}

impl MacKey {
    /// Encoded size: two big-endian field elements.
    pub const WIRE_LEN: usize = 16;

    /// Samples a fresh key.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> MacKey {
        MacKey {
            a: random_fp(rng),
            b: random_fp(rng),
        }
    }

    /// Tags a message given as field elements.
    pub fn tag_elems(&self, msg: &[Fp]) -> MacTag {
        let mut acc = self.b;
        let mut pow = self.a;
        for &m in msg {
            acc += pow * m;
            pow *= self.a;
        }
        MacTag(acc)
    }

    /// Verifies a tag on a field-element message in constant time (the
    /// comparison never reveals where a forged tag diverges).
    pub fn verify_elems(&self, msg: &[Fp], tag: &MacTag) -> bool {
        self.tag_elems(msg).ct_eq(tag)
    }
}

/// Packs a byte string into field elements: element 0 is the length, then
/// 7 bytes per element (each < 2^56 < p).
pub fn pack_bytes(msg: &[u8]) -> Vec<Fp> {
    let mut out = Vec::with_capacity(1 + msg.len().div_ceil(7));
    out.push(Fp::new(msg.len() as u64));
    for chunk in msg.chunks(7) {
        let mut v = 0u64;
        for &b in chunk {
            v = (v << 8) | b as u64;
        }
        out.push(Fp::new(v));
    }
    out
}

/// Inverse of [`pack_bytes`]; `None` if the elements are not a valid
/// packing.
pub fn unpack_bytes(elems: &[Fp]) -> Option<Vec<u8>> {
    let (&len_elem, chunks) = elems.split_first()?;
    let len = len_elem.value() as usize;
    if chunks.len() != len.div_ceil(7) {
        return None;
    }
    let mut out = Vec::with_capacity(len);
    for (i, &c) in chunks.iter().enumerate() {
        let chunk_len = if (i + 1) * 7 <= len { 7 } else { len - i * 7 };
        let v = c.value();
        if chunk_len < 7 && v >> (8 * chunk_len) != 0 {
            return None; // non-canonical high bits
        }
        for j in (0..chunk_len).rev() {
            out.push(((v >> (8 * j)) & 0xff) as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tag_verify_roundtrip_elems() {
        let mut rng = StdRng::seed_from_u64(0);
        let k = MacKey::random(&mut rng);
        let msg = vec![Fp::new(5), Fp::new(0), Fp::new(123456)];
        let t = k.tag_elems(&msg);
        assert!(k.verify_elems(&msg, &t));
    }

    #[test]
    fn modified_message_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let k = MacKey::random(&mut rng);
        let msg = vec![Fp::new(5), Fp::new(6)];
        let t = k.tag_elems(&msg);
        let forged = vec![Fp::new(5), Fp::new(7)];
        assert!(!k.verify_elems(&forged, &t));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let k1 = MacKey::random(&mut rng);
        let k2 = MacKey::random(&mut rng);
        let msg = vec![Fp::new(9)];
        let t = k1.tag_elems(&msg);
        assert!(!k2.verify_elems(&msg, &t));
    }

    #[test]
    fn byte_packing_binds_length() {
        // "ab" and "ab\0" must pack differently even though the trailing
        // zero would vanish in a naive packing.
        assert_ne!(pack_bytes(b"ab"), pack_bytes(b"ab\0"));
        assert_ne!(pack_bytes(b""), pack_bytes(b"\0"));
    }

    #[test]
    fn empty_message_tag_is_b() {
        let mut rng = StdRng::seed_from_u64(4);
        let k = MacKey::random(&mut rng);
        let t = k.tag_elems(&[]);
        assert_eq!(t.0, k.b);
    }

    #[test]
    fn unpack_inverts_pack() {
        for msg in [
            &b""[..],
            b"a",
            b"1234567",
            b"12345678",
            b"arbitrary longer payload!",
        ] {
            assert_eq!(unpack_bytes(&pack_bytes(msg)).as_deref(), Some(msg));
        }
    }

    #[test]
    fn unpack_rejects_malformed() {
        assert!(unpack_bytes(&[]).is_none());
        // Length claims 7 bytes but no chunk follows.
        assert!(unpack_bytes(&[Fp::new(7)]).is_none());
        // Non-canonical high bits in a short final chunk.
        assert!(unpack_bytes(&[Fp::new(1), Fp::new(0x1_00)]).is_none());
    }

    proptest! {
        #[test]
        fn prop_pack_unpack_roundtrip(msg in proptest::collection::vec(any::<u8>(), 0..64)) {
            let unpacked = unpack_bytes(&pack_bytes(&msg));
            prop_assert_eq!(unpacked, Some(msg));
        }

        #[test]
        fn prop_distinct_messages_distinct_packing(
            a in proptest::collection::vec(any::<u8>(), 0..32),
            b in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            prop_assume!(a != b);
            prop_assert_ne!(pack_bytes(&a), pack_bytes(&b));
        }
    }
}
