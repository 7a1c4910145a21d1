//! A counter-mode pseudorandom generator built on HMAC-SHA256, plus helpers
//! for sampling field elements.
//!
//! Every protocol execution in this workspace is driven by seeded
//! randomness; `Prg` is the expansion primitive (e.g. for deriving per-party
//! sub-seeds and one-time pads), while sampling helpers draw uniform field
//! elements from any [`rand::Rng`].

use fair_field::{Fp, MODULUS};
use rand::Rng;

use crate::hmac::hmac_sha256;

/// Deterministic byte stream: block i is `HMAC-SHA256(seed, i)`.
///
/// # Examples
///
/// ```
/// use fair_crypto::prg::Prg;
///
/// let mut p1 = Prg::new(b"seed");
/// let mut p2 = Prg::new(b"seed");
/// assert_eq!(p1.next_bytes(40), p2.next_bytes(40));
/// ```
#[derive(Clone)]
pub struct Prg {
    seed: Vec<u8>,
    counter: u64,
    buf: Vec<u8>,
}

// The seed (and the buffered output derived from it) is key material; only
// the public counter position is printable (fairlint rule S1).
impl core::fmt::Debug for Prg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Prg")
            .field("seed", &"<redacted>")
            .field("counter", &self.counter)
            .finish()
    }
}

impl Prg {
    /// Creates a PRG from an arbitrary-length seed.
    pub fn new(seed: &[u8]) -> Prg {
        Prg {
            seed: seed.to_vec(),
            counter: 0,
            buf: Vec::new(),
        }
    }

    fn refill(&mut self) {
        let block = hmac_sha256(&self.seed, &self.counter.to_be_bytes());
        self.counter += 1;
        self.buf.extend_from_slice(&block);
    }

    /// Produces the next `n` bytes of the stream.
    pub fn next_bytes(&mut self, n: usize) -> Vec<u8> {
        while self.buf.len() < n {
            self.refill();
        }
        let rest = self.buf.split_off(n);
        core::mem::replace(&mut self.buf, rest)
    }

    /// Produces the next `u64` of the stream (big-endian).
    pub fn next_u64(&mut self) -> u64 {
        let b = self.next_bytes(8);
        u64::from_be_bytes(b.try_into().expect("8 bytes"))
    }
}

/// Samples a uniform element of GF(2^61 − 1) from an external RNG by
/// rejection (rejection probability 2^{−61} per draw).
pub fn random_fp<R: Rng + ?Sized>(rng: &mut R) -> Fp {
    loop {
        let x = rng.next_u64() & MODULUS;
        if x < MODULUS {
            return Fp::new(x);
        }
    }
}

/// Samples `n` uniform bytes.
pub fn random_bytes<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<u8> {
    let mut out = vec![0u8; n];
    rng.fill_bytes(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prg_is_deterministic_and_seed_separated() {
        let a: Vec<u8> = Prg::new(b"alpha").next_bytes(96);
        let b: Vec<u8> = Prg::new(b"alpha").next_bytes(96);
        let c: Vec<u8> = Prg::new(b"beta").next_bytes(96);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prg_chunking_is_stream_consistent() {
        let mut p = Prg::new(b"s");
        let mut got = p.next_bytes(10);
        got.extend(p.next_bytes(55));
        got.extend(p.next_bytes(3));
        let all = Prg::new(b"s").next_bytes(68);
        assert_eq!(got, all);
    }

    #[test]
    fn prg_u64_consumes_eight_bytes() {
        let mut p = Prg::new(b"s");
        let x = p.next_u64();
        let mut q = Prg::new(b"s");
        let b = q.next_bytes(8);
        assert_eq!(x, u64::from_be_bytes(b.try_into().unwrap()));
    }

    #[test]
    fn field_sampling_is_in_range_and_spread() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen_high = false;
        for _ in 0..1000 {
            let x = random_fp(&mut rng);
            assert!(x.value() < MODULUS);
            if x.value() > MODULUS / 2 {
                seen_high = true;
            }
        }
        assert!(seen_high, "sampler never produced a high element");
    }
}
