//! SHA-256, implemented from scratch per FIPS 180-4.
//!
//! This is the workhorse hash for the whole workspace: commitments, HMAC,
//! the counter-mode PRG, and Lamport signatures are all built on it. The
//! implementation is an allocation-free streaming compressor validated
//! against the FIPS/NIST test vectors in the unit tests. Each block is
//! compressed with the x86_64 SHA extensions when the CPU has them (the
//! private `shani` module, checked at run time) and by the portable rounds
//! below otherwise; both give the same bits. [`sha256_32_many`] hashes a
//! batch of 32-byte inputs (Lamport preimages) sixteen at a time with the
//! module's AVX-512 kernel where the CPU has it.

use std::cell::Cell;

#[allow(unsafe_code)]
mod shani;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 context.
///
/// # Examples
///
/// ```
/// use fair_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let d = h.finalize();
/// assert_eq!(d[0], 0xba);
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hashing context.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the hash and returns the digest, consuming the context.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80, zero-fill, and put the 64-bit length in the last 8
        // bytes — of this block, or of one more if it does not fit.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        state_bytes(&self.state)
    }
}

fn state_bytes(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, w) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
    }
    out
}

thread_local! {
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of 64-byte blocks this thread has compressed so far.
///
/// An exact, deterministic work counter: hashing `n` bytes costs
/// `(n + 9).div_ceil(64)` blocks, so the difference across a call counts
/// the SHA-256 work a layer did, independent of timing noise. It never
/// feeds a protocol, an estimate or a result document.
pub fn compressions() -> u64 {
    COMPRESSIONS.with(Cell::get)
}

/// Compresses one block: the SHA extensions when the CPU has them, the
/// portable rounds otherwise.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    COMPRESSIONS.with(|c| c.set(c.get() + 1));
    if !shani::try_compress(state, block) {
        compress_portable(state, block);
    }
}

/// The FIPS 180-4 §6.2.2 compression function in portable Rust.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot convenience: SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of each 32-byte input: `outs[i] = sha256(&ins[i])`.
///
/// A 32-byte input is exactly one padded block, so this compresses
/// `ins.len()` blocks, as many separate [`sha256`] calls would. Full
/// groups of sixteen go through the AVX-512 kernel when the CPU has it;
/// the rest, or every input on a CPU without it, one block at a time
/// through the dispatching compress.
///
/// # Panics
///
/// If `ins` and `outs` differ in length.
///
/// # Examples
///
/// ```
/// use fair_crypto::sha256::{sha256, sha256_32_many};
///
/// let ins = [[1u8; 32], [2u8; 32]];
/// let mut outs = [[0u8; 32]; 2];
/// sha256_32_many(&ins, &mut outs);
/// assert_eq!(outs[1], sha256(&[2u8; 32]));
/// ```
pub fn sha256_32_many(ins: &[[u8; 32]], outs: &mut [Digest]) {
    assert_eq!(ins.len(), outs.len(), "one output digest per input");
    let mut done = 0;
    for (i, o) in ins.chunks_exact(16).zip(outs.chunks_exact_mut(16)) {
        let (i, o) = (
            i.try_into().expect("16 inputs"),
            o.try_into().expect("16 outputs"),
        );
        if !shani::try_hash32_x16(i, o) {
            break;
        }
        COMPRESSIONS.with(|c| c.set(c.get() + 16));
        done += 16;
    }
    for (i, o) in ins[done..].iter().zip(&mut outs[done..]) {
        *o = sha256_32(i);
    }
}

/// SHA-256 of one 32-byte input: one padded block through [`compress`].
fn sha256_32(input: &[u8; 32]) -> Digest {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(input);
    block[32] = 0x80;
    block[56..].copy_from_slice(&256u64.to_be_bytes());
    let mut state = H0;
    compress(&mut state, &block);
    state_bytes(&state)
}

/// One-shot SHA-256 over the concatenation of several byte strings, with
/// length-prefixing so that `(a, b)` and `(a', b')` never collide unless the
/// parts are equal ("domain-separated tuple hash").
pub fn sha256_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    h.update(&(parts.len() as u64).to_be_bytes());
    for p in parts {
        h.update(&(p.len() as u64).to_be_bytes());
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{:02x}", b)).collect()
    }

    /// The portable compress under the original padding, which appended
    /// one zero byte at a time: the reference both paths must match.
    fn oracle(data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress_portable(&mut state, block.try_into().unwrap());
        }
        state_bytes(&state)
    }

    /// Checks `data` against a FIPS 180-4 vector through the portable
    /// compress and through the dispatching one (SHA-NI where present).
    fn assert_vector(data: &[u8], expect: &str) {
        assert_eq!(hex(&oracle(data)), expect, "portable compress");
        assert_eq!(hex(&sha256(data)), expect, "dispatching compress");
    }

    #[test]
    fn fips_vector_empty() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_vector_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn compressions_count_blocks_including_padding() {
        for (len, blocks) in [
            (0, 1),
            (55, 1),
            (56, 2),
            (63, 2),
            (64, 2),
            (119, 2),
            (120, 3),
        ] {
            let before = compressions();
            sha256(&vec![7u8; len]);
            assert_eq!(compressions() - before, blocks, "len = {len}");
        }
    }

    proptest! {
        #[test]
        fn prop_accelerated_compress_matches_portable(
            state in proptest::collection::vec(any::<u32>(), 8..9),
            block in proptest::collection::vec(any::<u8>(), 64..65),
        ) {
            let state: [u32; 8] = state.try_into().unwrap();
            let block: [u8; 64] = block.try_into().unwrap();
            let mut fast = state;
            // Compared only when the SHA-NI kernel ran: `try_compress`
            // returns false, leaving `fast` untouched, on a CPU without it.
            if shani::try_compress(&mut fast, &block) {
                let mut slow = state;
                compress_portable(&mut slow, &block);
                prop_assert_eq!(fast, slow);
            }
        }

        #[test]
        fn prop_batch_of_32_byte_inputs_matches_sha256(
            len in 0usize..40,
            bytes in proptest::collection::vec(any::<u8>(), 40 * 32..40 * 32 + 1),
        ) {
            let ins: Vec<[u8; 32]> = bytes
                .chunks_exact(32)
                .take(len)
                .map(|c| c.try_into().unwrap())
                .collect();
            let mut outs = vec![[0u8; 32]; len];
            sha256_32_many(&ins, &mut outs);
            for (i, o) in ins.iter().zip(&outs) {
                prop_assert_eq!(*o, sha256(i));
            }
        }

        #[test]
        fn prop_one_copy_padding_matches_oracle(
            edge in 0usize..5,
            extra_blocks in 0usize..3,
            seed: u8,
        ) {
            // Lengths on each padding edge: the 0x80 byte and the length
            // field fit (55), spill the length (56, 63), or start a fresh
            // block (64, 65).
            let len = [55, 56, 63, 64, 65][edge] + 64 * extra_blocks;
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
            prop_assert_eq!(sha256(&data), oracle(&data));
        }
    }

    /// `n` distinct 32-byte inputs.
    fn inputs_32(n: usize) -> Vec<[u8; 32]> {
        (0..n)
            .map(|i| core::array::from_fn(|j| (i * 131 + j * 7 + 1) as u8))
            .collect()
    }

    #[test]
    fn batch_of_32_byte_inputs_matches_sha256_at_chunk_boundaries() {
        // Empty, a remainder alone, one full chunk of 16, chunk plus
        // remainder, and a Lamport key's 512 preimages.
        for n in [0, 1, 15, 16, 17, 31, 33, 512] {
            let ins = inputs_32(n);
            let mut outs = vec![[0u8; 32]; n];
            let before = compressions();
            sha256_32_many(&ins, &mut outs);
            assert_eq!(compressions() - before, n as u64, "n = {n}");
            for (i, (x, o)) in ins.iter().zip(&outs).enumerate() {
                assert_eq!(*o, sha256(x), "n = {n}, input {i}");
            }
        }
    }

    #[test]
    fn one_block_path_matches_oracle() {
        // The path every input takes on a CPU without AVX-512, and the
        // batch remainder takes everywhere.
        for x in inputs_32(64) {
            assert_eq!(sha256_32(&x), oracle(&x));
        }
    }

    #[test]
    fn sixteen_lane_kernel_matches_oracle_in_every_lane() {
        let ins: [[u8; 32]; 16] = inputs_32(16).try_into().unwrap();
        let mut outs = [[0u8; 32]; 16];
        // Compared only when the AVX-512 kernel ran: `try_hash32_x16`
        // returns false, leaving `outs` untouched, on a CPU without it.
        if shani::try_hash32_x16(&ins, &mut outs) {
            for (lane, (x, o)) in ins.iter().zip(&outs).enumerate() {
                assert_eq!(*o, oracle(x), "lane {lane}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output digest per input")]
    fn batch_rejects_mismatched_lengths() {
        sha256_32_many(&inputs_32(2), &mut [[0u8; 32]; 3]);
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let expect = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split = {split}");
        }
    }

    #[test]
    fn parts_hash_is_injective_on_boundaries() {
        // ("ab","c") must differ from ("a","bc") and from the flat string.
        let h1 = sha256_parts(&[b"ab", b"c"]);
        let h2 = sha256_parts(&[b"a", b"bc"]);
        let h3 = sha256_parts(&[b"abc"]);
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
        assert_ne!(h2, h3);
    }

    #[test]
    fn parts_hash_distinguishes_arity() {
        assert_ne!(sha256_parts(&[]), sha256_parts(&[b""]));
        assert_ne!(sha256_parts(&[b""]), sha256_parts(&[b"", b""]));
    }
}
