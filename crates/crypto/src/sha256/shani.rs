//! The x86_64 SIMD kernels of SHA-256 — the one `unsafe` module in
//! `fair-crypto`.
//!
//! Two kernels, each bit-identical to the portable rounds in the parent
//! module:
//!
//! * [`try_compress`] compresses one block with the SHA extensions
//!   (`sha`, `ssse3`, `sse4.1`): `sha256rnds2` runs two rounds per
//!   instruction and `sha256msg1`/`msg2` expand the message schedule four
//!   words at a time, which makes a block about seven times cheaper than
//!   the portable rounds (perfbench's `crypto.sha256_block_ns`).
//! * [`try_hash32_x16`] hashes sixteen independent 32-byte messages at
//!   once with AVX-512 (`avx512f`, `avx512bw`), one message per 32-bit
//!   lane. A 32-byte message is exactly one padded block, so the kernel
//!   fixes W8 = 0x80000000, W9..W14 = 0 and W15 = 256 (the bit length)
//!   and runs the plain FIPS 180-4 rounds on sixteen lanes; this beats the
//!   SHA extensions, whose `sha256rnds2` throughput bounds a single block.
//!
//! Both entry points are safe: they check the CPU features at run time and
//! report `false` when they are missing (or on a non-x86_64 target), in
//! which case the caller runs the portable rounds. The unit tests in the
//! parent module run the FIPS vectors and differential properties through
//! every path.

#![deny(unsafe_op_in_unsafe_fn)]

use super::Digest;

/// Compresses `block` into `state` with the SHA extensions if the CPU has
/// them; returns `false`, leaving `state` untouched, if it does not.
#[cfg(target_arch = "x86_64")]
pub(super) fn try_compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    // std caches the CPUID probe, so each check is one atomic load.
    if std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("sse4.1")
        && std::is_x86_feature_detected!("ssse3")
    {
        // SAFETY: the checks above prove the CPU executes every instruction
        // family `x86::compress` enables (sse2 is part of the x86_64 baseline).
        unsafe { x86::compress(state, block) };
        true
    } else {
        false
    }
}

/// Compresses `block` into `state` with the SHA extensions if the CPU has
/// them; returns `false`, leaving `state` untouched, if it does not.
#[cfg(not(target_arch = "x86_64"))]
pub(super) fn try_compress(_state: &mut [u32; 8], _block: &[u8; 64]) -> bool {
    false
}

/// Writes the SHA-256 of each of the sixteen 32-byte messages `ins` to
/// `outs` with AVX-512 if the CPU has it; returns `false`, leaving `outs`
/// untouched, if it does not.
#[cfg(target_arch = "x86_64")]
pub(super) fn try_hash32_x16(ins: &[[u8; 32]; 16], outs: &mut [Digest; 16]) -> bool {
    if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512bw") {
        // SAFETY: the checks above prove the CPU executes every instruction
        // family `x16::hash32` enables.
        unsafe { x16::hash32(ins, outs) };
        true
    } else {
        false
    }
}

/// Writes the SHA-256 of each of the sixteen 32-byte messages `ins` to
/// `outs` with AVX-512 if the CPU has it; returns `false`, leaving `outs`
/// untouched, if it does not.
#[cfg(not(target_arch = "x86_64"))]
pub(super) fn try_hash32_x16(_ins: &[[u8; 32]; 16], _outs: &mut [Digest; 16]) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::super::K;

    /// Runs the 64 rounds of FIPS 180-4 §6.2.2 on `block` and adds the
    /// result into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
    /// instruction sets; otherwise the call executes illegal instructions.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte-swaps each 32-bit lane: the message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // Vector names list lanes highest first. sha256rnds2 wants the
        // working variables as ABEF and CDGH.
        // SAFETY: `state` is 32 readable bytes, exactly two unaligned
        // 16-byte loads; `loadu` has no alignment requirement.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        // SAFETY: `block` is 64 readable bytes, exactly four unaligned
        // 16-byte loads.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [
                _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
            ]
        };
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for i in [4, 8, 12] {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes, exactly two unaligned
        // 16-byte stores.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgfe);
        }
    }

    /// Rounds 4i..4i+4 on the schedule words `w` = W[4i..4i+4].
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// The next four schedule words from the sixteen before them, oldest
    /// group first: W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w16: __m128i, w12: __m128i, w8: __m128i, w4: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
        _mm_sha256msg2_epu32(partial, w4)
    }
}

#[cfg(target_arch = "x86_64")]
mod x16 {
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_permutex2var_epi32, _mm512_ror_epi32,
        _mm512_set1_epi32, _mm512_set_epi64, _mm512_setzero_si512, _mm512_shuffle_epi8,
        _mm512_srli_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32,
    };

    use super::super::{Digest, H0, K};

    /// `_mm512_permutex2var_epi32` index vectors for the transposes between
    /// sixteen 32-byte messages as they lie in memory (message-major: eight
    /// registers of two messages each) and the sixteen-lane words the
    /// rounds work on (word-major: register `j` holds word `j` of every
    /// message). Entry `i` picks lane `idx & 15` of the first source
    /// (`idx < 16`) or of the second. Each direction takes three steps,
    /// each with two variants `v`:
    ///
    /// * 0: messages 4p..4p+4 (two registers) → word half v of them;
    /// * 1: one word half of messages 8q..8q+4 and 8q+4..8q+8 → word pair
    ///   v of that half for all eight;
    /// * 2: one word pair of messages 0..8 and 8..16 → word v of the pair
    ///   for all sixteen;
    /// * 3–5 undo 2, 1 and 0: word pair 2P, 2P+1 → that pair of messages
    ///   8v..8v+8; the two pairs of one half for eight messages → that half
    ///   of the four at 4v..4v+4 within them; both halves of four messages
    ///   → all words of the two at 2v, 2v+1 within them.
    const fn step(s: usize, v: usize) -> [i32; 16] {
        let mut idx = [0; 16];
        let mut i = 0;
        while i < 16 {
            idx[i] = match s {
                0 => (i / 8) * 16 + (i / 4 % 2) * 8 + v * 4 + i % 4,
                1 => (i / 8) * 16 + (i / 2 % 4) * 4 + v * 2 + i % 2,
                2 => (i / 8) * 16 + (i % 8) * 2 + v,
                3 => (i % 2) * 16 + 8 * v + i / 2,
                4 => (i % 4 / 2) * 16 + (4 * v + i / 4) * 2 + i % 2,
                _ => (i % 8 / 4) * 16 + (2 * v + i / 8) * 4 + i % 4,
            } as i32;
            i += 1;
        }
        idx
    }

    const TO_WORDS: [[[i32; 16]; 2]; 3] = [
        [step(0, 0), step(0, 1)],
        [step(1, 0), step(1, 1)],
        [step(2, 0), step(2, 1)],
    ];
    const TO_MESSAGES: [[[i32; 16]; 2]; 3] = [
        [step(5, 0), step(5, 1)],
        [step(4, 0), step(4, 1)],
        [step(3, 0), step(3, 1)],
    ];

    /// Permutes the lanes of `a` and `b` by `idx` (see [`step`]).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn permute(a: __m512i, idx: &[i32; 16], b: __m512i) -> __m512i {
        // SAFETY: `idx` is 64 readable bytes, one unaligned 64-byte load.
        let idx = unsafe { _mm512_loadu_si512(idx.as_ptr().cast()) };
        _mm512_permutex2var_epi32(a, idx, b)
    }

    /// Message-major to word-major: `regs[k]` holds messages 2k and 2k+1;
    /// entry `j` of the result holds word `j` of all sixteen messages.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn to_words(regs: [__m512i; 8]) -> [__m512i; 8] {
        let [s1, s2, s3] = &TO_WORDS;
        // Halves: `halves[2p + h]` is word half h of messages 4p..4p+4.
        let mut halves = [_mm512_setzero_si512(); 8];
        for (i, x) in halves.iter_mut().enumerate() {
            let p = i / 2;
            *x = permute(regs[2 * p], &s1[i % 2], regs[2 * p + 1]);
        }
        // Pairs: `pairs[4q + 2h + g]` is word pair 2g, 2g+1 of half h for
        // messages 8q..8q+8.
        let mut pairs = [_mm512_setzero_si512(); 8];
        for (i, x) in pairs.iter_mut().enumerate() {
            let (q, h) = (i / 4, (i / 2) % 2);
            *x = permute(halves[4 * q + h], &s2[i % 2], halves[4 * q + 2 + h]);
        }
        let mut words = [_mm512_setzero_si512(); 8];
        for (j, x) in words.iter_mut().enumerate() {
            *x = permute(pairs[j / 2], &s3[j % 2], pairs[4 + j / 2]);
        }
        words
    }

    /// Word-major to message-major: the inverse of [`to_words`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn to_messages(words: [__m512i; 8]) -> [__m512i; 8] {
        let [t1, t2, t3] = &TO_MESSAGES;
        let mut pairs = [_mm512_setzero_si512(); 8];
        for (i, x) in pairs.iter_mut().enumerate() {
            let pair = i % 4;
            *x = permute(words[2 * pair], &t3[i / 4], words[2 * pair + 1]);
        }
        let mut halves = [_mm512_setzero_si512(); 8];
        for (i, x) in halves.iter_mut().enumerate() {
            let (p, h) = (i / 2, i % 2);
            let base = 4 * (p / 2) + 2 * h;
            *x = permute(pairs[base], &t2[p % 2], pairs[base + 1]);
        }
        let mut regs = [_mm512_setzero_si512(); 8];
        for (k, x) in regs.iter_mut().enumerate() {
            let p = k / 2;
            *x = permute(halves[2 * p], &t1[k % 2], halves[2 * p + 1]);
        }
        regs
    }

    /// Three-way xor.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn xor3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
        _mm512_ternarylogic_epi32::<0x96>(a, b, c)
    }

    /// Round `base + i` of FIPS 180-4 §6.2.2 on sixteen lanes, with round
    /// constant `k`: the working variables `v` = a..h and a ring `w` of the
    /// last sixteen schedule words, W[base + i] at `w[i]`. With `expand`
    /// (every round from 16 on) the round first computes its own word.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn round(v: &mut [__m512i; 8], w: &mut [__m512i; 16], i: usize, k: u32, expand: bool) {
        if expand {
            // W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16].
            let w15 = w[(i + 1) % 16];
            let w2 = w[(i + 14) % 16];
            let s0 = xor3(
                _mm512_ror_epi32::<7>(w15),
                _mm512_ror_epi32::<18>(w15),
                _mm512_srli_epi32::<3>(w15),
            );
            let s1 = xor3(
                _mm512_ror_epi32::<17>(w2),
                _mm512_ror_epi32::<19>(w2),
                _mm512_srli_epi32::<10>(w2),
            );
            w[i] = _mm512_add_epi32(
                _mm512_add_epi32(w[i], s0),
                _mm512_add_epi32(w[(i + 9) % 16], s1),
            );
        }
        let [a, b, c, d, e, f, g, h] = *v;
        let s1 = xor3(
            _mm512_ror_epi32::<6>(e),
            _mm512_ror_epi32::<11>(e),
            _mm512_ror_epi32::<25>(e),
        );
        // Ch(e, f, g) = e ? f : g.
        let ch = _mm512_ternarylogic_epi32::<0xca>(e, f, g);
        let t1 = _mm512_add_epi32(
            _mm512_add_epi32(h, s1),
            _mm512_add_epi32(ch, _mm512_add_epi32(_mm512_set1_epi32(k as i32), w[i])),
        );
        let s0 = xor3(
            _mm512_ror_epi32::<2>(a),
            _mm512_ror_epi32::<13>(a),
            _mm512_ror_epi32::<22>(a),
        );
        // Maj(a, b, c): the majority of the three bits.
        let maj = _mm512_ternarylogic_epi32::<0xe8>(a, b, c);
        let a2 = _mm512_add_epi32(t1, _mm512_add_epi32(s0, maj));
        *v = [a2, a, b, c, _mm512_add_epi32(d, t1), e, f, g];
    }

    /// Writes the SHA-256 of each of the sixteen 32-byte messages `ins` to
    /// `outs`.
    ///
    /// # Safety
    ///
    /// The CPU must support the `avx512f` and `avx512bw` instruction sets;
    /// otherwise the call executes illegal instructions.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn hash32(ins: &[[u8; 32]; 16], outs: &mut [Digest; 16]) {
        // Byte-swaps each 32-bit lane: the message words are big-endian.
        let bswap = _mm512_set_epi64(
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
        );

        // Register k holds messages 2k and 2k+1, word by word.
        let mut regs = [_mm512_setzero_si512(); 8];
        for (k, reg) in regs.iter_mut().enumerate() {
            // SAFETY: `ins` is 512 readable bytes, exactly eight unaligned
            // 64-byte loads.
            let v = unsafe { _mm512_loadu_si512(ins.as_ptr().cast::<__m512i>().add(k)) };
            *reg = _mm512_shuffle_epi8(v, bswap);
        }
        let w = to_words(regs);

        // One padded block per lane: the 32 message bytes, the 0x80 byte,
        // zeros, and the 64-bit bit length 256.
        let mut sched = [_mm512_setzero_si512(); 16];
        sched[..8].copy_from_slice(&w);
        sched[8] = _mm512_set1_epi32(0x8000_0000_u32 as i32);
        sched[15] = _mm512_set1_epi32(256);

        let mut v = [_mm512_setzero_si512(); 8];
        for (x, h) in v.iter_mut().zip(H0) {
            *x = _mm512_set1_epi32(h as i32);
        }
        // Sixteen rounds at a time, written out so that every index into
        // the schedule ring is a constant and the ring stays in registers.
        // A loop over `t % 16` keeps the ring on the stack, and the kernel
        // then ran a third slower in some runs than in others.
        macro_rules! rounds {
            ($base:expr, $expand:expr; $($i:literal)*) => {
                $(round(&mut v, &mut sched, $i, K[$base + $i], $expand);)*
            };
        }
        rounds!(0, false; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        for base in [16, 32, 48] {
            rounds!(base, true; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        }
        for (s, h) in v.iter_mut().zip(H0) {
            *s = _mm512_add_epi32(*s, _mm512_set1_epi32(h as i32));
        }

        let regs = to_messages(v);
        for (k, reg) in regs.into_iter().enumerate() {
            // SAFETY: `outs` is 512 writable bytes, exactly eight unaligned
            // 64-byte stores.
            unsafe {
                _mm512_storeu_si512(
                    outs.as_mut_ptr().cast::<__m512i>().add(k),
                    _mm512_shuffle_epi8(reg, bswap),
                );
            }
        }
    }
}
