//! The SHA-256 compression function on the x86_64 SHA extensions — the one
//! `unsafe` module in `fair-crypto`.
//!
//! `sha256rnds2` runs two rounds per instruction and `sha256msg1`/`msg2`
//! expand the message schedule four words at a time, which makes a block
//! about seven times cheaper than the portable rounds in the parent module
//! (perfbench's `crypto.sha256_block_ns`).
//! The output is bit-identical to them; the unit tests in the parent module
//! run the FIPS vectors and a differential property through both.
//!
//! The only entry point is the safe [`try_compress`]: it checks the CPU
//! features at run time and reports `false` when they are missing (or on a
//! non-x86_64 target), in which case the caller runs the portable rounds.

#![deny(unsafe_op_in_unsafe_fn)]

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
