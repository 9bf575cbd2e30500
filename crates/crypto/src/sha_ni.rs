//! SHA-256 compression on the x86 SHA extensions.
//!
//! The one file in this crate's hash stack that contains `unsafe`:
//! [`compress_blocks`] checks at run time that the CPU has the
//! instructions and, when it does, runs the `sha256rnds2` /
//! `sha256msg1` / `sha256msg2` sequence over whole 64-byte blocks. The
//! portable rounds in [`crate::sha256`] are the specification oracle;
//! the differential tests there compare the two on random states and
//! blocks, so every digest — and therefore every wire byte — is the
//! same whichever back end ran.

use crate::sha256::K;
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Whether this CPU has the instructions [`compress_blocks`] needs.
/// The standard library caches the CPUID result, so this is one
/// relaxed atomic load per feature.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses the whole 64-byte blocks of `blocks` into `state` and
/// returns `true`, or returns `false` untouched when the CPU lacks the
/// extension (the caller then runs the portable rounds).
#[expect(unsafe_code, reason = "calling a `target_feature` function is unsafe")]
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` just confirmed every target feature the
    // kernel is compiled with (sha, sse2, ssse3, sse4.1).
    unsafe { kernel(state, blocks) };
    true
}

/// The SHA-extension block function (Intel's reference schedule: two
/// state registers in ABEF / CDGH order, four message registers, sixteen
/// groups of four rounds).
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
#[expect(unsafe_code, reason = "the SIMD loads and stores take raw pointers")]
fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
    // Big-endian message words: reverse the bytes of each 32-bit lane.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is eight `u32`s, 32 readable bytes; the two
    // unaligned 16-byte loads cover bytes 0..16 and 16..32 of it.
    let (dcba, hgfe) = unsafe {
        let p = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `chunks_exact(64)` yields exactly 64 readable bytes;
        // the four unaligned 16-byte loads cover bytes 0..64 of them.
        let (mut m0, mut m1, mut m2, mut m3) = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            (
                _mm_shuffle_epi8(_mm_loadu_si128(p), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), be_words),
            )
        };
        // Rounds 4g..4g+4 on the register holding words 4g..4g+4.
        macro_rules! rounds {
            ($g:literal, $cur:ident) => {
                let k = &K[4 * $g..4 * $g + 4];
                let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
                let wk = _mm_add_epi32($cur, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            };
        }
        // The schedule, four words at a time: `start` begins words
        // 4g+12.. in the register of words 4g-4.. (σ0 terms), `finish`
        // completes words 4g+4.. from the two registers before them
        // (w[i-7] and σ1 terms).
        macro_rules! start {
            ($last:ident, $cur:ident) => {
                $last = _mm_sha256msg1_epu32($last, $cur);
            };
        }
        macro_rules! finish {
            ($next:ident, $cur:ident, $last:ident) => {
                let carry = _mm_alignr_epi8::<4>($cur, $last);
                $next = _mm_sha256msg2_epu32(_mm_add_epi32($next, carry), $cur);
            };
        }
        rounds!(0, m0);
        rounds!(1, m1);
        start!(m0, m1);
        rounds!(2, m2);
        start!(m1, m2);
        macro_rules! group {
            ($g:literal, $cur:ident, $next:ident, $last:ident) => {
                finish!($next, $cur, $last);
                rounds!($g, $cur);
                start!($last, $cur);
            };
        }
        group!(3, m3, m0, m2);
        group!(4, m0, m1, m3);
        group!(5, m1, m2, m0);
        group!(6, m2, m3, m1);
        group!(7, m3, m0, m2);
        group!(8, m0, m1, m3);
        group!(9, m1, m2, m0);
        group!(10, m2, m3, m1);
        group!(11, m3, m0, m2);
        group!(12, m0, m1, m3);
        finish!(m2, m1, m0);
        rounds!(13, m1);
        finish!(m3, m2, m1);
        rounds!(14, m2);
        rounds!(15, m3);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: `state` is eight `u32`s, 32 writable bytes behind an
    // exclusive reference; the two unaligned 16-byte stores cover bytes
    // 0..16 and 16..32 of it.
    unsafe {
        let p = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, dcba);
        _mm_storeu_si128(p.add(1), hgfe);
    }
}
