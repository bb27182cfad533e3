//! CRC-32 by carry-less multiplication (x86_64 PCLMULQDQ), after Gopal et
//! al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//! Instruction" (Intel, 2009), in its bit-reflected form.
//!
//! The CRC of a message is its remainder modulo `P(x)`, and multiplying a
//! 128-bit chunk by `x^n mod P(x)` moves it `n` bits further along the
//! message without changing that remainder. The kernel keeps four 128-bit
//! accumulators, folds each forward over the next 64 bytes per step, merges
//! them into one, folds in the remaining whole 16-byte chunks and reduces
//! the 128-bit result to the 32-bit CRC state (Barrett reduction). Same
//! polynomial and state convention as [`super::crc32_update`]; the caller
//! feeds the `len % 16` tail to the table-driven loop.
//!
//! This module is the only `unsafe` code in the workspace: the intrinsics
//! need the `pclmulqdq` target feature, which [`fold`] checks at run time.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Shortest input the kernel takes: one 16-byte chunk per accumulator.
pub(super) const MIN_LEN: usize = 64;

// Fold constants: `x^n mod P(x)`, bit-reflected and shifted left by one
// (a reflected carry-less product lands one bit low). Derived from the
// polynomial by `tests::fold_constants_follow_from_the_polynomial`.
/// `n = 4·128 + 32`: fold the low half of an accumulator 64 bytes ahead.
const K1: u64 = 0x1_5444_2BD4;
/// `n = 4·128 − 32`: fold the high half 64 bytes ahead.
const K2: u64 = 0x1_C6E4_1596;
/// `n = 128 + 32`: fold the low half 16 bytes ahead.
const K3: u64 = 0x1_7519_97D0;
/// `n = 128 − 32`: fold the high half 16 bytes ahead.
const K4: u64 = 0x0_CCAA_009E;
/// `n = 64`: reduce 96 bits to 64.
const K5: u64 = 0x1_63CD_6124;
/// `P(x)` itself, bit-reflected (33 bits).
const P: u64 = 0x1_DB71_0641;
/// `⌊x^64 / P(x)⌋`, bit-reflected: the Barrett constant.
const MU: u64 = 0x1_F701_1641;

/// Advance the CRC `state` over all whole 16-byte chunks of `data` and
/// return the new state with the unconsumed tail (under 16 bytes). `None`
/// when the CPU lacks `pclmulqdq` or `data` is shorter than [`MIN_LEN`]:
/// the caller then runs the portable loop over all of `data`.
pub(super) fn fold(state: u32, data: &[u8]) -> Option<(u32, &[u8])> {
    if data.len() < MIN_LEN || !is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    // SAFETY: `fold_pclmul` needs only the `pclmulqdq` feature, detected
    // on this CPU just above.
    Some(unsafe { fold_pclmul(state, data) })
}

/// The kernel behind [`fold`]. Panics if `data` is shorter than
/// [`MIN_LEN`].
///
/// # Safety
///
/// The CPU must support `pclmulqdq`.
#[target_feature(enable = "pclmulqdq")]
unsafe fn fold_pclmul(state: u32, data: &[u8]) -> (u32, &[u8]) {
    let (first, rest) = data.split_at(MIN_LEN);
    let mut acc = [chunk(first, 0), chunk(first, 1), chunk(first, 2), chunk(first, 3)];
    acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));

    let ahead64 = _mm_set_epi64x(K2 as i64, K1 as i64);
    let mut quads = rest.chunks_exact(MIN_LEN);
    for quad in &mut quads {
        for (lane, a) in acc.iter_mut().enumerate() {
            *a = fold_into(*a, chunk(quad, lane), ahead64);
        }
    }

    let ahead16 = _mm_set_epi64x(K4 as i64, K3 as i64);
    let mut x = fold_into(acc[0], acc[1], ahead16);
    x = fold_into(x, acc[2], ahead16);
    x = fold_into(x, acc[3], ahead16);
    let mut singles = quads.remainder().chunks_exact(16);
    for single in &mut singles {
        x = fold_into(x, chunk(single, 0), ahead16);
    }

    // 128 → 96 bits: the low half times x^(128−32) onto the high half.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    x = _mm_xor_si128(_mm_clmulepi64_si128(x, ahead16, 0x10), _mm_srli_si128(x, 8));
    // 96 → 64 bits.
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5 as i64), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett: 64 → 32 bits; the reflected remainder is the second dword.
    let p_mu = _mm_set_epi64x(MU as i64, P as i64);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
    let crc = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
    (crc, singles.remainder())
}

/// `a` carried 16·k bytes ahead (by the constant pair in `k`) and added to
/// the chunk `b` found there.
///
/// # Safety
///
/// The CPU must support `pclmulqdq`.
#[target_feature(enable = "pclmulqdq")]
#[inline]
unsafe fn fold_into(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128(a, k, 0x00);
    let hi = _mm_clmulepi64_si128(a, k, 0x11);
    _mm_xor_si128(_mm_xor_si128(lo, hi), b)
}

/// The `i`-th 16-byte chunk of `data`.
///
/// # Safety
///
/// The CPU must support `pclmulqdq` (SSE2 loads are baseline on x86_64).
#[target_feature(enable = "pclmulqdq")]
#[inline]
unsafe fn chunk(data: &[u8], i: usize) -> __m128i {
    let bytes: &[u8; 16] = data[i * 16..i * 16 + 16].try_into().expect("16-byte chunk");
    // Reads exactly the 16 bytes `bytes` borrows (bounds-checked above);
    // `loadu` has no alignment requirement.
    _mm_loadu_si128(bytes.as_ptr().cast())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x^n mod P(x)` for the normal (unreflected) IEEE polynomial.
    fn x_pow_mod(n: u32) -> u32 {
        // Start from x^0 and multiply by x n times, reducing on overflow.
        (0..n).fold(1u32, |r, _| if r & 0x8000_0000 != 0 { (r << 1) ^ 0x04C1_1DB7 } else { r << 1 })
    }

    #[test]
    fn fold_constants_follow_from_the_polynomial() {
        let k = |n| u64::from(x_pow_mod(n).reverse_bits()) << 1;
        assert_eq!(K1, k(4 * 128 + 32));
        assert_eq!(K2, k(4 * 128 - 32));
        assert_eq!(K3, k(128 + 32));
        assert_eq!(K4, k(128 - 32));
        assert_eq!(K5, k(64));
        // P(x) = x^32 + 0x04C11DB7, reflected over its 33 bits.
        assert_eq!(P, (0x1_04C1_1DB7u64).reverse_bits() >> 31);
        // ⌊x^64 / P(x)⌋ by long division over GF(2), reflected likewise.
        let mut quotient = 0u64;
        let mut rem: u128 = 1 << 64;
        for bit in (0..=32).rev() {
            if rem & (1u128 << (bit + 32)) != 0 {
                quotient |= 1 << bit;
                rem ^= 0x1_04C1_1DB7u128 << bit;
            }
        }
        assert_eq!(MU, quotient.reverse_bits() >> 31);
    }
}
