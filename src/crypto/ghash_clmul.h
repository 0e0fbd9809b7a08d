// GF(2^128) arithmetic for GHASH on PCLMULQDQ, shared by the two x86
// backends (backend_aesni.cpp and backend_vaes.cpp).
//
// Multiplication happens in the bit-reflected domain (Gueron & Kounavis,
// Intel CLMUL white paper): blocks are byte-reversed on load, the 255-bit
// carryless product is shifted left one bit, then reduced mod
// x^128 + x^7 + x^2 + x + 1. Products of several blocks with precomputed H
// powers can be summed before one reduction (aggregated reduction).
//
// Every function here is `static inline`, so each including translation unit
// gets its own copy built with its own -m flags: the 128-bit backend never
// links a copy the compiler encoded with AVX-512 instructions. Include only
// from a TU compiled with at least -mpclmul -mssse3.
#pragma once

#include <immintrin.h>

namespace mbtls::crypto::accel::clmul {

/// Shuffle control reversing the 16 bytes of a block.
static inline __m128i byte_reverse_mask() {
  return _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
}

static inline __m128i byte_reverse(__m128i x) {
  return _mm_shuffle_epi8(x, byte_reverse_mask());
}

/// lo/mid/hi ^= the three Karatsuba-free partial products of a * b.
static inline void multiply_accumulate(__m128i a, __m128i b, __m128i& lo, __m128i& mid,
                                       __m128i& hi) {
  lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(a, b, 0x00));
  hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(a, b, 0x11));
  mid = _mm_xor_si128(mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                         _mm_clmulepi64_si128(a, b, 0x01)));
}

/// Reduces the 255-bit product hi:lo, whose middle term is already folded in.
static inline __m128i reduce(__m128i lo, __m128i hi) {
  // Shift the 255-bit product left by one (reflected-domain adjustment).
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  const __m128i cross = _mm_srli_si128(lo_carry, 12);
  lo = _mm_or_si128(lo, _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(hi, _mm_slli_si128(hi_carry, 4));
  hi = _mm_or_si128(hi, cross);
  // Montgomery-style two-step reduction.
  __m128i t = _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30));
  t = _mm_xor_si128(t, _mm_slli_epi32(lo, 25));
  const __m128i t_spill = _mm_srli_si128(t, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  __m128i r = _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2));
  r = _mm_xor_si128(r, _mm_srli_epi32(lo, 7));
  r = _mm_xor_si128(r, t_spill);
  lo = _mm_xor_si128(lo, r);
  return _mm_xor_si128(hi, lo);
}

/// Folds the middle 128 bits into the outer halves, then reduces.
static inline __m128i fold_reduce(__m128i lo, __m128i mid, __m128i hi) {
  return reduce(_mm_xor_si128(lo, _mm_slli_si128(mid, 8)),
                _mm_xor_si128(hi, _mm_srli_si128(mid, 8)));
}

static inline __m128i multiply(__m128i a, __m128i b) {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
  multiply_accumulate(a, b, lo, mid, hi);
  return fold_reduce(lo, mid, hi);
}

}  // namespace mbtls::crypto::accel::clmul
