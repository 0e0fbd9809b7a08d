// x86-64 wide AES-GCM backend: VAES and VPCLMULQDQ on 512-bit registers.
//
// Sixteen blocks are in flight at once: four __m512i registers of four
// 128-bit lanes go through _mm512_aesenc_epi128 together, and GHASH
// multiplies a 16-block group by H^16..H^1 with _mm512_clmulepi64_epi128,
// summing the products lane-wise and reducing once per group.
//
//   * Seal is stitched: the CTR rounds of group g and the GHASH multiply of
//     group g-1's ciphertext are issued in one loop body, so the AES and the
//     carry-less multiply units work in parallel.
//   * Open uses the separate wide GHASH and CTR entry points, in that order:
//     AesGcm::open_into verifies the tag before it writes any plaintext.
//   * Reprotect (a middlebox moving a record from one hop key to the next)
//     is one pass: per group it hashes the inbound ciphertext, writes
//     in ^ KS_in ^ KS_out (one vpternlogq) straight into the outbound
//     record and hashes that. No plaintext is written anywhere. The output
//     is committed only after the inbound tag passes: AesGcm::reprotect_into
//     checks it, and on a mismatch wipes the output and gives it back.
//   * Fewer than 16 remaining blocks go through the same 512-bit code with
//     AVX-512 byte-masked loads and stores; nothing here falls back to
//     one-block-at-a-time code, so short records stay on the wide path.
//
// This is the only translation unit compiled with -mvaes -mvpclmulqdq
// -mavx512f/bw/vl, and it is reached only when vaes_available(). Key
// expansion and the one-block tag mask stay on the AES-NI backend, so both
// widths read the same Aes::round_keys_ and the same H^1..H^16 table
// (AesGcm::h_powers_). Byte-compatibility contract as in backend_aesni.cpp:
// tests/test_crypto_diff checks every width against the bit-serial reference.
//
// Register hygiene: round keys and H powers are loaded from the owning
// members at each use and never copied into a stack array, so a call leaves
// no per-call copy of key material behind to wipe.
#include "crypto/backend.h"

#include <immintrin.h>

#include <algorithm>

#include "crypto/ghash_clmul.h"

namespace mbtls::crypto::accel {

namespace {

constexpr std::size_t kGroupBytes = 256;  // 16 blocks: four 512-bit registers

/// Byte-reverses each 128-bit lane.
inline __m512i byte_reverse(__m512i x) {
  return _mm512_shuffle_epi8(x, _mm512_broadcast_i32x4(clmul::byte_reverse_mask()));
}

/// Round key r broadcast to all four lanes.
inline __m512i round_key(const std::uint8_t* round_keys, int r) {
  return _mm512_broadcast_i32x4(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys + 16 * r)));
}

/// Mask of the first n bytes of a 64-byte register (all of them for n >= 64).
inline __mmask64 first_bytes(std::size_t n) {
  return n >= 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1;
}

inline unsigned blocks_in(std::size_t n) { return static_cast<unsigned>((n + 15) / 16); }

// --------------------------------------------------------------------- CTR
//
// Counters are kept byte-reversed, which puts the big-endian 32-bit block
// counter in dword 0 of each lane: _mm512_add_epi32 then wraps it mod 2^32
// exactly like the scalar path's uint32_t and never carries into the IV.

/// Counters of message blocks 0..3: J0's counter + 1..4 (the scalar path
/// pre-increments).
inline __m512i first_counters(const std::uint8_t j0[16]) {
  const __m512i j0_lanes = byte_reverse(
      _mm512_broadcast_i32x4(_mm_loadu_si128(reinterpret_cast<const __m128i*>(j0))));
  return _mm512_add_epi32(j0_lanes,
                          _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1));
}

/// Encrypts the next 16 counter blocks into `b` and advances `ctr`.
/// `interleaved` runs between AES rounds 3 and 4; seal puts the previous
/// group's GHASH multiply there so both units stay busy.
template <typename Interleaved>
inline void keystream_group(const std::uint8_t* round_keys, int rounds, __m512i& ctr,
                            __m512i (&b)[4], Interleaved&& interleaved) {
  const __m512i step = _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4);
  const __m512i k0 = round_key(round_keys, 0);
#pragma GCC unroll 4
  for (__m512i& v : b) {
    v = _mm512_xor_si512(byte_reverse(ctr), k0);
    ctr = _mm512_add_epi32(ctr, step);
  }
  const auto run_rounds = [&](int first, int last) {
    for (int r = first; r < last; ++r) {
      const __m512i kr = round_key(round_keys, r);
#pragma GCC unroll 4
      for (__m512i& v : b) v = _mm512_aesenc_epi128(v, kr);
    }
  };
  run_rounds(1, 4);
  interleaved();
  run_rounds(4, rounds);
  const __m512i klast = round_key(round_keys, rounds);
#pragma GCC unroll 4
  for (__m512i& v : b) v = _mm512_aesenclast_epi128(v, klast);
}

/// keystream_group for two keys at once: the next 16 counter blocks of
/// `ka` into a and of `kb` into b. Eight independent registers keep more
/// AESENCs in flight than four; when the schedules differ in length (AES-128
/// next to AES-256) the shorter one finishes first.
template <typename Interleaved>
inline void keystream_pair(const GcmSide& ka, __m512i& ctr_a, __m512i (&a)[4],
                           const GcmSide& kb, __m512i& ctr_b, __m512i (&b)[4],
                           Interleaved&& interleaved) {
  const __m512i step = _mm512_set_epi32(0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4);
  const __m512i a0 = round_key(ka.round_keys, 0);
  const __m512i b0 = round_key(kb.round_keys, 0);
#pragma GCC unroll 4
  for (std::size_t q = 0; q < 4; ++q) {
    a[q] = _mm512_xor_si512(byte_reverse(ctr_a), a0);
    b[q] = _mm512_xor_si512(byte_reverse(ctr_b), b0);
    ctr_a = _mm512_add_epi32(ctr_a, step);
    ctr_b = _mm512_add_epi32(ctr_b, step);
  }
  const auto run_rounds = [](const std::uint8_t* round_keys, int first, int last,
                             __m512i (&v)[4]) {
    for (int r = first; r < last; ++r) {
      const __m512i kr = round_key(round_keys, r);
#pragma GCC unroll 4
      for (__m512i& x : v) x = _mm512_aesenc_epi128(x, kr);
    }
  };
  const auto run_both = [&](int first, int last) {
    for (int r = first; r < last; ++r) {
      const __m512i kar = round_key(ka.round_keys, r);
      const __m512i kbr = round_key(kb.round_keys, r);
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) {
        a[q] = _mm512_aesenc_epi128(a[q], kar);
        b[q] = _mm512_aesenc_epi128(b[q], kbr);
      }
    }
  };
  const int common = std::min(ka.rounds, kb.rounds);
  run_both(1, 4);
  interleaved();
  run_both(4, common);
  run_rounds(ka.round_keys, common, ka.rounds, a);
  run_rounds(kb.round_keys, common, kb.rounds, b);
  const __m512i alast = round_key(ka.round_keys, ka.rounds);
  const __m512i blast = round_key(kb.round_keys, kb.rounds);
#pragma GCC unroll 4
  for (std::size_t q = 0; q < 4; ++q) {
    a[q] = _mm512_aesenclast_epi128(a[q], alast);
    b[q] = _mm512_aesenclast_epi128(b[q], blast);
  }
}

/// b ^= 256 input bytes, stored to `out`; b then holds the output.
inline void xor_store_group(const std::uint8_t* in, std::uint8_t* out, __m512i (&b)[4]) {
#pragma GCC unroll 4
  for (std::size_t q = 0; q < 4; ++q) {
    b[q] = _mm512_xor_si512(b[q], _mm512_loadu_si512(in + 64 * q));
    _mm512_storeu_si512(out + 64 * q, b[q]);
  }
}

/// The tail form of xor_store_group for len < 256 bytes: byte-masked loads
/// and stores touch only the first `len` bytes, and b holds the output with
/// every byte past `len` zeroed (GHASH's padding).
inline void xor_store_tail(const std::uint8_t* in, std::size_t len, std::uint8_t* out,
                           __m512i (&b)[4]) {
#pragma GCC unroll 4
  for (std::size_t q = 0; q < 4; ++q) {
    const std::size_t off = 64 * q;
    if (off >= len) {
      b[q] = _mm512_setzero_si512();
      continue;
    }
    const __mmask64 mask = first_bytes(len - off);
    b[q] = _mm512_maskz_mov_epi8(
        mask, _mm512_xor_si512(b[q], _mm512_maskz_loadu_epi8(mask, in + off)));
    _mm512_mask_storeu_epi8(out + off, mask, b[q]);
  }
}

// ------------------------------------------------------------------- GHASH

/// Unreduced GHASH products: the low, middle and high 128 bits of each
/// lane's 255-bit product, summed lane by lane.
struct Product {
  __m512i lo, mid, hi;
};

/// H powers for register q of an m-block group (4q < m <= 16). Lane i of
/// register q holds block 4q+i, which GHASH multiplies by H^(m-4q-i). Table
/// entry t is H^(t+1), so the v = min(4, m-4q) powers needed are entries
/// m-4q-v .. m-4q-1 in ascending order: one masked load (the other lanes
/// read as zero) and one lane permute put them in place.
inline __m512i h_powers_for(const std::uint8_t* h_powers, unsigned m, unsigned q) {
  // Qword permutes reversing the first v lanes, indexed by v-1.
  static constexpr long long kReverseFirstLanes[4][8] = {
      {0, 1, 6, 7, 4, 5, 2, 3},
      {2, 3, 0, 1, 6, 7, 4, 5},
      {4, 5, 2, 3, 0, 1, 6, 7},
      {6, 7, 4, 5, 2, 3, 0, 1},
  };
  const unsigned v = std::min(4u, m - 4 * q);
  const __m512i powers = _mm512_maskz_loadu_epi64(static_cast<__mmask8>((1u << (2 * v)) - 1),
                                                  h_powers + 16 * (m - 4 * q - v));
  return _mm512_permutexvar_epi64(_mm512_loadu_si512(kReverseFirstLanes[v - 1]), powers);
}

/// (y ^ X_0)·H^m ^ X_1·H^(m-1) ^ ... ^ X_{m-1}·H, unreduced, for the m
/// (1..16) byte-reversed, zero-padded blocks in x.
inline Product ghash_multiply(__m128i y, const __m512i (&x)[4], unsigned m,
                              const std::uint8_t* h_powers) {
  Product p{_mm512_setzero_si512(), _mm512_setzero_si512(), _mm512_setzero_si512()};
#pragma GCC unroll 4
  for (unsigned q = 0; q < 4; ++q) {
    if (4 * q >= m) break;
    const __m512i a = q == 0 ? _mm512_xor_si512(x[0], _mm512_zextsi128_si512(y)) : x[q];
    const __m512i h = h_powers_for(h_powers, m, q);
    p.lo = _mm512_xor_si512(p.lo, _mm512_clmulepi64_epi128(a, h, 0x00));
    p.hi = _mm512_xor_si512(p.hi, _mm512_clmulepi64_epi128(a, h, 0x11));
    p.mid = _mm512_ternarylogic_epi64(p.mid, _mm512_clmulepi64_epi128(a, h, 0x10),
                                      _mm512_clmulepi64_epi128(a, h, 0x01), 0x96);
  }
  return p;
}

inline __m128i xor_lanes(__m512i v) {
  const __m256i half =
      _mm256_xor_si256(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64(v, 1));
  return _mm_xor_si128(_mm256_castsi256_si128(half), _mm256_extracti128_si256(half, 1));
}

/// Folds each lane's middle term, sums the four lanes and reduces once.
inline __m128i ghash_reduce(const Product& p) {
  return clmul::reduce(xor_lanes(_mm512_xor_si512(p.lo, _mm512_bslli_epi128(p.mid, 8))),
                       xor_lanes(_mm512_xor_si512(p.hi, _mm512_bsrli_epi128(p.mid, 8))));
}

/// Absorbs `len` bytes at `p` into y, zero-padding the last block.
inline __m128i ghash_absorb(__m128i y, const std::uint8_t* p, std::size_t len,
                            const std::uint8_t* h_powers) {
  while (len > 0) {
    const std::size_t n = std::min(len, kGroupBytes);
    __m512i x[4];
#pragma GCC unroll 4
    for (std::size_t q = 0; q < 4; ++q) {
      const std::size_t off = 64 * q;
      x[q] = off < n ? byte_reverse(_mm512_maskz_loadu_epi8(first_bytes(n - off), p + off))
                     : _mm512_setzero_si512();
    }
    y = ghash_reduce(ghash_multiply(y, x, blocks_in(n), h_powers));
    p += n;
    len -= n;
  }
  return y;
}

/// Absorbs the length block and writes S in standard byte order.
inline void ghash_finish(__m128i y, std::size_t aad_len, std::size_t ct_len,
                         const std::uint8_t* h_powers, std::uint8_t s[16]) {
  // Byte-reversed, the big-endian block [aad bits | ciphertext bits] is the
  // two bit counts as little-endian qwords, ciphertext low.
  const __m128i lengths = _mm_set_epi64x(static_cast<long long>(aad_len * 8),
                                         static_cast<long long>(ct_len * 8));
  y = clmul::multiply(_mm_xor_si128(y, lengths),
                      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h_powers)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(s), clmul::byte_reverse(y));
}

}  // namespace

void aes_ctr_xor_vaes(const std::uint8_t* round_keys, int rounds, const std::uint8_t j0[16],
                      const std::uint8_t* in, std::size_t len, std::uint8_t* out) {
  __m512i ctr = first_counters(j0);
  __m512i b[4];
  for (; len >= kGroupBytes; in += kGroupBytes, out += kGroupBytes, len -= kGroupBytes) {
    keystream_group(round_keys, rounds, ctr, b, [] {});
    xor_store_group(in, out, b);
  }
  if (len > 0) {
    keystream_group(round_keys, rounds, ctr, b, [] {});
    xor_store_tail(in, len, out, b);
  }
}

void ghash_vaes(const std::uint8_t* h_powers, ByteView aad, ByteView ciphertext,
                std::uint8_t s[16]) {
  __m128i y = ghash_absorb(_mm_setzero_si128(), aad.data(), aad.size(), h_powers);
  y = ghash_absorb(y, ciphertext.data(), ciphertext.size(), h_powers);
  ghash_finish(y, aad.size(), ciphertext.size(), h_powers, s);
}

void gcm_seal_vaes(const std::uint8_t* round_keys, int rounds, const std::uint8_t* h_powers,
                   const std::uint8_t j0[16], ByteView aad, ByteView plaintext,
                   std::uint8_t* out, std::uint8_t s[16]) {
  const std::uint8_t* in = plaintext.data();
  std::size_t len = plaintext.size();
  __m128i y = ghash_absorb(_mm_setzero_si128(), aad.data(), aad.size(), h_powers);
  __m512i ctr = first_counters(j0);
  __m512i b[4];
  __m512i prev[4];  // the previous group's ciphertext, byte-reversed for GHASH
  bool have_prev = false;
  for (; len >= kGroupBytes; in += kGroupBytes, out += kGroupBytes, len -= kGroupBytes) {
    Product p{};
    keystream_group(round_keys, rounds, ctr, b, [&] {
      if (have_prev) p = ghash_multiply(y, prev, 16, h_powers);
    });
    if (have_prev) y = ghash_reduce(p);
    xor_store_group(in, out, b);
#pragma GCC unroll 4
    for (std::size_t q = 0; q < 4; ++q) prev[q] = byte_reverse(b[q]);
    have_prev = true;
  }
  if (have_prev) y = ghash_reduce(ghash_multiply(y, prev, 16, h_powers));
  if (len > 0) {
    keystream_group(round_keys, rounds, ctr, b, [] {});
    xor_store_tail(in, len, out, b);
#pragma GCC unroll 4
    for (__m512i& v : b) v = byte_reverse(v);
    y = ghash_reduce(ghash_multiply(y, b, blocks_in(len), h_powers));
  }
  ghash_finish(y, aad.size(), plaintext.size(), h_powers, s);
}

void gcm_reprotect_vaes(const GcmSide& from, const GcmSide& to, ByteView ciphertext,
                        std::uint8_t* out, std::uint8_t s_from[16], std::uint8_t s_to[16]) {
  const std::uint8_t* in = ciphertext.data();
  std::size_t len = ciphertext.size();
  __m128i y_from = ghash_absorb(_mm_setzero_si128(), from.aad.data(), from.aad.size(),
                                from.h_powers);
  __m128i y_to = ghash_absorb(_mm_setzero_si128(), to.aad.data(), to.aad.size(), to.h_powers);
  __m512i ctr_from = first_counters(from.j0);
  __m512i ctr_to = first_counters(to.j0);
  __m512i ks_from[4], ks_to[4];
  __m512i c[4];     // this group's inbound ciphertext
  __m512i prev[4];  // the previous group's outbound ciphertext, byte-reversed for GHASH
  bool have_prev = false;
  for (; len >= kGroupBytes; in += kGroupBytes, out += kGroupBytes, len -= kGroupBytes) {
#pragma GCC unroll 4
    for (std::size_t q = 0; q < 4; ++q) c[q] = _mm512_loadu_si512(in + 64 * q);
    // The inbound group is in hand before its keystream, so its GHASH
    // multiply and the previous outbound group's both run between the AES
    // rounds.
    Product p_from{}, p_to{};
    keystream_pair(from, ctr_from, ks_from, to, ctr_to, ks_to, [&] {
      __m512i x[4];
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) x[q] = byte_reverse(c[q]);
      p_from = ghash_multiply(y_from, x, 16, from.h_powers);
      if (have_prev) p_to = ghash_multiply(y_to, prev, 16, to.h_powers);
    });
    y_from = ghash_reduce(p_from);
    if (have_prev) y_to = ghash_reduce(p_to);
#pragma GCC unroll 4
    for (std::size_t q = 0; q < 4; ++q) {
      const __m512i o = _mm512_ternarylogic_epi64(c[q], ks_from[q], ks_to[q], 0x96);
      _mm512_storeu_si512(out + 64 * q, o);
      prev[q] = byte_reverse(o);
    }
    have_prev = true;
  }
  if (have_prev) y_to = ghash_reduce(ghash_multiply(y_to, prev, 16, to.h_powers));
  if (len > 0) {
    // Byte-masked tail: lanes past `len` load, keep and store nothing, and
    // read as zero for GHASH's padding.
    __mmask64 mask[4];
#pragma GCC unroll 4
    for (std::size_t q = 0; q < 4; ++q) {
      const std::size_t off = 64 * q;
      mask[q] = off < len ? first_bytes(len - off) : __mmask64{0};
      c[q] = _mm512_maskz_loadu_epi8(mask[q], in + off);
    }
    keystream_pair(from, ctr_from, ks_from, to, ctr_to, ks_to, [] {});
#pragma GCC unroll 4
    for (std::size_t q = 0; q < 4; ++q) {
      const __m512i o =
          _mm512_maskz_mov_epi8(mask[q], _mm512_ternarylogic_epi64(c[q], ks_from[q], ks_to[q], 0x96));
      _mm512_mask_storeu_epi8(out + 64 * q, mask[q], o);
      c[q] = byte_reverse(c[q]);
      prev[q] = byte_reverse(o);
    }
    y_from = ghash_reduce(ghash_multiply(y_from, c, blocks_in(len), from.h_powers));
    y_to = ghash_reduce(ghash_multiply(y_to, prev, blocks_in(len), to.h_powers));
  }
  ghash_finish(y_from, from.aad.size(), ciphertext.size(), from.h_powers, s_from);
  ghash_finish(y_to, to.aad.size(), ciphertext.size(), to.h_powers, s_to);
}

}  // namespace mbtls::crypto::accel
