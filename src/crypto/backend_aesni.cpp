// x86-64 accelerated backend: AES-NI block/CTR paths, PCLMULQDQ GHASH with
// precomputed H powers, and (when the toolchain has -msha) SHA-NI SHA-256.
// backend_vaes.cpp widens the AES-GCM bulk paths to 512 bits on top of it.
//
// This is the only translation unit compiled with the -maes/-mpclmul/-mssse3/
// -msse4.1 [-msha] flags; everything it exports is declared in backend.h and
// reached through runtime dispatch, so the rest of the library stays portable.
// Byte-compatibility contract: every function here must produce output
// identical to the scalar implementation it replaces — tests/test_crypto_diff
// enforces this across backends against the MBTLS_REFERENCE_CRYPTO oracle.
//
// Register hygiene: locals holding key material (round keys, GHASH key
// powers, key-schedule temporaries) are named so mbtls-lint's wipe-all-paths
// rule tracks them, and are zeroed via secure_wipe_object() before returning.
#include "crypto/backend.h"

#include <immintrin.h>

#include <array>
#include <cstring>

#include "crypto/ghash_clmul.h"

namespace mbtls::crypto::accel {

namespace {

// ------------------------------------------------------------- key schedule

// FIPS-197 word recurrence over one 128-bit register: each 32-bit lane
// becomes the XOR of itself and every lane below it (three shift-fold steps),
// ready to take the RotWord/SubWord/Rcon word broadcast across all lanes.
inline __m128i prefix_xor_fold(__m128i k) {
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  return _mm_xor_si128(k, _mm_slli_si128(k, 4));
}

}  // namespace

void aes_key_expand(const std::uint8_t* key, std::size_t key_len, std::uint8_t* round_keys) {
  __m128i* rk = reinterpret_cast<__m128i*>(round_keys);
  if (key_len == 16) {
    __m128i key_vec = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
    _mm_storeu_si128(rk + 0, key_vec);
    // AESKEYGENASSIST's imm8 must be a literal, so the ten rcon steps unroll.
    const auto step = [&key_vec](__m128i keygened) {
      keygened = _mm_shuffle_epi32(keygened, 0xff);  // broadcast RotSub+rcon word
      key_vec = _mm_xor_si128(prefix_xor_fold(key_vec), keygened);
      return key_vec;
    };
    _mm_storeu_si128(rk + 1, step(_mm_aeskeygenassist_si128(key_vec, 0x01)));
    _mm_storeu_si128(rk + 2, step(_mm_aeskeygenassist_si128(key_vec, 0x02)));
    _mm_storeu_si128(rk + 3, step(_mm_aeskeygenassist_si128(key_vec, 0x04)));
    _mm_storeu_si128(rk + 4, step(_mm_aeskeygenassist_si128(key_vec, 0x08)));
    _mm_storeu_si128(rk + 5, step(_mm_aeskeygenassist_si128(key_vec, 0x10)));
    _mm_storeu_si128(rk + 6, step(_mm_aeskeygenassist_si128(key_vec, 0x20)));
    _mm_storeu_si128(rk + 7, step(_mm_aeskeygenassist_si128(key_vec, 0x40)));
    _mm_storeu_si128(rk + 8, step(_mm_aeskeygenassist_si128(key_vec, 0x80)));
    _mm_storeu_si128(rk + 9, step(_mm_aeskeygenassist_si128(key_vec, 0x1b)));
    _mm_storeu_si128(rk + 10, step(_mm_aeskeygenassist_si128(key_vec, 0x36)));
    secure_wipe_object(key_vec);
    return;
  }

  // AES-256: two halves advance alternately; even round keys take the full
  // RotWord/SubWord/Rcon word, odd ones only SubWord (dword 2 of the assist).
  __m128i key_lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  __m128i key_hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key + 16));
  _mm_storeu_si128(rk + 0, key_lo);
  _mm_storeu_si128(rk + 1, key_hi);
  const auto even_step = [&](__m128i keygened) {
    keygened = _mm_shuffle_epi32(keygened, 0xff);
    key_lo = _mm_xor_si128(prefix_xor_fold(key_lo), keygened);
    return key_lo;
  };
  const auto odd_step = [&] {
    const __m128i keygened =
        _mm_shuffle_epi32(_mm_aeskeygenassist_si128(key_lo, 0x00), 0xaa);
    key_hi = _mm_xor_si128(prefix_xor_fold(key_hi), keygened);
    return key_hi;
  };
  _mm_storeu_si128(rk + 2, even_step(_mm_aeskeygenassist_si128(key_hi, 0x01)));
  _mm_storeu_si128(rk + 3, odd_step());
  _mm_storeu_si128(rk + 4, even_step(_mm_aeskeygenassist_si128(key_hi, 0x02)));
  _mm_storeu_si128(rk + 5, odd_step());
  _mm_storeu_si128(rk + 6, even_step(_mm_aeskeygenassist_si128(key_hi, 0x04)));
  _mm_storeu_si128(rk + 7, odd_step());
  _mm_storeu_si128(rk + 8, even_step(_mm_aeskeygenassist_si128(key_hi, 0x08)));
  _mm_storeu_si128(rk + 9, odd_step());
  _mm_storeu_si128(rk + 10, even_step(_mm_aeskeygenassist_si128(key_hi, 0x10)));
  _mm_storeu_si128(rk + 11, odd_step());
  _mm_storeu_si128(rk + 12, even_step(_mm_aeskeygenassist_si128(key_hi, 0x20)));
  _mm_storeu_si128(rk + 13, odd_step());
  _mm_storeu_si128(rk + 14, even_step(_mm_aeskeygenassist_si128(key_hi, 0x40)));
  secure_wipe_object(key_lo);
  secure_wipe_object(key_hi);
}

// ------------------------------------------------------------- block cipher

void aes_encrypt_block(const std::uint8_t* round_keys, int rounds, const std::uint8_t in[16],
                       std::uint8_t out[16]) {
  const __m128i* rk = reinterpret_cast<const __m128i*>(round_keys);
  __m128i b = _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
                            _mm_loadu_si128(rk));
  for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, _mm_loadu_si128(rk + r));
  b = _mm_aesenclast_si128(b, _mm_loadu_si128(rk + rounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), b);
}

void aes_encrypt4(const std::uint8_t* round_keys, int rounds, const std::uint8_t in[64],
                  std::uint8_t out[64]) {
  const __m128i* rk = reinterpret_cast<const __m128i*>(round_keys);
  const __m128i* src = reinterpret_cast<const __m128i*>(in);
  __m128i* dst = reinterpret_cast<__m128i*>(out);
  const __m128i k0 = _mm_loadu_si128(rk);
  __m128i b0 = _mm_xor_si128(_mm_loadu_si128(src + 0), k0);
  __m128i b1 = _mm_xor_si128(_mm_loadu_si128(src + 1), k0);
  __m128i b2 = _mm_xor_si128(_mm_loadu_si128(src + 2), k0);
  __m128i b3 = _mm_xor_si128(_mm_loadu_si128(src + 3), k0);
  for (int r = 1; r < rounds; ++r) {
    const __m128i kr = _mm_loadu_si128(rk + r);
    b0 = _mm_aesenc_si128(b0, kr);
    b1 = _mm_aesenc_si128(b1, kr);
    b2 = _mm_aesenc_si128(b2, kr);
    b3 = _mm_aesenc_si128(b3, kr);
  }
  const __m128i klast = _mm_loadu_si128(rk + rounds);
  _mm_storeu_si128(dst + 0, _mm_aesenclast_si128(b0, klast));
  _mm_storeu_si128(dst + 1, _mm_aesenclast_si128(b1, klast));
  _mm_storeu_si128(dst + 2, _mm_aesenclast_si128(b2, klast));
  _mm_storeu_si128(dst + 3, _mm_aesenclast_si128(b3, klast));
}

// ------------------------------------------------------------ CTR keystream

void aes_ctr_xor(const std::uint8_t* rk_bytes, int rounds, const std::uint8_t j0[16],
                 const std::uint8_t* in, std::size_t len, std::uint8_t* out) {
  if (len == 0) return;
  // Hoist the schedule into registers/stack once per call; wiped on exit.
  std::array<__m128i, 15> cipher_keys;
  for (int r = 0; r <= rounds; ++r)
    cipher_keys[static_cast<std::size_t>(r)] =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk_bytes + 16 * r));

  const __m128i j0_vec = _mm_loadu_si128(reinterpret_cast<const __m128i*>(j0));
  std::uint32_t ctr = load_be32(j0 + 12);
  // Counter block c: J0 with its big-endian low word replaced. The scalar
  // path pre-increments, so block k of the message uses counter_0 + k + 1.
  const auto counter_block = [&j0_vec](std::uint32_t c) {
    return _mm_insert_epi32(j0_vec, static_cast<int>(__builtin_bswap32(c)), 3);
  };

  // Eight blocks in flight: AESENC has multi-cycle latency but single-cycle
  // throughput, so independent states hide the chain the scalar T-table
  // encrypt4 could only partially overlap.
  while (len >= 128) {
    __m128i b0 = _mm_xor_si128(counter_block(ctr + 1), cipher_keys[0]);
    __m128i b1 = _mm_xor_si128(counter_block(ctr + 2), cipher_keys[0]);
    __m128i b2 = _mm_xor_si128(counter_block(ctr + 3), cipher_keys[0]);
    __m128i b3 = _mm_xor_si128(counter_block(ctr + 4), cipher_keys[0]);
    __m128i b4 = _mm_xor_si128(counter_block(ctr + 5), cipher_keys[0]);
    __m128i b5 = _mm_xor_si128(counter_block(ctr + 6), cipher_keys[0]);
    __m128i b6 = _mm_xor_si128(counter_block(ctr + 7), cipher_keys[0]);
    __m128i b7 = _mm_xor_si128(counter_block(ctr + 8), cipher_keys[0]);
    for (int r = 1; r < rounds; ++r) {
      const __m128i kr = cipher_keys[static_cast<std::size_t>(r)];
      b0 = _mm_aesenc_si128(b0, kr);
      b1 = _mm_aesenc_si128(b1, kr);
      b2 = _mm_aesenc_si128(b2, kr);
      b3 = _mm_aesenc_si128(b3, kr);
      b4 = _mm_aesenc_si128(b4, kr);
      b5 = _mm_aesenc_si128(b5, kr);
      b6 = _mm_aesenc_si128(b6, kr);
      b7 = _mm_aesenc_si128(b7, kr);
    }
    const __m128i klast = cipher_keys[static_cast<std::size_t>(rounds)];
    b0 = _mm_aesenclast_si128(b0, klast);
    b1 = _mm_aesenclast_si128(b1, klast);
    b2 = _mm_aesenclast_si128(b2, klast);
    b3 = _mm_aesenclast_si128(b3, klast);
    b4 = _mm_aesenclast_si128(b4, klast);
    b5 = _mm_aesenclast_si128(b5, klast);
    b6 = _mm_aesenclast_si128(b6, klast);
    b7 = _mm_aesenclast_si128(b7, klast);
    const __m128i* src = reinterpret_cast<const __m128i*>(in);
    __m128i* dst = reinterpret_cast<__m128i*>(out);
    _mm_storeu_si128(dst + 0, _mm_xor_si128(b0, _mm_loadu_si128(src + 0)));
    _mm_storeu_si128(dst + 1, _mm_xor_si128(b1, _mm_loadu_si128(src + 1)));
    _mm_storeu_si128(dst + 2, _mm_xor_si128(b2, _mm_loadu_si128(src + 2)));
    _mm_storeu_si128(dst + 3, _mm_xor_si128(b3, _mm_loadu_si128(src + 3)));
    _mm_storeu_si128(dst + 4, _mm_xor_si128(b4, _mm_loadu_si128(src + 4)));
    _mm_storeu_si128(dst + 5, _mm_xor_si128(b5, _mm_loadu_si128(src + 5)));
    _mm_storeu_si128(dst + 6, _mm_xor_si128(b6, _mm_loadu_si128(src + 6)));
    _mm_storeu_si128(dst + 7, _mm_xor_si128(b7, _mm_loadu_si128(src + 7)));
    ctr += 8;
    in += 128;
    out += 128;
    len -= 128;
  }

  // Tail: single blocks, partial final block via a keystream staging buffer.
  while (len > 0) {
    __m128i b = _mm_xor_si128(counter_block(++ctr), cipher_keys[0]);
    for (int r = 1; r < rounds; ++r)
      b = _mm_aesenc_si128(b, cipher_keys[static_cast<std::size_t>(r)]);
    b = _mm_aesenclast_si128(b, cipher_keys[static_cast<std::size_t>(rounds)]);
    if (len >= 16) {
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out),
          _mm_xor_si128(b, _mm_loadu_si128(reinterpret_cast<const __m128i*>(in))));
      in += 16;
      out += 16;
      len -= 16;
    } else {
      std::uint8_t keystream[16];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(keystream), b);
      for (std::size_t i = 0; i < len; ++i)
        out[i] = static_cast<std::uint8_t>(in[i] ^ keystream[i]);
      len = 0;
    }
  }
  secure_wipe_object(cipher_keys);
}

// ------------------------------------------------------------------- GHASH
//
// GF(2^128) arithmetic is crypto/ghash_clmul.h; the three-accumulator split
// lets four block·H^i products share one reduction.

void ghash_init(const std::uint8_t h[16], std::uint8_t h_powers[16 * kGhashPowers]) {
  __m128i* table = reinterpret_cast<__m128i*>(h_powers);
  __m128i hash_key = clmul::byte_reverse(_mm_loadu_si128(reinterpret_cast<const __m128i*>(h)));
  __m128i hash_key_power = hash_key;
  _mm_storeu_si128(table, hash_key);
  for (std::size_t i = 1; i < kGhashPowers; ++i) {
    hash_key_power = clmul::multiply(hash_key_power, hash_key);
    _mm_storeu_si128(table + i, hash_key_power);
  }
  secure_wipe_object(hash_key);
  secure_wipe_object(hash_key_power);
}

void ghash(const std::uint8_t* h_powers, ByteView aad, ByteView ciphertext,
           std::uint8_t out[16]) {
  const __m128i* table = reinterpret_cast<const __m128i*>(h_powers);
  __m128i hash_key1 = _mm_loadu_si128(table + 0);
  __m128i hash_key2 = _mm_loadu_si128(table + 1);
  __m128i hash_key3 = _mm_loadu_si128(table + 2);
  __m128i hash_key4 = _mm_loadu_si128(table + 3);
  __m128i y = _mm_setzero_si128();

  const auto absorb = [&](ByteView data) {
    const std::uint8_t* p = data.data();
    std::size_t len = data.size();
    while (len >= 64) {
      const __m128i* blocks = reinterpret_cast<const __m128i*>(p);
      const __m128i x1 = clmul::byte_reverse(_mm_loadu_si128(blocks + 0));
      const __m128i x2 = clmul::byte_reverse(_mm_loadu_si128(blocks + 1));
      const __m128i x3 = clmul::byte_reverse(_mm_loadu_si128(blocks + 2));
      const __m128i x4 = clmul::byte_reverse(_mm_loadu_si128(blocks + 3));
      __m128i lo = _mm_setzero_si128();
      __m128i mid = _mm_setzero_si128();
      __m128i hi = _mm_setzero_si128();
      // (Y^X1)*H^4 + X2*H^3 + X3*H^2 + X4*H, one reduction for four blocks.
      clmul::multiply_accumulate(_mm_xor_si128(y, x1), hash_key4, lo, mid, hi);
      clmul::multiply_accumulate(x2, hash_key3, lo, mid, hi);
      clmul::multiply_accumulate(x3, hash_key2, lo, mid, hi);
      clmul::multiply_accumulate(x4, hash_key1, lo, mid, hi);
      y = clmul::fold_reduce(lo, mid, hi);
      p += 64;
      len -= 64;
    }
    while (len >= 16) {
      const __m128i x =
          clmul::byte_reverse(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
      y = clmul::multiply(_mm_xor_si128(y, x), hash_key1);
      p += 16;
      len -= 16;
    }
    if (len > 0) {
      std::uint8_t block[16] = {0};
      std::memcpy(block, p, len);
      const __m128i x =
          clmul::byte_reverse(_mm_loadu_si128(reinterpret_cast<const __m128i*>(block)));
      y = clmul::multiply(_mm_xor_si128(y, x), hash_key1);
    }
  };
  absorb(aad);
  absorb(ciphertext);

  std::uint8_t len_block[16];
  store_be64(len_block, static_cast<std::uint64_t>(aad.size()) * 8);
  store_be64(len_block + 8, static_cast<std::uint64_t>(ciphertext.size()) * 8);
  const __m128i lengths =
      clmul::byte_reverse(_mm_loadu_si128(reinterpret_cast<const __m128i*>(len_block)));
  y = clmul::multiply(_mm_xor_si128(y, lengths), hash_key1);

  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), clmul::byte_reverse(y));
  secure_wipe_object(hash_key1);
  secure_wipe_object(hash_key2);
  secure_wipe_object(hash_key3);
  secure_wipe_object(hash_key4);
}

// ----------------------------------------------------------------- SHA-256

#ifdef MBTLS_HAVE_SHANI_BUILD

namespace {

// Same FIPS 180-4 constants as sha2.cpp; duplicated here so the scalar TU
// stays free of intrinsic-flag coupling.
constexpr std::uint32_t kShaK256[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// Byte shuffle turning each big-endian 32-bit message word native.
inline __m128i sha_load_words(const std::uint8_t* p) {
  const __m128i kWordSwap = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), kWordSwap);
}

}  // namespace

void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks, std::size_t nblocks) {
  // Pack {a..h} into the SHA-NI register layout: STATE0 = ABEF, STATE1 = CDGH
  // (highest dword first).
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1b);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);        // CDGH

  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* p = blocks + 64 * blk;
    const __m128i abef_saved = state0;
    const __m128i cdgh_saved = state1;

    __m128i msgs[4];
    for (int i = 0; i < 4; ++i) msgs[i] = sha_load_words(p + 16 * i);

    // 16 groups of four rounds. Group r consumes words 4r..4r+3 and (for
    // r < 12) computes words 4r+16..4r+19 in place via MSG1/MSG2.
    for (int r = 0; r < 16; ++r) {
      __m128i msg = _mm_add_epi32(
          msgs[r & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kShaK256[4 * r])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      msg = _mm_shuffle_epi32(msg, 0x0e);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (r < 12) {
        // w[i] = w[i-16] + s0(w[i-15]) + w[i-7] + s1(w[i-2])
        const __m128i w_minus_7 = _mm_alignr_epi8(msgs[(r + 3) & 3], msgs[(r + 2) & 3], 4);
        msgs[r & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(msgs[r & 3], msgs[(r + 1) & 3]), w_minus_7),
            msgs[(r + 3) & 3]);
      }
    }

    state0 = _mm_add_epi32(state0, abef_saved);
    state1 = _mm_add_epi32(state1, cdgh_saved);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1b);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xb1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);        // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);           // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#endif  // MBTLS_HAVE_SHANI_BUILD

}  // namespace mbtls::crypto::accel
