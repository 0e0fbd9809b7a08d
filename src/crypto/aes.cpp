#include "crypto/aes.h"

#include <cstring>
#include <stdexcept>

#include "crypto/backend.h"

namespace mbtls::crypto {

namespace {

// GF(2^8) multiply with the AES reduction polynomial x^8+x^4+x^3+x+1 (0x11b).
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  while (b) {
    if (b & 1) p ^= a;
    const bool hi = a & 0x80;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

struct SboxTables {
  std::array<std::uint8_t, 256> sbox;
  std::array<std::uint8_t, 256> inv_sbox;
  // GF(2^8) multiplication tables for the MixColumns coefficients.
  std::array<std::uint8_t, 256> mul2, mul3, mul9, mul11, mul13, mul14;
  // T-tables fusing SubBytes + MixColumns for the encryption rounds. Each
  // entry packs the four output-byte contributions of one input byte,
  // little-endian (byte r at bits 8r). T1/T2/T3 are byte rotations of T0.
  std::array<std::uint32_t, 256> t0, t1, t2, t3;

  SboxTables() {
    // Build the multiplicative inverse table via 3 as a generator of
    // GF(2^8)*: 3^i enumerates all non-zero elements, and inv(3^i) = 3^(255-i).
    std::array<std::uint8_t, 256> log{}, exp{};
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[static_cast<std::size_t>(i)] = x;
      log[x] = static_cast<std::uint8_t>(i);
      x = static_cast<std::uint8_t>(x ^ gf_mul(x, 2));  // multiply by 3 = x * 2 + x
    }
    auto inverse = [&](std::uint8_t v) -> std::uint8_t {
      if (v == 0) return 0;
      return exp[static_cast<std::size_t>((255 - log[v]) % 255)];
    };
    auto rotl8 = [](std::uint8_t v, int n) {
      return static_cast<std::uint8_t>((v << n) | (v >> (8 - n)));
    };
    for (int i = 0; i < 256; ++i) {
      const std::uint8_t inv = inverse(static_cast<std::uint8_t>(i));
      const std::uint8_t s = static_cast<std::uint8_t>(inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^
                                                       rotl8(inv, 3) ^ rotl8(inv, 4) ^ 0x63);
      sbox[static_cast<std::size_t>(i)] = s;
      inv_sbox[s] = static_cast<std::uint8_t>(i);
    }
    for (int i = 0; i < 256; ++i) {
      const auto b = static_cast<std::uint8_t>(i);
      mul2[b] = gf_mul(b, 2);
      mul3[b] = gf_mul(b, 3);
      mul9[b] = gf_mul(b, 9);
      mul11[b] = gf_mul(b, 11);
      mul13[b] = gf_mul(b, 13);
      mul14[b] = gf_mul(b, 14);
    }
    for (int i = 0; i < 256; ++i) {
      const std::uint8_t s = sbox[static_cast<std::size_t>(i)];
      const std::uint32_t s2 = mul2[s], s3 = mul3[s];
      t0[static_cast<std::size_t>(i)] =
          s2 | (static_cast<std::uint32_t>(s) << 8) | (static_cast<std::uint32_t>(s) << 16) |
          (s3 << 24);
      t1[static_cast<std::size_t>(i)] =
          s3 | (s2 << 8) | (static_cast<std::uint32_t>(s) << 16) |
          (static_cast<std::uint32_t>(s) << 24);
      t2[static_cast<std::size_t>(i)] =
          static_cast<std::uint32_t>(s) | (s3 << 8) | (s2 << 16) |
          (static_cast<std::uint32_t>(s) << 24);
      t3[static_cast<std::size_t>(i)] =
          static_cast<std::uint32_t>(s) | (static_cast<std::uint32_t>(s) << 8) | (s3 << 16) |
          (s2 << 24);
    }
  }
};

const SboxTables& tables() {
  static const SboxTables t;
  return t;
}

std::uint8_t sub(std::uint8_t b) { return tables().sbox[b]; }
std::uint8_t inv_sub(std::uint8_t b) { return tables().inv_sbox[b]; }

inline std::uint32_t load_col(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

Aes::Aes(ByteView key) : key_size_(key.size()) {
  int nk;  // key length in 32-bit words
  switch (key.size()) {
    case 16: nk = 4; rounds_ = 10; break;
    case 24: nk = 6; rounds_ = 12; break;
    case 32: nk = 8; rounds_ = 14; break;
    default: throw std::invalid_argument("AES key must be 16/24/32 bytes");
  }
  const Backend active = active_backend();
  if (active != Backend::kScalar && aesni_available()) backend_ = active;
  if (accelerated() && key.size() != 24) {
    // AESKEYGENASSIST schedule; byte-identical to the scalar expansion below
    // (diff-tested). 192-bit keys stay on the scalar path -- GCM never uses
    // them and the intrinsic recurrence for nk=6 straddles register halves.
    accel::aes_key_expand(key.data(), key.size(), round_keys_.data());
    return;
  }
  const int total_words = 4 * (rounds_ + 1);
  // Key expansion (FIPS 197 §5.2), word-oriented over the byte array.
  std::memcpy(round_keys_.data(), key.data(), key.size());
  std::uint8_t rcon = 1;
  for (int i = nk; i < total_words; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, round_keys_.data() + 4 * (i - 1), 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(sub(temp[1]) ^ rcon);
      temp[1] = sub(temp[2]);
      temp[2] = sub(temp[3]);
      temp[3] = sub(t0);
      rcon = gf_mul(rcon, 2);
    } else if (nk > 6 && i % nk == 4) {
      for (auto& t : temp) t = sub(t);
    }
    for (int j = 0; j < 4; ++j) {
      round_keys_[static_cast<std::size_t>(4 * i + j)] =
          round_keys_[static_cast<std::size_t>(4 * (i - nk) + j)] ^ temp[j];
    }
  }
}

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  if (accelerated()) {
    accel::aes_encrypt_block(round_keys_.data(), rounds_, in, out);
    return;
  }
  // T-table implementation: each round is 16 table lookups + XORs. State is
  // held as four little-endian 32-bit columns (byte r of column c at bits
  // 8r of word c), matching the byte-array layout s[4c + r].
  const auto& t = tables();
  const std::uint8_t* rk = round_keys_.data();
  std::uint32_t c0 = load_col(in) ^ load_col(rk);
  std::uint32_t c1 = load_col(in + 4) ^ load_col(rk + 4);
  std::uint32_t c2 = load_col(in + 8) ^ load_col(rk + 8);
  std::uint32_t c3 = load_col(in + 12) ^ load_col(rk + 12);

  for (int round = 1; round < rounds_; ++round) {
    rk = round_keys_.data() + 16 * round;
    const std::uint32_t n0 = t.t0[c0 & 0xff] ^ t.t1[(c1 >> 8) & 0xff] ^
                             t.t2[(c2 >> 16) & 0xff] ^ t.t3[(c3 >> 24) & 0xff] ^ load_col(rk);
    const std::uint32_t n1 = t.t0[c1 & 0xff] ^ t.t1[(c2 >> 8) & 0xff] ^
                             t.t2[(c3 >> 16) & 0xff] ^ t.t3[(c0 >> 24) & 0xff] ^ load_col(rk + 4);
    const std::uint32_t n2 = t.t0[c2 & 0xff] ^ t.t1[(c3 >> 8) & 0xff] ^
                             t.t2[(c0 >> 16) & 0xff] ^ t.t3[(c1 >> 24) & 0xff] ^ load_col(rk + 8);
    const std::uint32_t n3 = t.t0[c3 & 0xff] ^ t.t1[(c0 >> 8) & 0xff] ^
                             t.t2[(c1 >> 16) & 0xff] ^ t.t3[(c2 >> 24) & 0xff] ^ load_col(rk + 12);
    c0 = n0;
    c1 = n1;
    c2 = n2;
    c3 = n3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  rk = round_keys_.data() + 16 * rounds_;
  const std::uint32_t cols[4] = {c0, c1, c2, c3};
  for (int c = 0; c < 4; ++c) {
    out[4 * c + 0] = static_cast<std::uint8_t>(t.sbox[cols[c] & 0xff] ^ rk[4 * c + 0]);
    out[4 * c + 1] = static_cast<std::uint8_t>(t.sbox[(cols[(c + 1) % 4] >> 8) & 0xff] ^
                                               rk[4 * c + 1]);
    out[4 * c + 2] = static_cast<std::uint8_t>(t.sbox[(cols[(c + 2) % 4] >> 16) & 0xff] ^
                                               rk[4 * c + 2]);
    out[4 * c + 3] = static_cast<std::uint8_t>(t.sbox[(cols[(c + 3) % 4] >> 24) & 0xff] ^
                                               rk[4 * c + 3]);
  }
}

void Aes::encrypt4(const std::uint8_t in[64], std::uint8_t out[64]) const {
  if (accelerated()) {
    accel::aes_encrypt4(round_keys_.data(), rounds_, in, out);
    return;
  }
  // Four T-table states advanced in lockstep. A single block's round has a
  // serial dependency chain of table lookups; interleaving four independent
  // blocks lets the loads overlap, which is where the CTR keystream speedup
  // comes from on a scalar core.
  const auto& t = tables();
  std::uint32_t c[4][4];
  const std::uint8_t* rk = round_keys_.data();
  for (int b = 0; b < 4; ++b)
    for (int w = 0; w < 4; ++w) c[b][w] = load_col(in + 16 * b + 4 * w) ^ load_col(rk + 4 * w);

  for (int round = 1; round < rounds_; ++round) {
    rk = round_keys_.data() + 16 * round;
    const std::uint32_t k0 = load_col(rk);
    const std::uint32_t k1 = load_col(rk + 4);
    const std::uint32_t k2 = load_col(rk + 8);
    const std::uint32_t k3 = load_col(rk + 12);
    for (int b = 0; b < 4; ++b) {
      const std::uint32_t n0 = t.t0[c[b][0] & 0xff] ^ t.t1[(c[b][1] >> 8) & 0xff] ^
                               t.t2[(c[b][2] >> 16) & 0xff] ^ t.t3[(c[b][3] >> 24) & 0xff] ^ k0;
      const std::uint32_t n1 = t.t0[c[b][1] & 0xff] ^ t.t1[(c[b][2] >> 8) & 0xff] ^
                               t.t2[(c[b][3] >> 16) & 0xff] ^ t.t3[(c[b][0] >> 24) & 0xff] ^ k1;
      const std::uint32_t n2 = t.t0[c[b][2] & 0xff] ^ t.t1[(c[b][3] >> 8) & 0xff] ^
                               t.t2[(c[b][0] >> 16) & 0xff] ^ t.t3[(c[b][1] >> 24) & 0xff] ^ k2;
      const std::uint32_t n3 = t.t0[c[b][3] & 0xff] ^ t.t1[(c[b][0] >> 8) & 0xff] ^
                               t.t2[(c[b][1] >> 16) & 0xff] ^ t.t3[(c[b][2] >> 24) & 0xff] ^ k3;
      c[b][0] = n0;
      c[b][1] = n1;
      c[b][2] = n2;
      c[b][3] = n3;
    }
  }

  rk = round_keys_.data() + 16 * rounds_;
  for (int b = 0; b < 4; ++b) {
    std::uint8_t* o = out + 16 * b;
    for (int col = 0; col < 4; ++col) {
      o[4 * col + 0] = static_cast<std::uint8_t>(t.sbox[c[b][col] & 0xff] ^ rk[4 * col + 0]);
      o[4 * col + 1] =
          static_cast<std::uint8_t>(t.sbox[(c[b][(col + 1) % 4] >> 8) & 0xff] ^ rk[4 * col + 1]);
      o[4 * col + 2] =
          static_cast<std::uint8_t>(t.sbox[(c[b][(col + 2) % 4] >> 16) & 0xff] ^ rk[4 * col + 2]);
      o[4 * col + 3] =
          static_cast<std::uint8_t>(t.sbox[(c[b][(col + 3) % 4] >> 24) & 0xff] ^ rk[4 * col + 3]);
    }
  }
}

void Aes::decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  auto add_round_key = [&](int round) {
    const std::uint8_t* rk = round_keys_.data() + 16 * round;
    for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
  };
  auto inv_sub_bytes = [&] {
    for (auto& b : s) b = inv_sub(b);
  };
  auto inv_shift_rows = [&] {
    std::uint8_t t[16];
    for (int c = 0; c < 4; ++c)
      for (int r = 0; r < 4; ++r) t[4 * ((c + r) % 4) + r] = s[4 * c + r];
    std::memcpy(s, t, 16);
  };
  const auto& t = tables();
  auto inv_mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = s + 4 * c;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<std::uint8_t>(t.mul14[a0] ^ t.mul11[a1] ^ t.mul13[a2] ^ t.mul9[a3]);
      col[1] = static_cast<std::uint8_t>(t.mul9[a0] ^ t.mul14[a1] ^ t.mul11[a2] ^ t.mul13[a3]);
      col[2] = static_cast<std::uint8_t>(t.mul13[a0] ^ t.mul9[a1] ^ t.mul14[a2] ^ t.mul11[a3]);
      col[3] = static_cast<std::uint8_t>(t.mul11[a0] ^ t.mul13[a1] ^ t.mul9[a2] ^ t.mul14[a3]);
    }
  };

  add_round_key(rounds_);
  for (int round = rounds_ - 1; round > 0; --round) {
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_round_key(0);
  std::memcpy(out, s, 16);
}

}  // namespace mbtls::crypto
