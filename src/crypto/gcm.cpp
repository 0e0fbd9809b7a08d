#include "crypto/gcm.h"

#include <cstring>
#include <stdexcept>

#include "crypto/backend.h"
#include "util/ct.h"

namespace mbtls::crypto {

namespace {
// One GF(2^128) "multiply by x" step in GCM's bit-reflected representation.
inline void shift_right_1(AesGcm::Block& v) {
  const bool lsb = (v.lo & 1) != 0;
  v.lo = (v.lo >> 1) | (v.hi << 63);
  v.hi >>= 1;
  if (lsb) v.hi ^= 0xe100000000000000ULL;
}

// Key-independent reduction table for shifting a block right by 8 bits:
// the low byte that falls off contributes R[byte] back into the high bits.
const std::array<AesGcm::Block, 256>& reduction_table() {
  static const auto table = [] {
    std::array<AesGcm::Block, 256> r{};
    for (int b = 0; b < 256; ++b) {
      AesGcm::Block v{0, static_cast<std::uint64_t>(b)};
      for (int i = 0; i < 8; ++i) shift_right_1(v);
      // After 8 shifts the surviving bits are exactly the reduction terms.
      r[static_cast<std::size_t>(b)] = v;
    }
    return r;
  }();
  return table;
}

inline AesGcm::Block shift_right_8(const AesGcm::Block& z) {
  const auto& r = reduction_table()[z.lo & 0xff];
  AesGcm::Block out;
  out.lo = (z.lo >> 8) | (z.hi << 56);
  out.hi = z.hi >> 8;
  out.hi ^= r.hi;
  out.lo ^= r.lo;
  return out;
}

// XOR eight bytes of `src` with eight bytes of `mask` into `dst` in one
// 64-bit operation (endianness-agnostic: XOR commutes with byte order).
inline void xor_word64(std::uint8_t* dst, const std::uint8_t* src, const std::uint8_t* mask) {
  std::uint64_t a, k;
  std::memcpy(&a, src, 8);
  std::memcpy(&k, mask, 8);
  a ^= k;
  std::memcpy(dst, &a, 8);
}

inline void make_j0(const ByteView& iv, std::uint8_t j0[16]) {
  if (iv.size() != AesGcm::kIvSize)
    throw std::invalid_argument("AES-GCM requires a 96-bit IV");
  std::memset(j0, 0, 16);
  std::memcpy(j0, iv.data(), 12);
  j0[15] = 1;
}
}  // namespace

AesGcm::AesGcm(ByteView key) : aes_(key) {
  if (key.size() != 16 && key.size() != 32)
    throw std::invalid_argument("AES-GCM key must be 16 or 32 bytes");
  std::uint8_t zero[16] = {0};
  std::uint8_t h[16];
  aes_.encrypt_block(zero, h);
  h_.hi = load_be64(h);
  h_.lo = load_be64(h + 8);
  // The backend is captured per object (in aes_), so a
  // force_backend_for_testing() switch affects contexts built afterwards --
  // live sessions never change backend mid-key.
  if (aes_.accelerated()) {
    accel::ghash_init(h, h_powers_.data());
    return;  // the table below serves only the scalar GHASH
  }
  // m_table_[b] = X_b * H where X_b has byte value b in the most significant
  // byte. Built with the (slow) bit-serial multiply; used on every block.
  for (int b = 0; b < 256; ++b) {
    Block z;     // accumulates X_b * H bit by bit
    Block v = h_;
    for (int bit = 0; bit < 8; ++bit) {
      if (b & (0x80 >> bit)) {
        z.hi ^= v.hi;
        z.lo ^= v.lo;
      }
      shift_right_1(v);
    }
    m_table_[static_cast<std::size_t>(b)] = z;
  }
}

AesGcm::Block AesGcm::ghash(ByteView aad, ByteView ciphertext) const {
  if (aes_.accelerated()) {
    std::uint8_t s[16];
    if (aes_.backend_ == Backend::kVaes) {
      accel::ghash_vaes(h_powers_.data(), aad, ciphertext, s);
    } else {
      accel::ghash(h_powers_.data(), aad, ciphertext, s);
    }
    return Block{load_be64(s), load_be64(s + 8)};
  }
  // Table-driven multiply: Z = Y * H computed byte-by-byte (Horner over the
  // bytes of Y, least significant byte first; each step shifts by x^8 and
  // adds byte * H from the per-key table).
  auto mul_h = [&](const Block& y) {
    Block z;
    for (int i = 15; i >= 0; --i) {
      const std::uint8_t byte =
          i < 8 ? static_cast<std::uint8_t>(y.hi >> (56 - 8 * i))
                : static_cast<std::uint8_t>(y.lo >> (56 - 8 * (i - 8)));
      z = shift_right_8(z);
      const Block& m = m_table_[byte];
      z.hi ^= m.hi;
      z.lo ^= m.lo;
    }
    return z;
  };

  Block y;
  auto absorb = [&](ByteView data) {
    const std::uint8_t* p = data.data();
    std::size_t len = data.size();
    // Full blocks load straight from the input — no staging copy.
    while (len >= 16) {
      y.hi ^= load_be64(p);
      y.lo ^= load_be64(p + 8);
      y = mul_h(y);
      p += 16;
      len -= 16;
    }
    if (len > 0) {
      std::uint8_t block[16] = {0};
      std::memcpy(block, p, len);
      y.hi ^= load_be64(block);
      y.lo ^= load_be64(block + 8);
      y = mul_h(y);
    }
  };
  absorb(aad);
  absorb(ciphertext);
  // Length block: 64-bit bit-lengths of AAD and ciphertext.
  y.hi ^= static_cast<std::uint64_t>(aad.size()) * 8;
  y.lo ^= static_cast<std::uint64_t>(ciphertext.size()) * 8;
  y = mul_h(y);
  return y;
}

AesGcm::Block AesGcm::ghash_reference(ByteView aad, ByteView ciphertext) const {
  // Bit-serial GF(2^128) multiply straight from SP 800-38D — the oracle the
  // table-driven path above is differentially tested against.
  auto mul_h = [&](const Block& y) {
    Block z;
    Block v = h_;
    for (int i = 0; i < 128; ++i) {
      const std::uint64_t bit = i < 64 ? (y.hi >> (63 - i)) & 1 : (y.lo >> (127 - i)) & 1;
      if (bit) {
        z.hi ^= v.hi;
        z.lo ^= v.lo;
      }
      shift_right_1(v);
    }
    return z;
  };

  Block y;
  auto absorb = [&](ByteView data) {
    std::size_t off = 0;
    while (off < data.size()) {
      std::uint8_t block[16] = {0};
      const std::size_t n = std::min<std::size_t>(16, data.size() - off);
      std::memcpy(block, data.data() + off, n);
      y.hi ^= load_be64(block);
      y.lo ^= load_be64(block + 8);
      y = mul_h(y);
      off += n;
    }
  };
  absorb(aad);
  absorb(ciphertext);
  y.hi ^= static_cast<std::uint64_t>(aad.size()) * 8;
  y.lo ^= static_cast<std::uint64_t>(ciphertext.size()) * 8;
  y = mul_h(y);
  return y;
}

void AesGcm::ctr_xor(const std::uint8_t j0[16], ByteView in, std::uint8_t* out) const {
  if (aes_.backend_ == Backend::kVaes) {
    accel::aes_ctr_xor_vaes(aes_.round_keys_.data(), aes_.rounds_, j0, in.data(), in.size(),
                            out);
    return;
  }
  if (aes_.backend_ == Backend::kAesni) {
    accel::aes_ctr_xor(aes_.round_keys_.data(), aes_.rounds_, j0, in.data(), in.size(), out);
    return;
  }
  std::uint32_t ctr = load_be32(j0 + 12);
  const std::uint8_t* src = in.data();
  std::size_t len = in.size();

  // Main path: four counter blocks encrypted per cipher call (the four
  // states pipeline through the T-table rounds), keystream applied with
  // 64-bit word XORs.
  std::uint8_t counters[64];
  std::uint8_t keystream[64];
  while (len >= 64) {
    for (int b = 0; b < 4; ++b) {
      std::memcpy(counters + 16 * b, j0, 12);
      store_be32(counters + 16 * b + 12, ++ctr);
    }
    aes_.encrypt4(counters, keystream);
    for (int w = 0; w < 8; ++w) xor_word64(out + 8 * w, src + 8 * w, keystream + 8 * w);
    src += 64;
    out += 64;
    len -= 64;
  }

  // Tail: one block at a time, word XOR for full blocks.
  while (len > 0) {
    std::memcpy(counters, j0, 12);
    store_be32(counters + 12, ++ctr);
    aes_.encrypt_block(counters, keystream);
    const std::size_t n = std::min<std::size_t>(16, len);
    if (n == 16) {
      xor_word64(out, src, keystream);
      xor_word64(out + 8, src + 8, keystream + 8);
    } else {
      for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(src[i] ^ keystream[i]);
    }
    src += n;
    out += n;
    len -= n;
  }
}

void AesGcm::ctr_xor_reference(const std::uint8_t j0[16], ByteView in, std::uint8_t* out) const {
  std::uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  std::uint32_t ctr = load_be32(counter + 12);
  std::size_t off = 0;
  while (off < in.size()) {
    ctr++;
    store_be32(counter + 12, ctr);
    std::uint8_t keystream[16];
    aes_.encrypt_block(counter, keystream);
    const std::size_t n = std::min<std::size_t>(16, in.size() - off);
    for (std::size_t i = 0; i < n; ++i) out[off + i] = in[off + i] ^ keystream[i];
    off += n;
  }
}

void AesGcm::compute_tag(const std::uint8_t j0[16], const Block& s,
                         std::uint8_t tag_out[16]) const {
  std::uint8_t tag_mask[16];
  aes_.encrypt_block(j0, tag_mask);
  store_be64(tag_out, s.hi);
  store_be64(tag_out + 8, s.lo);
  for (int i = 0; i < 16; ++i) tag_out[i] ^= tag_mask[i];
}

void AesGcm::seal_into(ByteView iv, ByteView aad, ByteView plaintext, MutableByteView out) const {
  if (out.size() != plaintext.size() + kTagSize)
    throw std::invalid_argument("seal_into: out must be plaintext + tag sized");
  std::uint8_t j0[16];
  make_j0(iv, j0);

#ifdef MBTLS_REFERENCE_CRYPTO
  ctr_xor_reference(j0, plaintext, out.data());
  const Block s = ghash_reference(aad, ByteView(out.data(), plaintext.size()));
#else
  if (aes_.backend_ == Backend::kVaes) {
    // One stitched pass: the wide kernel hashes each 16-block group of
    // ciphertext while it encrypts the next.
    std::uint8_t s_bytes[16];
    accel::gcm_seal_vaes(aes_.round_keys_.data(), aes_.rounds_, h_powers_.data(), j0, aad,
                         plaintext, out.data(), s_bytes);
    compute_tag(j0, Block{load_be64(s_bytes), load_be64(s_bytes + 8)},
                out.data() + plaintext.size());
    return;
  }
  ctr_xor(j0, plaintext, out.data());
  const Block s = ghash(aad, ByteView(out.data(), plaintext.size()));
#endif
  compute_tag(j0, s, out.data() + plaintext.size());
}

bool AesGcm::open_into(ByteView iv, ByteView aad, ByteView ciphertext_and_tag,
                       MutableByteView out) const {
  if (ciphertext_and_tag.size() < kTagSize) return false;
  const std::size_t ct_len = ciphertext_and_tag.size() - kTagSize;
  if (out.size() != ct_len)
    throw std::invalid_argument("open_into: out must be ciphertext sized");
  const ByteView ct = ciphertext_and_tag.first(ct_len);
  const ByteView tag = ciphertext_and_tag.subspan(ct_len);

  std::uint8_t j0[16];
  make_j0(iv, j0);

#ifdef MBTLS_REFERENCE_CRYPTO
  const Block s = ghash_reference(aad, ct);
#else
  const Block s = ghash(aad, ct);
#endif
  std::uint8_t expected[16];
  compute_tag(j0, s, expected);
  if (!ct::equal(ByteView(expected, 16), tag)) return false;

  // Authenticated: decrypt. When `out` aliases the ciphertext this overwrites
  // it in place — GHASH above already consumed every ciphertext byte.
#ifdef MBTLS_REFERENCE_CRYPTO
  ctr_xor_reference(j0, ct, out.data());
#else
  ctr_xor(j0, ct, out.data());
#endif
  return true;
}

Bytes AesGcm::seal(ByteView iv, ByteView aad, ByteView plaintext) const {
  Bytes out(plaintext.size() + kTagSize);
  seal_into(iv, aad, plaintext, out);
  return out;
}

std::optional<Bytes> AesGcm::open(ByteView iv, ByteView aad, ByteView ciphertext_and_tag) const {
  if (ciphertext_and_tag.size() < kTagSize) return std::nullopt;
  Bytes plaintext(ciphertext_and_tag.size() - kTagSize);
  if (!open_into(iv, aad, ciphertext_and_tag, plaintext)) return std::nullopt;
  return plaintext;
}

Bytes AesGcm::seal_reference(ByteView iv, ByteView aad, ByteView plaintext) const {
  std::uint8_t j0[16];
  make_j0(iv, j0);
  Bytes out(plaintext.size() + kTagSize);
  ctr_xor_reference(j0, plaintext, out.data());
  const Block s = ghash_reference(aad, ByteView(out.data(), plaintext.size()));
  compute_tag(j0, s, out.data() + plaintext.size());
  return out;
}

std::optional<Bytes> AesGcm::open_reference(ByteView iv, ByteView aad,
                                            ByteView ciphertext_and_tag) const {
  std::uint8_t j0[16];
  make_j0(iv, j0);
  if (ciphertext_and_tag.size() < kTagSize) return std::nullopt;
  const std::size_t ct_len = ciphertext_and_tag.size() - kTagSize;
  const ByteView ct = ciphertext_and_tag.first(ct_len);
  const ByteView tag = ciphertext_and_tag.subspan(ct_len);
  const Block s = ghash_reference(aad, ct);
  std::uint8_t expected[16];
  compute_tag(j0, s, expected);
  if (!ct::equal(ByteView(expected, 16), tag)) return std::nullopt;
  Bytes plaintext(ct_len);
  ctr_xor_reference(j0, ct, plaintext.data());
  return plaintext;
}

}  // namespace mbtls::crypto
