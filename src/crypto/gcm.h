// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// This is the only AEAD in the library; TLS record protection, mbTLS per-hop
// protection, session tickets, and SGX sealing all use it. Only 96-bit IVs
// are supported (the TLS 1.2 GCM nonce construction always yields 12 bytes).
#pragma once

#include <array>
#include <optional>

#include "crypto/aes.h"
#include "util/bytes.h"

namespace mbtls::crypto {

class AesGcm {
 public:
  static constexpr std::size_t kTagSize = 16;
  static constexpr std::size_t kIvSize = 12;

  /// Key must be 16 or 32 bytes (AES-128-GCM / AES-256-GCM).
  explicit AesGcm(ByteView key);

  // The GHASH key and its expansion tables are key-equivalent material.
  ~AesGcm() {
    secure_wipe_object(h_);
    secure_wipe_object(m_table_);
    secure_wipe_object(h_powers_);
  }
  AesGcm(const AesGcm&) = default;
  AesGcm(AesGcm&&) = default;
  AesGcm& operator=(const AesGcm&) = default;
  AesGcm& operator=(AesGcm&&) = default;

  /// Encrypts `plaintext`; returns ciphertext || 16-byte tag.
  Bytes seal(ByteView iv, ByteView aad, ByteView plaintext) const;

  /// Verifies the trailing tag and decrypts. Returns nullopt on
  /// authentication failure (callers translate into a bad_record_mac alert).
  std::optional<Bytes> open(ByteView iv, ByteView aad, ByteView ciphertext_and_tag) const;

  // Allocation-free data plane. `seal_into` writes ciphertext || tag into a
  // caller-owned buffer of exactly plaintext.size() + kTagSize bytes;
  // `open_into` verifies the trailing tag and writes the plaintext into a
  // buffer of ciphertext_and_tag.size() - kTagSize bytes, returning false
  // (with `out` unmodified) on authentication failure. Both permit in-place
  // operation when `out` begins at the input's first byte — CTR is a forward
  // XOR stream, and `open_into` runs GHASH over the ciphertext before any
  // byte of it is overwritten. Record protection and the middlebox forward
  // path reuse one scratch buffer across records via these.
  void seal_into(ByteView iv, ByteView aad, ByteView plaintext, MutableByteView out) const;
  bool open_into(ByteView iv, ByteView aad, ByteView ciphertext_and_tag,
                 MutableByteView out) const;

  // Reference (pre-optimization) data plane: one CTR block per cipher call
  // with per-byte XOR, and bit-serial GHASH. Always compiled — it is the
  // differential-test oracle and the bench baseline. seal/open dispatch here
  // when MBTLS_REFERENCE_CRYPTO is defined.
  Bytes seal_reference(ByteView iv, ByteView aad, ByteView plaintext) const;
  std::optional<Bytes> open_reference(ByteView iv, ByteView aad,
                                      ByteView ciphertext_and_tag) const;

  /// 128-bit GHASH block, two big-endian halves. Public so that the GF(2^128)
  /// multiply helper (an implementation detail) can name it.
  struct Block {
    std::uint64_t hi = 0, lo = 0;
  };

 private:

  Block ghash(ByteView aad, ByteView ciphertext) const;
  void ctr_xor(const std::uint8_t j0[16], ByteView in, std::uint8_t* out) const;
  Block ghash_reference(ByteView aad, ByteView ciphertext) const;
  void ctr_xor_reference(const std::uint8_t j0[16], ByteView in, std::uint8_t* out) const;
  void compute_tag(const std::uint8_t j0[16], const Block& s, std::uint8_t tag_out[16]) const;

  Aes aes_;
  Block h_;  // GHASH key H = E_K(0^128)
  // Shoup-style byte table: m_table_[b] = (byte b at the MSB position) * H,
  // built once per key for the scalar backend only. Reduces GHASH from 128
  // shift steps per block to 16 table lookups.
  std::array<Block, 256> m_table_{};
  // H^1..H^16 in the PCLMUL backends' bit-reflected form (crypto/backend.h),
  // filled only when an accelerated backend is active at construction. The
  // 128-bit GHASH reads the first four entries, the 512-bit one all sixteen.
  std::array<std::uint8_t, 16 * accel::kGhashPowers> h_powers_{};  // lint: secret
};

}  // namespace mbtls::crypto
