// AES-128/192/256 block cipher (FIPS 197).
//
// The S-box and its inverse are derived algebraically at first use (GF(2^8)
// inversion followed by the affine map) rather than hard-coded, and validated
// against the FIPS 197 known-answer vectors in tests. Only the raw block
// operation is exposed; all bulk encryption in this library goes through GCM.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/backend.h"
#include "util/bytes.h"

namespace mbtls::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Key must be 16, 24, or 32 bytes.
  explicit Aes(ByteView key);

  ~Aes() { secure_wipe_object(round_keys_); }
  Aes(const Aes&) = default;
  Aes(Aes&&) = default;
  Aes& operator=(const Aes&) = default;
  Aes& operator=(Aes&&) = default;

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  /// Encrypt four consecutive blocks (`in`/`out` are 64 bytes). The four
  /// states advance through the rounds together so the T-table lookups of
  /// independent blocks overlap in the pipeline — the GCM CTR keystream
  /// generator runs on this.
  void encrypt4(const std::uint8_t in[64], std::uint8_t out[64]) const;

  std::size_t key_size() const { return key_size_; }

  /// True when this instance encrypts via AES-NI (captured from
  /// active_backend() at construction; see crypto/backend.h).
  bool accelerated() const { return backend_ != Backend::kScalar; }

 private:
  // AesGcm reads the raw schedule + backend to drive the fused CTR path.
  friend class AesGcm;

  std::size_t key_size_;
  int rounds_;
  // The captured backend: block operations use AES-NI for both kAesni and
  // kVaes; AesGcm picks its GCM width from it.
  Backend backend_ = Backend::kScalar;
  // Round keys stored as bytes, 16 per round (+1 for the initial AddRoundKey).
  // The AES-NI backend loads these exact bytes — both key expansions produce
  // the byte-identical FIPS-197 schedule.
  std::array<std::uint8_t, 16 * 15> round_keys_{};  // lint: secret
};

}  // namespace mbtls::crypto
