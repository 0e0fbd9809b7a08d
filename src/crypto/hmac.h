// HMAC (FIPS 198-1 / RFC 2104) over any SHA-2 hash in this library.
#pragma once

#include "crypto/sha2.h"
#include "util/bytes.h"

namespace mbtls::crypto {

/// One-shot HMAC.
Bytes hmac(HashAlgo algo, ByteView key, ByteView message);

/// Streaming HMAC. The key is absorbed once, at construction, into the
/// inner and outer hash states; a copy of a keyed Hmac computes another MAC
/// under the same key without touching the key again (the TLS PRF keys one
/// and copies it per block). Allocates nothing but what finish() returns.
class Hmac {
 public:
  Hmac(HashAlgo algo, ByteView key);
  void update(ByteView data) { inner_.update(data); }
  /// Finalizes and returns the MAC. The object must not be reused after.
  Bytes finish();
  /// finish() into `out` (room for Hasher::kMaxDigestSize bytes) without
  /// allocating; returns the MAC's size.
  std::size_t finish_into(std::uint8_t* out);
  // The keyed states are key-equivalent material.
  ~Hmac() {
    secure_wipe_object(inner_);
    secure_wipe_object(outer_);
  }
  Hmac(const Hmac&) = default;
  Hmac(Hmac&&) = default;
  Hmac& operator=(const Hmac&) = default;
  Hmac& operator=(Hmac&&) = default;

 private:
  Hasher inner_;  // H(key ^ ipad || ...); lint: secret
  Hasher outer_;  // H(key ^ opad || ...); lint: secret
};

}  // namespace mbtls::crypto
