// SHA-2 family (SHA-256, SHA-384, SHA-512), implemented from FIPS 180-4.
//
// Streaming interface (`update`/`finish`) plus one-shot helpers. The TLS 1.2
// PRF, HMAC, handshake transcript hashing, SGX measurements, and certificate
// signatures are all built on these.
#pragma once

#include <array>
#include <cstdint>
#include <variant>

#include "util/bytes.h"

namespace mbtls::crypto {

/// SHA-256.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();
  void update(ByteView data);
  /// Finalizes and returns the digest. The object must not be reused after.
  Bytes finish();
  /// finish() into `out` (kDigestSize bytes), without allocating.
  void finish_into(std::uint8_t* out);

  static Bytes digest(ByteView data);

 private:
  void compress(const std::uint8_t* block);
  /// Bulk path over `n` contiguous blocks; dispatches the whole run to the
  /// SHA-NI backend in one call when it is active (crypto/backend.h).
  void compress_many(const std::uint8_t* blocks, std::size_t n);

  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, kBlockSize> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// SHA-384: SHA-512 with a distinct IV, truncated to 48 bytes.
class Sha384 {
 public:
  static constexpr std::size_t kDigestSize = 48;
  static constexpr std::size_t kBlockSize = 128;

  Sha384();
  void update(ByteView data);
  Bytes finish();
  void finish_into(std::uint8_t* out);  // kDigestSize bytes, no allocation

  static Bytes digest(ByteView data);

 private:
  void compress(const std::uint8_t* block);

  std::array<std::uint64_t, 8> h_;
  std::array<std::uint8_t, kBlockSize> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// SHA-512 (full 64-byte digest). Shares the compression function with SHA-384.
class Sha512 {
 public:
  static constexpr std::size_t kDigestSize = 64;
  static constexpr std::size_t kBlockSize = 128;

  Sha512();
  void update(ByteView data);
  Bytes finish();
  void finish_into(std::uint8_t* out);  // kDigestSize bytes, no allocation

  static Bytes digest(ByteView data);

 private:
  void compress(const std::uint8_t* block);

  std::array<std::uint64_t, 8> h_;
  std::array<std::uint8_t, kBlockSize> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Hash algorithm identifiers used across TLS signatures & the PRF.
enum class HashAlgo : std::uint8_t {
  kSha256 = 4,  // TLS HashAlgorithm registry values
  kSha384 = 5,
  kSha512 = 6,
};

std::size_t digest_size(HashAlgo algo);
std::size_t block_size(HashAlgo algo);
Bytes hash(HashAlgo algo, ByteView data);

/// Streaming hash whose algorithm is picked at run time. Copyable, so a
/// running hash is read mid-stream without disturbing it:
/// `Hasher(running).finish()` (the TLS handshake transcript).
class Hasher {
 public:
  explicit Hasher(HashAlgo algo);
  void update(ByteView data);
  /// Finalizes and returns the digest. The object must not be reused after.
  Bytes finish();
  /// finish() into `out` (room for kMaxDigestSize bytes) without allocating;
  /// returns the digest's size.
  std::size_t finish_into(std::uint8_t* out);

  static constexpr std::size_t kMaxDigestSize = 64;

 private:
  std::variant<Sha256, Sha384, Sha512> state_;
};

}  // namespace mbtls::crypto
