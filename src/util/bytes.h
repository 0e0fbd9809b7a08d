// Byte-buffer primitives shared by every module.
//
// `Bytes` is the canonical owning byte container; `ByteView` the canonical
// non-owning view. Helpers here cover concatenation, comparison, and
// conversions to/from strings; constant-time comparison lives in util/ct.h.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mbtls {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;
using MutableByteView = std::span<std::uint8_t>;

/// Build an owning buffer from a view.
Bytes to_bytes(ByteView v);

/// Build an owning buffer from the raw characters of a string (no encoding).
Bytes to_bytes(std::string_view s);

/// Interpret raw bytes as a std::string (no encoding).
std::string to_string(ByteView v);

/// Append `src` to `dst`.
void append(Bytes& dst, ByteView src);

/// Concatenate any number of views into a fresh buffer.
Bytes concat(std::initializer_list<ByteView> parts);

/// Ordinary (early-exit) equality. Do NOT use for secrets; the constant-time
/// variant lives in util/ct.h (ct::equal / constant_time_equal).
bool equal(ByteView a, ByteView b);

/// XOR `b` into `a` (lengths must match).
void xor_into(MutableByteView a, ByteView b);

/// Zero a buffer: a plain memset followed by an empty asm statement that
/// takes the pointer and clobbers memory (BoringSSL's OPENSSL_cleanse). The
/// compiler must assume the asm reads the zeroed bytes, so it cannot drop
/// the memset as a dead store even when the buffer dies right afterwards,
/// and the memset itself runs at full vector width. Key material must flow
/// through this (or secure_wipe_object) before its owner dies;
/// tools/mbtls-lint enforces it for annotated and key-named members.
void secure_wipe(MutableByteView v);

/// Zero an entire trivially-copyable object: round-key schedules, GHASH
/// tables, fixed-size cipher state. Prefer secure_wipe() for byte buffers.
template <typename T>
void secure_wipe_object(T& obj) {
  static_assert(std::is_trivially_copyable_v<T>, "wipe only plain state");
  // Through void*: trivially copyable is all a byte-wise wipe needs, even
  // for types with default member initializers.
  std::memset(static_cast<void*>(&obj), 0, sizeof(T));
  asm volatile("" : : "r"(&obj) : "memory");
}

/// Subview helper with bounds checking; throws std::out_of_range.
ByteView slice(ByteView v, std::size_t offset, std::size_t len);

// Raw big-endian word load/store: one memcpy plus a byteswap instead of a
// per-byte shift loop. These are the hot-path primitives behind SHA-2 message
// schedules, GHASH block absorption, and the GCM counter; the codec-style
// put_/get_ helpers below stay byte-oriented because they grow vectors.
inline std::uint32_t load_be32(const void* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  return v;
}

inline std::uint64_t load_be64(const void* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  return v;
}

inline void store_be32(void* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof(v));
}

inline void store_be64(void* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof(v));
}

// Big-endian integer encode/decode helpers (network byte order), used by the
// TLS record and handshake codecs.
void put_u8(Bytes& out, std::uint8_t v);
void put_u16(Bytes& out, std::uint16_t v);
void put_u24(Bytes& out, std::uint32_t v);
void put_u32(Bytes& out, std::uint32_t v);
void put_u64(Bytes& out, std::uint64_t v);

std::uint16_t get_u16(ByteView v, std::size_t offset);
std::uint32_t get_u24(ByteView v, std::size_t offset);
std::uint32_t get_u32(ByteView v, std::size_t offset);
std::uint64_t get_u64(ByteView v, std::size_t offset);

}  // namespace mbtls
