#include "util/bytes.h"

#include <stdexcept>

namespace mbtls {

Bytes to_bytes(ByteView v) { return Bytes(v.begin(), v.end()); }

Bytes to_bytes(std::string_view s) {
  return Bytes(reinterpret_cast<const std::uint8_t*>(s.data()),
               reinterpret_cast<const std::uint8_t*>(s.data()) + s.size());
}

std::string to_string(ByteView v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

void append(Bytes& dst, ByteView src) { dst.insert(dst.end(), src.begin(), src.end()); }

Bytes concat(std::initializer_list<ByteView> parts) {
  std::size_t total = 0;
  for (auto p : parts) total += p.size();
  Bytes out;
  out.reserve(total);
  for (auto p : parts) append(out, p);
  return out;
}

bool equal(ByteView a, ByteView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

void xor_into(MutableByteView a, ByteView b) {
  if (a.size() != b.size()) throw std::invalid_argument("xor_into: length mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] ^= b[i];
}

void secure_wipe(MutableByteView v) {
  if (v.empty()) return;  // memset's pointer must be non-null even for 0 bytes
  std::memset(v.data(), 0, v.size());
  asm volatile("" : : "r"(v.data()) : "memory");
}

ByteView slice(ByteView v, std::size_t offset, std::size_t len) {
  if (offset + len > v.size()) throw std::out_of_range("slice: out of range");
  return v.subspan(offset, len);
}

void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u24(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(Bytes& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

void put_u64(Bytes& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

namespace {
void check_range(ByteView v, std::size_t offset, std::size_t n) {
  if (offset + n > v.size()) throw std::out_of_range("integer decode out of range");
}
}  // namespace

std::uint16_t get_u16(ByteView v, std::size_t offset) {
  check_range(v, offset, 2);
  return static_cast<std::uint16_t>((v[offset] << 8) | v[offset + 1]);
}

std::uint32_t get_u24(ByteView v, std::size_t offset) {
  check_range(v, offset, 3);
  return (static_cast<std::uint32_t>(v[offset]) << 16) |
         (static_cast<std::uint32_t>(v[offset + 1]) << 8) | v[offset + 2];
}

std::uint32_t get_u32(ByteView v, std::size_t offset) {
  check_range(v, offset, 4);
  return (static_cast<std::uint32_t>(get_u16(v, offset)) << 16) | get_u16(v, offset + 2);
}

std::uint64_t get_u64(ByteView v, std::size_t offset) {
  check_range(v, offset, 8);
  return (static_cast<std::uint64_t>(get_u32(v, offset)) << 32) | get_u32(v, offset + 4);
}

}  // namespace mbtls
