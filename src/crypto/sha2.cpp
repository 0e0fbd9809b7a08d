#include "crypto/sha2.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "crypto/backend.h"

namespace mbtls::crypto {

namespace {

// FIPS 180-4 round constants: fractional parts of the cube roots of the first
// 64 (resp. 80) primes.
constexpr std::uint32_t kK256[64] = {
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

constexpr std::uint64_t kK512[80] = {
    0x428a2f98d728ae22ULL, 0x7137449123ef65cdULL, 0xb5c0fbcfec4d3b2fULL,
    0xe9b5dba58189dbbcULL, 0x3956c25bf348b538ULL, 0x59f111f1b605d019ULL,
    0x923f82a4af194f9bULL, 0xab1c5ed5da6d8118ULL, 0xd807aa98a3030242ULL,
    0x12835b0145706fbeULL, 0x243185be4ee4b28cULL, 0x550c7dc3d5ffb4e2ULL,
    0x72be5d74f27b896fULL, 0x80deb1fe3b1696b1ULL, 0x9bdc06a725c71235ULL,
    0xc19bf174cf692694ULL, 0xe49b69c19ef14ad2ULL, 0xefbe4786384f25e3ULL,
    0x0fc19dc68b8cd5b5ULL, 0x240ca1cc77ac9c65ULL, 0x2de92c6f592b0275ULL,
    0x4a7484aa6ea6e483ULL, 0x5cb0a9dcbd41fbd4ULL, 0x76f988da831153b5ULL,
    0x983e5152ee66dfabULL, 0xa831c66d2db43210ULL, 0xb00327c898fb213fULL,
    0xbf597fc7beef0ee4ULL, 0xc6e00bf33da88fc2ULL, 0xd5a79147930aa725ULL,
    0x06ca6351e003826fULL, 0x142929670a0e6e70ULL, 0x27b70a8546d22ffcULL,
    0x2e1b21385c26c926ULL, 0x4d2c6dfc5ac42aedULL, 0x53380d139d95b3dfULL,
    0x650a73548baf63deULL, 0x766a0abb3c77b2a8ULL, 0x81c2c92e47edaee6ULL,
    0x92722c851482353bULL, 0xa2bfe8a14cf10364ULL, 0xa81a664bbc423001ULL,
    0xc24b8b70d0f89791ULL, 0xc76c51a30654be30ULL, 0xd192e819d6ef5218ULL,
    0xd69906245565a910ULL, 0xf40e35855771202aULL, 0x106aa07032bbd1b8ULL,
    0x19a4c116b8d2d0c8ULL, 0x1e376c085141ab53ULL, 0x2748774cdf8eeb99ULL,
    0x34b0bcb5e19b48a8ULL, 0x391c0cb3c5c95a63ULL, 0x4ed8aa4ae3418acbULL,
    0x5b9cca4f7763e373ULL, 0x682e6ff3d6b2b8a3ULL, 0x748f82ee5defb2fcULL,
    0x78a5636f43172f60ULL, 0x84c87814a1f0ab72ULL, 0x8cc702081a6439ecULL,
    0x90befffa23631e28ULL, 0xa4506cebde82bde9ULL, 0xbef9a3f7b2c67915ULL,
    0xc67178f2e372532bULL, 0xca273eceea26619cULL, 0xd186b8c721c0c207ULL,
    0xeada7dd6cde0eb1eULL, 0xf57d4f7fee6ed178ULL, 0x06f067aa72176fbaULL,
    0x0a637dc5a2c898a6ULL, 0x113f9804bef90daeULL, 0x1b710b35131c471bULL,
    0x28db77f523047d84ULL, 0x32caab7b40c72493ULL, 0x3c9ebe0a15c9bebcULL,
    0x431d67c49c100d4cULL, 0x4cc5d4becb3e42b6ULL, 0x597f299cfc657e2aULL,
    0x5fcb6fab3ad6faecULL, 0x6c44198c4a475817ULL};

void compress256(std::array<std::uint32_t, 8>& h, const std::uint8_t* block) {
  using std::rotr;
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = hh + s1 + ch + kK256[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    hh = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += hh;
}

void compress512(std::array<std::uint64_t, 8>& h, const std::uint8_t* block) {
  using std::rotr;
  std::uint64_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = load_be64(block + 8 * i);
  for (int i = 16; i < 80; ++i) {
    const std::uint64_t s0 = rotr(w[i - 15], 1) ^ rotr(w[i - 15], 8) ^ (w[i - 15] >> 7);
    const std::uint64_t s1 = rotr(w[i - 2], 19) ^ rotr(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint64_t a = h[0], b = h[1], c = h[2], d = h[3];
  std::uint64_t e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int i = 0; i < 80; ++i) {
    const std::uint64_t s1 = rotr(e, 14) ^ rotr(e, 18) ^ rotr(e, 41);
    const std::uint64_t ch = (e & f) ^ (~e & g);
    const std::uint64_t t1 = hh + s1 + ch + kK512[i] + w[i];
    const std::uint64_t s0 = rotr(a, 28) ^ rotr(a, 34) ^ rotr(a, 39);
    const std::uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint64_t t2 = s0 + maj;
    hh = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += hh;
}

// Generic streaming update/finish shared by all three classes. The callback
// compresses `n` contiguous blocks so an accelerated backend can absorb a
// whole message run in one call instead of block-at-a-time.
template <typename State, typename CompressMany>
void generic_update(State& buf, std::size_t& buf_len, std::uint64_t& total, std::size_t block_size,
                    CompressMany compress_many, ByteView data) {
  total += data.size();
  // An empty view may carry data() == nullptr, and memcpy(dst, nullptr, 0)
  // is still undefined behaviour.
  if (data.empty()) return;
  std::size_t off = 0;
  if (buf_len > 0) {
    const std::size_t take = std::min(block_size - buf_len, data.size());
    std::memcpy(buf.data() + buf_len, data.data(), take);
    buf_len += take;
    off += take;
    if (buf_len == block_size) {
      compress_many(buf.data(), 1);
      buf_len = 0;
    }
  }
  const std::size_t nblocks = (data.size() - off) / block_size;
  if (nblocks > 0) {
    compress_many(data.data() + off, nblocks);
    off += nblocks * block_size;
  }
  if (off < data.size()) {
    std::memcpy(buf.data(), data.data() + off, data.size() - off);
    buf_len = data.size() - off;
  }
}

/// SHA-256 dispatch decision, queried per compress run (an atomic load plus
/// two cached bools — noise next to a 64-round compression). Hash objects are
/// short-lived, so there is no per-object capture to keep consistent.
bool sha256_accel() {
  return sha_ni_available() && active_backend() != Backend::kScalar;
}

}  // namespace

// ---------------------------------------------------------------- SHA-256

Sha256::Sha256()
    : h_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::compress(const std::uint8_t* block) { compress_many(block, 1); }

void Sha256::compress_many(const std::uint8_t* blocks, std::size_t n) {
  if (sha256_accel()) {
    accel::sha256_compress(h_.data(), blocks, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) compress256(h_, blocks + i * kBlockSize);
}

void Sha256::update(ByteView data) {
  generic_update(buf_, buf_len_, total_len_, kBlockSize,
                 [this](const std::uint8_t* b, std::size_t n) { compress_many(b, n); }, data);
}

void Sha256::finish_into(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[kBlockSize * 2] = {0x80};
  // Pad to 56 mod 64, then append the 64-bit big-endian length.
  const std::size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  update(ByteView(pad, pad_len));
  std::uint8_t len_bytes[8];
  store_be64(len_bytes, bit_len);
  update(ByteView(len_bytes, 8));
  for (int i = 0; i < 8; ++i) store_be32(out + 4 * i, h_[i]);
}

Bytes Sha256::finish() {
  Bytes out(kDigestSize);
  finish_into(out.data());
  return out;
}

Bytes Sha256::digest(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

// ---------------------------------------------------------------- SHA-384

Sha384::Sha384()
    : h_{0xcbbb9d5dc1059ed8ULL, 0x629a292a367cd507ULL, 0x9159015a3070dd17ULL,
         0x152fecd8f70e5939ULL, 0x67332667ffc00b31ULL, 0x8eb44a8768581511ULL,
         0xdb0c2e0d64f98fa7ULL, 0x47b5481dbefa4fa4ULL} {}

void Sha384::compress(const std::uint8_t* block) { compress512(h_, block); }

void Sha384::update(ByteView data) {
  generic_update(
      buf_, buf_len_, total_len_, kBlockSize,
      [this](const std::uint8_t* b, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) compress(b + i * kBlockSize);
      },
      data);
}

void Sha384::finish_into(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[kBlockSize * 2] = {0x80};
  // SHA-512 family uses a 128-bit length field; message sizes here fit in 64
  // bits, so the upper half is zero. Pad to 112 mod 128.
  const std::size_t pad_len = (buf_len_ < 112) ? (112 - buf_len_) : (240 - buf_len_);
  update(ByteView(pad, pad_len));
  std::uint8_t len_bytes[16] = {0};
  store_be64(len_bytes + 8, bit_len);
  update(ByteView(len_bytes, 16));
  for (int i = 0; i < 6; ++i) store_be64(out + 8 * i, h_[i]);
}

Bytes Sha384::finish() {
  Bytes out(kDigestSize);
  finish_into(out.data());
  return out;
}

Bytes Sha384::digest(ByteView data) {
  Sha384 h;
  h.update(data);
  return h.finish();
}

// ---------------------------------------------------------------- SHA-512

Sha512::Sha512()
    : h_{0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
         0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
         0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL} {}

void Sha512::compress(const std::uint8_t* block) { compress512(h_, block); }

void Sha512::update(ByteView data) {
  generic_update(
      buf_, buf_len_, total_len_, kBlockSize,
      [this](const std::uint8_t* b, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) compress(b + i * kBlockSize);
      },
      data);
}

void Sha512::finish_into(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[kBlockSize * 2] = {0x80};
  const std::size_t pad_len = (buf_len_ < 112) ? (112 - buf_len_) : (240 - buf_len_);
  update(ByteView(pad, pad_len));
  std::uint8_t len_bytes[16] = {0};
  store_be64(len_bytes + 8, bit_len);
  update(ByteView(len_bytes, 16));
  for (int i = 0; i < 8; ++i) store_be64(out + 8 * i, h_[i]);
}

Bytes Sha512::finish() {
  Bytes out(kDigestSize);
  finish_into(out.data());
  return out;
}

Bytes Sha512::digest(ByteView data) {
  Sha512 h;
  h.update(data);
  return h.finish();
}

// ---------------------------------------------------------------- dispatch

std::size_t digest_size(HashAlgo algo) {
  switch (algo) {
    case HashAlgo::kSha256: return Sha256::kDigestSize;
    case HashAlgo::kSha384: return Sha384::kDigestSize;
    case HashAlgo::kSha512: return Sha512::kDigestSize;
  }
  throw std::invalid_argument("unknown hash algorithm");
}

std::size_t block_size(HashAlgo algo) {
  switch (algo) {
    case HashAlgo::kSha256: return Sha256::kBlockSize;
    case HashAlgo::kSha384: return Sha384::kBlockSize;
    case HashAlgo::kSha512: return Sha512::kBlockSize;
  }
  throw std::invalid_argument("unknown hash algorithm");
}

Bytes hash(HashAlgo algo, ByteView data) {
  switch (algo) {
    case HashAlgo::kSha256: return Sha256::digest(data);
    case HashAlgo::kSha384: return Sha384::digest(data);
    case HashAlgo::kSha512: return Sha512::digest(data);
  }
  throw std::invalid_argument("unknown hash algorithm");
}

namespace {
std::variant<Sha256, Sha384, Sha512> hasher_state(HashAlgo algo) {
  switch (algo) {
    case HashAlgo::kSha256: return Sha256();
    case HashAlgo::kSha384: return Sha384();
    case HashAlgo::kSha512: return Sha512();
  }
  throw std::invalid_argument("unknown hash algorithm");
}
}  // namespace

Hasher::Hasher(HashAlgo algo) : state_(hasher_state(algo)) {}

void Hasher::update(ByteView data) {
  std::visit([data](auto& h) { h.update(data); }, state_);
}

Bytes Hasher::finish() {
  return std::visit([](auto& h) { return h.finish(); }, state_);
}

std::size_t Hasher::finish_into(std::uint8_t* out) {
  return std::visit(
      [out](auto& h) {
        h.finish_into(out);
        return h.kDigestSize;
      },
      state_);
}

}  // namespace mbtls::crypto
