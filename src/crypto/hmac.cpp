#include "crypto/hmac.h"

#include <algorithm>
#include <array>

namespace mbtls::crypto {

namespace {
/// The key padded to the block size and XORed with `pad` (key ^ ipad or
/// key ^ opad), absorbed into a fresh hash state.
Hasher keyed_state(HashAlgo algo, ByteView key, std::uint8_t pad) {
  std::array<std::uint8_t, 128> block{};  // the largest SHA-2 block
  const std::size_t bs = block_size(algo);
  if (key.size() > bs) {
    Bytes digest = hash(algo, key);
    std::copy(digest.begin(), digest.end(), block.begin());
    secure_wipe(digest);
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  for (std::size_t i = 0; i < bs; ++i) block[i] ^= pad;
  Hasher h(algo);
  h.update(ByteView(block.data(), bs));
  secure_wipe_object(block);
  return h;
}
}  // namespace

Bytes hmac(HashAlgo algo, ByteView key, ByteView message) {
  Hmac h(algo, key);
  h.update(message);
  return h.finish();
}

Hmac::Hmac(HashAlgo algo, ByteView key)
    : inner_(keyed_state(algo, key, 0x36)), outer_(keyed_state(algo, key, 0x5c)) {}

std::size_t Hmac::finish_into(std::uint8_t* out) {
  std::array<std::uint8_t, Hasher::kMaxDigestSize> inner;
  const std::size_t n = inner_.finish_into(inner.data());
  outer_.update(ByteView(inner.data(), n));
  secure_wipe_object(inner);
  return outer_.finish_into(out);
}

Bytes Hmac::finish() {
  std::array<std::uint8_t, Hasher::kMaxDigestSize> mac;
  const std::size_t n = finish_into(mac.data());
  Bytes out(mac.begin(), mac.begin() + static_cast<std::ptrdiff_t>(n));
  secure_wipe_object(mac);
  return out;
}

}  // namespace mbtls::crypto
