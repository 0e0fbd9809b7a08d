#include "tls/prf.h"

#include <algorithm>
#include <array>

#include "crypto/hmac.h"
#include "util/hex.h"

namespace mbtls::tls {

Bytes prf(crypto::HashAlgo hash, ByteView secret, std::string_view label, ByteView seed,
          std::size_t length) {
  // P_hash(secret, label || seed): A(0) = label || seed;
  // A(i) = HMAC(secret, A(i-1)); output = HMAC(secret, A(1) || label || seed)
  // || HMAC(secret, A(2) || label || seed) || ... The secret is keyed into
  // HMAC once; every MAC below runs on a copy of that keyed state, into
  // stack buffers.
  const ByteView label_bytes(reinterpret_cast<const std::uint8_t*>(label.data()), label.size());
  const crypto::Hmac keyed(hash, secret);
  std::array<std::uint8_t, crypto::Hasher::kMaxDigestSize> a;
  std::array<std::uint8_t, crypto::Hasher::kMaxDigestSize> block;
  crypto::Hmac first = keyed;
  first.update(label_bytes);
  first.update(seed);
  std::size_t a_len = first.finish_into(a.data());
  Bytes out(length);
  for (std::size_t off = 0;;) {
    crypto::Hmac h = keyed;
    h.update(ByteView(a.data(), a_len));
    h.update(label_bytes);
    h.update(seed);
    const std::size_t n = std::min(h.finish_into(block.data()), length - off);
    std::copy_n(block.begin(), n, out.begin() + static_cast<std::ptrdiff_t>(off));
    off += n;
    if (off == length) break;
    crypto::Hmac next = keyed;
    next.update(ByteView(a.data(), a_len));
    a_len = next.finish_into(a.data());
  }
  secure_wipe_object(block);
  secure_wipe_object(a);
  return out;
}

Bytes derive_master_secret(crypto::HashAlgo hash, ByteView pre_master, ByteView client_random,
                           ByteView server_random) {
  return prf(hash, pre_master, "master secret", concat({client_random, server_random}), 48);
}

KeyBlock derive_key_block(crypto::HashAlgo hash, ByteView master_secret, ByteView client_random,
                          ByteView server_random, std::size_t key_len) {
  constexpr std::size_t kFixedIvLen = 4;
  const Bytes block = prf(hash, master_secret, "key expansion",
                          concat({server_random, client_random}), 2 * (key_len + kFixedIvLen));
  KeyBlock keys;
  std::size_t off = 0;
  auto take = [&](std::size_t n) {
    Bytes part(block.begin() + static_cast<std::ptrdiff_t>(off),
               block.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    return part;
  };
  keys.client_write.key = take(key_len);
  keys.server_write.key = take(key_len);
  keys.client_write.fixed_iv = take(kFixedIvLen);
  keys.server_write.fixed_iv = take(kFixedIvLen);
  return keys;
}

Bytes finished_verify_data(crypto::HashAlgo hash, ByteView master_secret, bool from_client,
                           ByteView transcript_hash) {
  return prf(hash, master_secret, from_client ? "client finished" : "server finished",
             transcript_hash, 12);
}

std::string key_fingerprint(ByteView secret) {
  crypto::Sha256 h;
  h.update(to_bytes(std::string_view("mbtls key fingerprint")));
  h.update(secret);
  const Bytes digest = h.finish();
  return hex_encode(ByteView(digest.data(), 8));
}

}  // namespace mbtls::tls
