#include "mbtls/types.h"

namespace mbtls::mb {

namespace {
tls::DirectionKeys direction_keys(const Bytes& key, const Bytes& iv) {
  return tls::DirectionKeys{key, iv};
}
}  // namespace

HopDuplex::HopDuplex(const tls::HopKeys& keys, std::size_t key_len)
    : c2s_(direction_keys(keys.client_to_server_key, keys.client_to_server_iv),
           keys.client_to_server_seq),
      s2c_(direction_keys(keys.server_to_client_key, keys.server_to_client_iv),
           keys.server_to_client_seq) {
  if (keys.client_to_server_key.size() != key_len || keys.server_to_client_key.size() != key_len)
    throw std::invalid_argument("hop key length does not match suite");
}

std::optional<Alert> parse_alert(ByteView body) {
  if (body.size() != 2) return std::nullopt;
  const auto level = static_cast<tls::AlertLevel>(body[0]);
  if (level != tls::AlertLevel::kWarning && level != tls::AlertLevel::kFatal)
    return std::nullopt;
  return Alert{level, static_cast<tls::AlertDescription>(body[1])};
}

tls::HopKeys generate_hop_keys(std::size_t key_len, crypto::Drbg& rng) {
  tls::HopKeys keys;
  keys.client_to_server_key = rng.bytes(key_len);
  keys.client_to_server_iv = rng.bytes(4);
  keys.server_to_client_key = rng.bytes(key_len);
  keys.server_to_client_iv = rng.bytes(4);
  keys.client_to_server_seq = 0;
  keys.server_to_client_seq = 0;
  return keys;
}

tls::HopKeys bridge_hop_keys(const tls::ConnectionKeys& primary) {
  tls::HopKeys keys;
  keys.client_to_server_key = primary.keys.client_write.key;
  keys.client_to_server_iv = primary.keys.client_write.fixed_iv;
  keys.server_to_client_key = primary.keys.server_write.key;
  keys.server_to_client_iv = primary.keys.server_write.fixed_iv;
  keys.client_to_server_seq = primary.client_seq;
  keys.server_to_client_seq = primary.server_seq;
  return keys;
}

}  // namespace mbtls::mb
