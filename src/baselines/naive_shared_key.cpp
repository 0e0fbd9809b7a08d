#include "baselines/naive_shared_key.h"

namespace mbtls::baselines {

Bytes encode_session_keys(const tls::ConnectionKeys& keys) {
  Bytes out;
  put_u16(out, static_cast<std::uint16_t>(keys.suite));
  auto put_dir = [&](const tls::DirectionKeys& d) {
    put_u8(out, static_cast<std::uint8_t>(d.key.size()));
    append(out, d.key);
    put_u8(out, static_cast<std::uint8_t>(d.fixed_iv.size()));
    append(out, d.fixed_iv);
  };
  put_dir(keys.keys.client_write);
  put_dir(keys.keys.server_write);
  put_u64(out, keys.client_seq);
  put_u64(out, keys.server_seq);
  return out;
}

std::optional<tls::ConnectionKeys> decode_session_keys(ByteView data) {
  try {
    Reader r(data);
    tls::ConnectionKeys keys;
    keys.suite = static_cast<tls::CipherSuite>(r.u16());
    auto get_dir = [&](tls::DirectionKeys& d) {
      d.key = to_bytes(r.vec8());
      d.fixed_iv = to_bytes(r.vec8());
    };
    get_dir(keys.keys.client_write);
    get_dir(keys.keys.server_write);
    keys.client_seq = r.u64();
    keys.server_seq = r.u64();
    r.expect_end();
    return keys;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

// ------------------------------------------------------------- middlebox

namespace {
tls::Config control_server_config(const NaiveKeyShareMiddlebox::Options& options) {
  tls::Config cfg;
  cfg.is_client = false;
  cfg.private_key = options.private_key;
  cfg.certificate_chain = options.certificate_chain;
  cfg.rng_label = options.rng_label + "/control";
  cfg.secret_store = options.untrusted_store;
  cfg.secret_prefix = "naive-mbox/control/";
  return cfg;
}
}  // namespace

NaiveKeyShareMiddlebox::NaiveKeyShareMiddlebox(Options options)
    : options_(std::move(options)), control_(control_server_config(options_)) {}

void NaiveKeyShareMiddlebox::feed_control(ByteView data) {
  control_.feed(data);
  const Bytes plain = control_.take_plaintext();
  if (!plain.empty() && !keys_) {
    const auto keys = decode_session_keys(plain);
    if (keys) {
      keys_ = *keys;
      // The defining weakness of this design on untrusted infrastructure:
      // the end-to-end session keys sit in ordinary memory.
      if (options_.untrusted_store) {
        options_.untrusted_store->put("naive-mbox/client_write_key",
                                      keys->keys.client_write.key);
        options_.untrusted_store->put("naive-mbox/server_write_key",
                                      keys->keys.server_write.key);
      }
      c2s_open_.emplace(keys->keys.client_write, keys->client_seq);
      c2s_seal_.emplace(keys->keys.client_write, keys->client_seq);
      s2c_open_.emplace(keys->keys.server_write, keys->server_seq);
      s2c_seal_.emplace(keys->keys.server_write, keys->server_seq);
    }
  }
}

Bytes NaiveKeyShareMiddlebox::take_control_output() { return control_.take_output(); }

void NaiveKeyShareMiddlebox::process_record(bool from_client, tls::RecordView record) {
  Bytes& out = from_client ? to_server_ : to_client_;
  if (!keys_ || record.type != tls::ContentType::kApplicationData) {
    append(out, record.raw);  // handshake traffic etc.: forward opaquely
    return;
  }
  auto& open_ch = from_client ? c2s_open_ : s2c_open_;
  auto& seal_ch = from_client ? c2s_seal_ : s2c_seal_;
  Bytes payload;
  if (!open_ch->open_into(record.type, record.body(), payload)) {
    append(out, record.raw);  // not ours to judge; forward
    return;
  }
  if (options_.processor) payload = options_.processor(from_client, payload);
  // Re-encrypt with the SAME key and the SAME sequence number: with GCM this
  // reproduces the identical ciphertext when the payload is unmodified —
  // precisely the P1C leak the paper calls out.
  seal_ch->seal_into(record.type, payload, out);
}

void NaiveKeyShareMiddlebox::feed_from_client(ByteView data) {
  down_reader_.consume(data, [&](tls::RecordView rec) {
    process_record(true, rec);
    return true;
  });
}

void NaiveKeyShareMiddlebox::feed_from_server(ByteView data) {
  up_reader_.consume(data, [&](tls::RecordView rec) {
    process_record(false, rec);
    return true;
  });
}

Bytes NaiveKeyShareMiddlebox::take_to_client() { return std::move(to_client_); }
Bytes NaiveKeyShareMiddlebox::take_to_server() { return std::move(to_server_); }

// ---------------------------------------------------------------- client

NaiveKeyShareClient::NaiveKeyShareClient(Options options)
    : primary_([&] {
        options.tls.is_client = true;
        return options.tls;
      }()),
      control_([&] {
        options.control_tls.is_client = true;
        return options.control_tls;
      }()) {}

void NaiveKeyShareClient::start() {
  primary_.start();
  control_.start();
}

void NaiveKeyShareClient::feed(ByteView data) {
  primary_.feed(data);
  maybe_send_keys();
}

Bytes NaiveKeyShareClient::take_output() { return primary_.take_output(); }

void NaiveKeyShareClient::feed_control(ByteView data) {
  control_.feed(data);
  maybe_send_keys();
}

Bytes NaiveKeyShareClient::take_control_output() { return control_.take_output(); }

void NaiveKeyShareClient::maybe_send_keys() {
  if (keys_sent_ || !primary_.handshake_done() || !control_.handshake_done()) return;
  control_.send(encode_session_keys(primary_.connection_keys()));
  keys_sent_ = true;
}

}  // namespace mbtls::baselines
