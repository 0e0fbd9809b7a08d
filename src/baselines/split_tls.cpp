#include "baselines/split_tls.h"

namespace mbtls::baselines {

SplitTlsMiddlebox::SplitTlsMiddlebox(Options options)
    : options_(std::move(options)), rng_(options_.rng_label + "/fab", options_.rng_seed) {}

void SplitTlsMiddlebox::start_downstream(tls::ContentType type, ByteView client_hello_body) {
  // Parse the SNI so we can impersonate the right host.
  tls::HandshakeReassembler reasm;
  reasm.feed(client_hello_body);
  const auto msg = reasm.next();
  std::string host = "unknown.invalid";
  tls::ClientHello hello;
  if (msg && msg->type == tls::HandshakeType::kClientHello) {
    hello = tls::ClientHello::parse(msg->body);
    if (const auto* sni = hello.find_extension(tls::kExtServerName)) {
      if (auto name = tls::parse_sni(sni->data)) host = *name;
    }
  }

  // Fabricate a certificate for the host, signed by the interception CA.
  // The key type must suit the client's offered cipher suites: prefer ECDSA
  // (cheap to generate per connection), fall back to RSA if the client only
  // offers *_RSA_* suites.
  bool client_accepts_ecdsa = false;
  for (const auto wire_suite : hello.cipher_suites) {
    const auto info = tls::suite_info(wire_suite);
    if (info && info->auth == tls::AuthAlgo::kEcdsa) client_accepts_ecdsa = true;
  }
  const x509::KeyType fab_type =
      client_accepts_ecdsa ? x509::KeyType::kEcdsaP256 : x509::KeyType::kRsa;
  // Interception proxies cache fabricated certificates per host (key
  // generation would otherwise dominate every connection setup).
  struct FabEntry {
    std::shared_ptr<x509::PrivateKey> key;
    x509::Certificate cert;
  };
  static std::map<std::pair<std::string, int>, FabEntry> fabrication_cache;
  const auto cache_key = std::make_pair(host, static_cast<int>(fab_type));
  auto cached = fabrication_cache.find(cache_key);
  if (cached == fabrication_cache.end()) {
    auto key = std::make_shared<x509::PrivateKey>(
        x509::PrivateKey::generate(fab_type, rng_, 2048));
    x509::CertRequest req;
    req.subject_cn = host;
    req.san_dns = {host};
    req.not_before = 0;
    req.not_after = 2524607999;
    req.key = key->public_key();
    cached = fabrication_cache
                 .emplace(cache_key, FabEntry{key, options_.ca->issue(req, rng_)})
                 .first;
  }
  auto fab_key = cached->second.key;
  const x509::Certificate& fabricated = cached->second.cert;

  tls::Config down_cfg;
  down_cfg.is_client = false;
  down_cfg.private_key = fab_key;
  down_cfg.certificate_chain = {fabricated, options_.ca->root()};
  down_cfg.now = options_.now;
  down_cfg.rng_label = options_.rng_label + "/down";
  down_cfg.rng_seed = options_.rng_seed;
  down_cfg.secret_store = options_.secret_store;
  down_cfg.secret_prefix = "split-mbox/down/";
  downstream_ = std::make_unique<tls::Engine>(std::move(down_cfg));

  // Open our own session to the real server.
  tls::Config up_cfg;
  up_cfg.is_client = true;
  up_cfg.server_name = host;
  up_cfg.trust_anchors = options_.upstream_trust_anchors;
  up_cfg.verify_peer_certificate = options_.verify_upstream;
  up_cfg.now = options_.now;
  up_cfg.rng_label = options_.rng_label + "/up";
  up_cfg.rng_seed = options_.rng_seed;
  up_cfg.secret_store = options_.secret_store;
  up_cfg.secret_prefix = "split-mbox/up/";
  upstream_ = std::make_unique<tls::Engine>(std::move(up_cfg));
  upstream_->start();

  downstream_->feed_record(type, client_hello_body);
}

void SplitTlsMiddlebox::feed_from_client(ByteView data) {
  if (failed_) return;
  down_reader_.consume(data, [&](tls::RecordView rec) {
    if (!downstream_) {
      start_downstream(rec.type, rec.body());
    } else {
      downstream_->feed_record(rec.type, rec.body());
    }
    return true;
  });
  pump_app_data();
}

void SplitTlsMiddlebox::feed_from_server(ByteView data) {
  if (failed_ || !upstream_) return;
  upstream_->feed(data);
  pump_app_data();
}

void SplitTlsMiddlebox::pump_app_data() {
  if (downstream_) {
    if (downstream_->failed()) {
      failed_ = true;
      error_ = "downstream: " + downstream_->error_message();
    }
    if (downstream_->handshake_done() && upstream_ && upstream_->handshake_done()) {
      const Bytes c2s = downstream_->take_plaintext();
      if (!c2s.empty()) {
        append(observed_c2s_, c2s);
        const Bytes out = options_.processor ? options_.processor(true, c2s) : c2s;
        upstream_->send(out);
      }
    }
    append(to_client_, downstream_->take_output());
  }
  if (upstream_) {
    if (upstream_->failed()) {
      failed_ = true;
      error_ = "upstream: " + upstream_->error_message();
    }
    if (upstream_->handshake_done() && downstream_ && downstream_->handshake_done()) {
      const Bytes s2c = upstream_->take_plaintext();
      if (!s2c.empty()) {
        append(observed_s2c_, s2c);
        const Bytes out = options_.processor ? options_.processor(false, s2c) : s2c;
        downstream_->send(out);
      }
    }
    append(to_server_, upstream_->take_output());
  }
}

Bytes SplitTlsMiddlebox::take_to_client() {
  pump_app_data();
  return std::move(to_client_);
}

Bytes SplitTlsMiddlebox::take_to_server() {
  pump_app_data();
  return std::move(to_server_);
}

bool SplitTlsMiddlebox::both_established() const {
  return downstream_ && upstream_ && downstream_->handshake_done() &&
         upstream_->handshake_done();
}

}  // namespace mbtls::baselines
