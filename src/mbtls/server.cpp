#include "mbtls/server.h"

namespace mbtls::mb {

ServerSession::ServerSession(Options options)
    : EndpointCore(make_setup(options)), options_(std::move(options)) {}

EndpointCore::Setup ServerSession::make_setup(const Options& options) {
  Setup setup;
  setup.is_client = false;
  setup.primary = options.tls;
  setup.approve = options.approve;
  setup.require_middlebox_attestation = options.require_middlebox_attestation;
  setup.expected_middlebox_measurement = options.expected_middlebox_measurement;
  setup.trace_sink = options.trace_sink;
  setup.trace_actor = options.trace_actor;
  return setup;
}

tls::Config ServerSession::secondary_config(std::uint8_t sub) const {
  tls::Config cfg;
  cfg.cipher_suites = options_.tls.cipher_suites;
  cfg.trust_anchors = options_.middlebox_trust_anchors.empty()
                          ? options_.tls.trust_anchors
                          : options_.middlebox_trust_anchors;
  cfg.verify_peer_certificate = true;
  cfg.now = options_.tls.now;
  cfg.cert_pool = options_.tls.cert_pool;
  cfg.quote_verifier = options_.tls.quote_verifier;
  cfg.secret_store = options_.tls.secret_store;
  cfg.secret_prefix = options_.tls.secret_prefix + "mbox" + std::to_string(sub) + "/";
  return cfg;
}

void ServerSession::on_announcement() {
  ++announcements_;
  trace_.instant("mbtls", "announce.seen",
                 {{"count", static_cast<std::uint64_t>(announcements_)}});
}

}  // namespace mbtls::mb
