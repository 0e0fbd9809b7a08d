#include "mbtls/client.h"

namespace mbtls::mb {

ClientSession::ClientSession(Options options)
    : EndpointCore(make_setup(options)), options_(std::move(options)) {}

EndpointCore::Setup ClientSession::make_setup(const Options& options) {
  Setup setup;
  setup.is_client = true;
  setup.primary = options.tls;
  if (options.announce_mbtls) {
    tls::MiddleboxSupportExtension ext;
    ext.known_middleboxes = options.known_middleboxes;
    setup.primary.extra_extensions.push_back({tls::kExtMiddleboxSupport, ext.encode()});
  }
  if (options.require_middlebox_attestation) {
    // Signals on-path middleboxes to include quotes in their secondary
    // handshakes. The origin server simply ignores the unknown extension.
    setup.primary.extra_extensions.push_back({tls::kExtAttestationRequest, {}});
  }
  setup.approve = options.approve;
  setup.require_middlebox_attestation = options.require_middlebox_attestation;
  setup.expected_middlebox_measurement = options.expected_middlebox_measurement;
  setup.fallback_to_direct_tls = options.fallback_to_direct_tls;
  setup.trace_sink = options.trace_sink;
  setup.trace_actor = options.trace_actor;
  return setup;
}

void ClientSession::start() {
  primary_.start();
  drain_primary();
}

tls::Config ClientSession::secondary_config(std::uint8_t /*sub*/) const {
  tls::Config cfg = options_.tls;
  cfg.server_name.clear();  // middlebox identity approved via callback
  cfg.extra_extensions.clear();
  return cfg;
}

}  // namespace mbtls::mb
