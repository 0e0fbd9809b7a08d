// mbTLS client endpoint (§3.4).
//
// The client role over the endpoint core (mbtls/endpoint.h): its primary
// ClientHello carries the MiddleboxSupport extension, and it keys the
// client-side middleboxes it discovers or has pre-configured, then switches
// its data path to the hop adjacent to it.
#pragma once

#include "mbtls/endpoint.h"

namespace mbtls::mb {

class ClientSession final : public EndpointCore {
 public:
  struct Options {
    tls::Config tls;  // is_client forced true
    bool announce_mbtls = true;
    std::vector<std::string> known_middleboxes;
    bool require_middlebox_attestation = false;
    Bytes expected_middlebox_measurement;
    ApprovalCallback approve;  // default: accept every verified middlebox

    /// Handshake deadline in microseconds of virtual time, enforced by the
    /// transport binding (sans-IO sessions have no clock of their own).
    /// 0 disables. A stalled middlebox then yields a fatal alert and a clean
    /// failure instead of a silent hang.
    std::uint64_t handshake_timeout = 0;
    /// P5 degradation path: when the deadline fires, ask the owner to redial
    /// the origin directly with a plain end-to-end TLS session (see
    /// FallbackClient in mbtls/transport.h) instead of giving up for good.
    bool fallback_to_direct_tls = false;

    /// Structured tracing: propagated to the primary and secondary engines
    /// ("<actor>/primary", "<actor>/sec<N>") and used for session-level
    /// events (hop establishment, keylog fingerprints, fallback). Null =
    /// disabled, zero overhead.
    trace::Sink* trace_sink = nullptr;
    std::string trace_actor = "client";
  };

  explicit ClientSession(Options options);

  /// Emit the primary ClientHello.
  void start();

  /// True once a deadline expiry requested the configured direct-TLS
  /// fallback; the transport owner performs the redial.
  bool wants_fallback() const { return fallback_wanted_; }

 private:
  static Setup make_setup(const Options& options);
  tls::Config secondary_config(std::uint8_t sub) const override;

  Options options_;
};

}  // namespace mbtls::mb
