// mbTLS server endpoint (§3.4, "Server-Side Middleboxes").
//
// The server role over the endpoint core (mbtls/endpoint.h). Server-side
// middleboxes announce themselves with MiddleboxAnnouncement records and
// then open secondary handshakes in which the *middlebox* plays the TLS
// server role and this endpoint plays the TLS client role, reusing the
// primary ClientHello it received (which may have come from a legacy client —
// server-side middleboxes work regardless of client support, P5).
#pragma once

#include "mbtls/endpoint.h"

namespace mbtls::mb {

class ServerSession final : public EndpointCore {
 public:
  struct Options {
    tls::Config tls;  // is_client forced false
    bool require_middlebox_attestation = false;
    Bytes expected_middlebox_measurement;
    std::vector<x509::Certificate> middlebox_trust_anchors;  // empty = tls.trust_anchors
    ApprovalCallback approve;

    /// Handshake deadline in microseconds of virtual time (0 = none); see
    /// ClientSession::Options::handshake_timeout. Protects the server from
    /// half-open sessions whose middlebox died mid-handshake.
    std::uint64_t handshake_timeout = 0;

    /// Structured tracing (see ClientSession::Options::trace_sink).
    trace::Sink* trace_sink = nullptr;
    std::string trace_actor = "server";
  };

  explicit ServerSession(Options options);

  std::size_t announcements_seen() const { return announcements_; }

 private:
  static Setup make_setup(const Options& options);
  tls::Config secondary_config(std::uint8_t sub) const override;
  void on_announcement() override;

  Options options_;
  std::size_t announcements_ = 0;
};

}  // namespace mbtls::mb
