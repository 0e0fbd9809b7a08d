// mbTLS server endpoint (§3.4, "Server-Side Middleboxes").
//
// Server-side middleboxes announce themselves with MiddleboxAnnouncement
// records and then open secondary handshakes in which the *middlebox* plays
// the TLS server role and this endpoint plays the TLS client role, reusing
// the primary ClientHello it received (which may have come from a legacy
// client — server-side middleboxes work regardless of client support, P5).
#pragma once

#include <map>

#include "mbtls/types.h"

namespace mbtls::mb {

class ServerSession {
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

  void feed(ByteView transport_bytes);
  Bytes take_output();

  void send(ByteView application_data);
  Bytes take_app_data();
  void close();

  /// Deadline hook (see ClientSession::handshake_expired).
  bool handshake_expired();

  /// Explicit watchdog abort: fatal alert + failure with `reason`.
  void abort(const std::string& reason);

  /// Transport died without close_notify: explicit failure unless closed.
  void transport_closed();

  SessionStatus status() const { return status_; }
  bool established() const { return status_ == SessionStatus::kEstablished; }
  bool failed() const { return status_ == SessionStatus::kFailed; }
  const std::string& error_message() const { return error_; }

  std::vector<MiddleboxDescriptor> middleboxes() const;
  std::size_t announcements_seen() const { return announcements_; }

  const tls::Engine& primary() const { return primary_; }

 private:
  struct Secondary {
    std::unique_ptr<tls::Engine> engine;
    MiddleboxDescriptor descriptor;
    bool approved = false;
    std::vector<Bytes> pending_inner;  // records that arrived before the CH
  };

  void handle_record(tls::ContentType type, MutableByteView body);
  void handle_encapsulated(ByteView payload);
  void handle_data_record(tls::ContentType type, MutableByteView body);
  Secondary& ensure_secondary(std::uint8_t sub);
  void start_pending_secondaries();
  void pump_secondary(std::uint8_t sub, Secondary& sec);
  void drain_primary();
  void maybe_finish_setup();
  void distribute_keys();
  void fail(const std::string& message);
  void emit_fatal_alert(tls::AlertDescription description);

  Options options_;
  trace::Emitter trace_;
  tls::Engine primary_;
  std::map<std::uint8_t, Secondary> secondaries_;
  tls::RecordReader reader_;
  crypto::Drbg hop_rng_;
  Bytes out_;
  Bytes app_in_;
  std::optional<HopDuplex> data_path_;  // hop adjacent to the server
  SessionStatus status_ = SessionStatus::kHandshaking;
  std::string error_;
  std::size_t announcements_ = 0;
};

}  // namespace mbtls::mb
