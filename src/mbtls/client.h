// mbTLS client endpoint (§3.4).
//
// Owns the primary TLS engine (whose ClientHello carries the
// MiddleboxSupport extension) plus one secondary engine per discovered or
// pre-configured client-side middlebox. Secondary handshakes ride the same
// byte stream inside Encapsulated records; once the primary handshake and
// every secondary handshake complete, the client generates unique per-hop
// keys, ships them in MBTLSKeyMaterial records over the secondary sessions,
// and switches its data path to the hop adjacent to it.
#pragma once

#include <map>

#include "mbtls/types.h"

namespace mbtls::mb {

class ClientSession {
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

  void feed(ByteView transport_bytes);
  Bytes take_output();

  void send(ByteView application_data);
  Bytes take_app_data();
  void close();

  /// Deadline hook, driven off the virtual clock by the transport layer: if
  /// the handshake is still in flight, emit a fatal handshake_failure alert,
  /// fail the session, and return true (no-op otherwise).
  bool handshake_expired();

  /// Explicit watchdog abort: emit a fatal alert (sealed when keys exist)
  /// and fail with `reason`. Idempotent once terminal.
  void abort(const std::string& reason);

  /// The transport died without a close_notify (peer RST, retransmit
  /// exhaustion, mid-handshake FIN). Anything but a cleanly closed session
  /// becomes an explicit failure — never a hang, never a silent truncation.
  void transport_closed();

  SessionStatus status() const { return status_; }
  bool established() const { return status_ == SessionStatus::kEstablished; }
  bool failed() const { return status_ == SessionStatus::kFailed; }
  const std::string& error_message() const { return error_; }

  /// True once a deadline expiry requested the configured direct-TLS
  /// fallback; the transport owner performs the redial.
  bool wants_fallback() const { return fallback_wanted_; }

  /// Client-side middleboxes in path order (closest to the server first).
  std::vector<MiddleboxDescriptor> middleboxes() const;

  const tls::Engine& primary() const { return primary_; }

 private:
  struct Secondary {
    std::unique_ptr<tls::Engine> engine;
    MiddleboxDescriptor descriptor;
    bool approved = false;
  };

  void handle_record(tls::ContentType type, MutableByteView body);
  void handle_encapsulated(ByteView payload);
  void handle_data_record(tls::ContentType type, MutableByteView body);
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
  std::optional<HopDuplex> data_path_;  // hop adjacent to the client
  SessionStatus status_ = SessionStatus::kHandshaking;
  std::string error_;
  bool fallback_wanted_ = false;
};

}  // namespace mbtls::mb
