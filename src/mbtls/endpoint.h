// mbTLS endpoint core (§3.4): what the client and the server share.
//
// An endpoint owns the primary TLS engine plus one secondary engine per
// middlebox on its side of the bridge hop. Secondary handshakes ride the
// same byte stream inside Encapsulated records, the endpoint playing the TLS
// client with the primary ClientHello doing double duty. Once the primary
// handshake and every secondary handshake complete and every middlebox is
// approved, the endpoint generates a fresh key for each hop on its side,
// ships each middlebox its two adjacent hops in an MBTLSKeyMaterial record
// over its secondary session, and switches its data path to the hop
// adjacent to it.
//
// ClientSession and ServerSession are thin roles over this core: each
// supplies its primary tls::Config and its secondaries' tls::Config, and its
// side decides which of a middlebox's two hops lies toward the client.
#pragma once

#include <map>

#include "mbtls/types.h"

namespace mbtls::mb {

class EndpointCore {
 public:
  /// One read's bytes: every complete record is handled where the read put
  /// it (tls::RecordReader::consume()), data records opened straight onto
  /// the take_app_data() buffer; only a record the read cut off is kept.
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

  /// This side's middleboxes in path order, nearest the bridge hop first
  /// (ascending subchannel).
  std::vector<MiddleboxDescriptor> middleboxes() const;

  const tls::Engine& primary() const { return primary_; }

 protected:
  /// What a role hands the core.
  struct Setup {
    bool is_client = false;
    tls::Config primary;  // the primary engine's config; the core sets role and tracing
    ApprovalCallback approve;
    bool require_middlebox_attestation = false;
    Bytes expected_middlebox_measurement;
    bool fallback_to_direct_tls = false;  // set on deadline expiry when true
    trace::Sink* trace_sink = nullptr;
    std::string trace_actor;
  };

  explicit EndpointCore(Setup setup);

  /// The role's part of the secondary engine config for subchannel `sub`;
  /// the core then sets what every secondary shares (client role, the
  /// attestation policy, DRBG stream, no session cache, tracing).
  virtual tls::Config secondary_config(std::uint8_t sub) const = 0;
  /// A MiddleboxAnnouncement arrived (server-side middleboxes send them
  /// toward the server; anyone else ignores them).
  virtual void on_announcement() {}

  void drain_primary();

  trace::Emitter trace_;
  tls::Engine primary_;
  bool fallback_wanted_ = false;

 private:
  struct Secondary {
    std::unique_ptr<tls::Engine> engine;  // null until the primary ClientHello
    MiddleboxDescriptor descriptor;
    bool approved = false;
    std::vector<Bytes> pending_inner;  // inner records not yet fed to `engine`
  };

  void handle_record(tls::ContentType type, ByteView body);
  void handle_encapsulated(ByteView payload);
  void handle_data_record(tls::ContentType type, ByteView body);
  void start_pending_secondaries();
  void pump_secondary(std::uint8_t sub, Secondary& sec);
  void maybe_finish_setup();
  void distribute_keys();
  void fail(const std::string& message);
  void emit_fatal_alert(tls::AlertDescription description);

  bool is_client_;
  bool fallback_to_direct_tls_;
  bool require_middlebox_attestation_;
  Bytes expected_middlebox_measurement_;
  ApprovalCallback approve_;
  std::map<std::uint8_t, Secondary> secondaries_;
  // Each read's records are handled where the read put them (consume());
  // the reader holds only a record that a read boundary cut off.
  tls::RecordReader reader_;
  crypto::Drbg hop_rng_;
  Bytes out_;
  Bytes app_in_;
  // The hop adjacent to this endpoint: `inbound_` opens what the peer side
  // sends, `outbound_` seals what this side sends.
  std::optional<tls::HopChannel> inbound_;
  std::optional<tls::HopChannel> outbound_;
  SessionStatus status_ = SessionStatus::kHandshaking;
  std::string error_;
};

}  // namespace mbtls::mb
