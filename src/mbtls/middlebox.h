// mbTLS middlebox runtime (§3.4): one instance per spliced connection.
//
// The middlebox sits between two TCP segments ("downstream" toward the
// client, "upstream" toward the server) and:
//  * decides, from the ClientHello, whether to join the session (client-side
//    mode requires the MiddleboxSupport extension; server-side mode
//    announces itself with a MiddleboxAnnouncement and joins regardless of
//    client support),
//  * cut-through forwards all primary-handshake records,
//  * runs a secondary TLS handshake with its endpoint — playing the TLS
//    *server* role, with the primary ClientHello serving double duty — over
//    Encapsulated records on its own subchannel,
//  * receives MBTLSKeyMaterial for its two adjacent hops, and thereafter
//    re-protects every data record: open with the inbound hop keys, run the
//    application processor, seal with the outbound hop keys,
//  * falls back to pure relay mode when the session is not mbTLS (legacy
//    client without the extension / legacy server that ignores
//    announcements), caching that fact (observed_legacy_peer).
//
// When an enclave is configured, session secrets (secondary-session keys and
// the installed hop keys) live in enclave memory; otherwise they are written
// to the untrusted store, which is exactly what the Table-1 infrastructure
// adversary reads. With an enclave, the record loop of each transport read
// runs inside one Enclave::ecall_batch: one boundary crossing per read,
// however many records it carries.
//
// One instance is single-threaded; many cores come from running many
// instances on the loops of a net::posix::LoopGroup (DESIGN.md "Multi-loop
// transport").
#pragma once

#include <deque>

#include "mbtls/types.h"
#include "sgx/enclave.h"

namespace mbtls::mb {

class Middlebox {
 public:
  enum class Side { kClientSide, kServerSide };

  /// Application hook: transform one record's worth of application data.
  /// `client_to_server` gives the direction. Return the (possibly modified)
  /// payload.
  using Processor = std::function<Bytes(bool client_to_server, ByteView data)>;

  struct Options {
    std::string name;
    Side side = Side::kClientSide;
    std::shared_ptr<x509::PrivateKey> private_key;
    std::vector<x509::Certificate> certificate_chain;
    std::vector<tls::CipherSuite> cipher_suites;  // empty = engine defaults
    sgx::Enclave* enclave = nullptr;              // secure execution environment
    sgx::MemoryStore* untrusted_store = nullptr;  // where keys land without one
    Processor processor;                          // identity when empty
    bool peer_known_legacy = false;               // cached: don't announce (§3.4)
    std::int64_t now = 1500000000;
    /// Session resumption (§3.5): secondary-session state is cached keyed by
    /// the *primary* session's ID (which every middlebox observes in the
    /// hellos), so the one session ID the shared ClientHello carries lets
    /// each party resume its own sub-handshake.
    tls::SessionCache* session_cache = nullptr;
    /// Join deadline in microseconds of virtual time (0 = none), enforced by
    /// the transport binding: a middlebox whose secondary handshake or key
    /// material stalls demotes itself to a transparent relay instead of
    /// sitting half-joined forever (the endpoints' own deadlines and MACs
    /// then decide the session's fate).
    std::uint64_t handshake_timeout = 0;

    /// Structured tracing (see ClientSession::Options::trace_sink). The
    /// actor defaults to "mbox:<name>" when left empty.
    trace::Sink* trace_sink = nullptr;
    std::string trace_actor;
  };

  explicit Middlebox(Options options);

  // Byte-stream interface; the owner splices two transport connections.
  // Every byte fed in is forwarded, re-protected, consumed by the secondary
  // handshake, or dropped as an unauthenticated record (auth_failures) —
  // never forwarded twice. A relay forwards each chunk as it arrives.
  void feed_from_client(ByteView data);
  void feed_from_server(ByteView data);
  Bytes take_to_client() { return std::move(to_client_); }
  Bytes take_to_server() { return std::move(to_server_); }
  /// The output buffers themselves. A transport binding sends straight from
  /// these and clear()s them, so their capacity carries over to the next
  /// read instead of regrowing from empty.
  Bytes& output_to_client() { return to_client_; }
  Bytes& output_to_server() { return to_server_; }

  /// Joined the session with hop keys installed.
  bool joined() const { return joined_; }
  /// Secondary handshake completed via abbreviated resumption.
  bool resumed() const { return secondary_ && secondary_->resumed(); }
  /// Demoted (or configured) to transparent forwarding.
  bool relay_mode() const { return mode_ == Mode::kRelay; }
  /// True when the far endpoint turned out not to speak mbTLS — the paper's
  /// middleboxes cache this and stop announcing to that peer.
  bool observed_legacy_peer() const { return observed_legacy_peer_; }
  std::uint8_t subchannel() const { return subchannel_; }
  const std::string& name() const { return options_.name; }

  /// Join-deadline hook (see Options::handshake_timeout): if still
  /// half-joined, demote to relay and return true.
  bool handshake_expired();

  /// Hop-by-hop shutdown visibility: close_notify alerts opened on the
  /// reprotect path are recognized (not treated as opaque data) and
  /// re-protected onward, so a clean endpoint shutdown traverses every hop.
  bool saw_close_notify_from_client() const { return close_seen_c2s_; }
  bool saw_close_notify_from_server() const { return close_seen_s2c_; }

  std::uint64_t records_reprotected() const { return records_reprotected_; }
  std::uint64_t bytes_processed() const { return bytes_processed_; }
  std::uint64_t auth_failures() const { return auth_failures_; }

 private:
  enum class Mode { kUndecided, kJoining, kRelay };

  void feed(ByteView data, bool from_client);
  /// Handles every complete record of `data`, first completing the one
  /// `reader` holds part of, until the records run out or the middlebox
  /// turns relay; returns how many it handled. Consumes what it handles or
  /// buffers from the front of `data`: what is left is for the relay.
  std::size_t drain_records(tls::RecordReader& reader, ByteView& data, bool from_client);
  // `raw` is a whole wire record, lying where the read put it or in its
  // reader's buffer, and valid only for the call.
  void handle_downstream_record(ByteView raw);  // arriving from the client
  void handle_upstream_record(ByteView raw);    // arriving from the server
  void on_client_hello(const tls::Record& record, ByteView raw);
  /// The secondary engine's DRBG is seeded from the middlebox name and a
  /// digest of the primary ClientHello, so every distinct hello gets its own
  /// stream. A replayed ClientHello reproduces the secondary's ServerHello
  /// random, session ID and ECDHE key (no per-connection freshness yet).
  void create_secondary(const tls::Record& client_hello_record, ByteView client_hello_raw);
  void feed_secondary(ByteView inner_record_bytes);
  void drain_secondary();
  void install_keys(const tls::KeyMaterialMsg& msg);
  void maybe_cache_session();
  /// ApplicationData or Alert `raw`: reprotected once joined, buffered while
  /// key material is in flight, else relayed (demoting on data).
  void handle_data_record(bool from_client, ByteView raw);
  /// Re-protects `body` (the raw record bytes after the header) onto the
  /// outbound stream: one fused pass for ApplicationData with no processor,
  /// else copy into opened_, open there, process, seal. Zero-copy,
  /// zero-allocation unless an application processor is configured.
  void reprotect(bool from_client, tls::ContentType type, ByteView body);
  void note_alert(ByteView plaintext, bool client_to_server);
  void flush_buffered();
  void demote_to_relay(const std::string& reason);
  Bytes& endpoint_out() {
    return options_.side == Side::kClientSide ? to_client_ : to_server_;
  }
  sgx::MemoryStore* key_store();

  Options options_;
  trace::Emitter trace_;
  Mode mode_ = Mode::kUndecided;
  bool saw_client_hello_ = false;
  bool subchannel_assigned_ = false;
  std::uint8_t subchannel_ = 0;
  bool joined_ = false;
  bool observed_legacy_peer_ = false;
  bool close_seen_c2s_ = false;
  bool close_seen_s2c_ = false;

  // Discovery bookkeeping.
  std::uint8_t max_subchannel_seen_upstream_ = 0;   // client side assignment
  std::size_t announcements_seen_downstream_ = 0;   // server side assignment
  Bytes primary_session_id_;                        // from the primary ServerHello
  bool session_cached_ = false;

  std::unique_ptr<tls::Engine> secondary_;
  std::vector<Bytes> secondary_out_buffer_;  // held until subchannel assigned

  std::optional<HopDuplex> toward_client_;
  std::optional<HopDuplex> toward_server_;

  // Data records that arrived before key material (False-Start-like, §3.5),
  // each kept once as its whole wire record: reprotected on install,
  // forwarded verbatim on demotion.
  struct Buffered {
    bool from_client;
    Bytes raw;
  };
  std::deque<Buffered> buffered_data_;

  // Records are handled where the transport's read put them: the
  // steady-state data path — view the record, re-seal it into the output
  // stream in one pass — performs no per-record copy or allocation. The
  // readers hold only a record that a read boundary cut off.
  tls::RecordReader down_reader_, up_reader_;
  // True while the record view in hand has been taken but not yet
  // forwarded: a parse error then forwards it intact. Handlers throw only
  // while parsing, before they forward or buffer the record, and the
  // reprotect path clears the flag before it opens the record: from there
  // it is re-sealed onward or dropped.
  bool raw_in_hand_ = false;
  // The two-pass reprotect's working copy of a record body (alerts, and
  // data for a processor), opened in place here; reused across records.
  Bytes opened_;
  Bytes to_client_, to_server_;

  std::uint64_t records_reprotected_ = 0;
  std::uint64_t bytes_processed_ = 0;
  std::uint64_t auth_failures_ = 0;
};

}  // namespace mbtls::mb
