// The "naive approach" baseline (paper Figure 1): establish a normal
// end-to-end TLS session, then pass the session keys to the middlebox over a
// separate, secondary TLS session.
//
// This provides secrecy against pure network attackers, but the same
// symmetric keys protect every hop, so (Table 1 / §3.3):
//  * an adversary can compare records entering and leaving the middlebox and
//    learn whether it modified them (no P1C),
//  * records can be made to skip the middlebox entirely (no P4),
//  * on untrusted infrastructure the keys sit in plain memory (no P1A/P2).
#pragma once

#include <memory>

#include "mbtls/middlebox.h"

namespace mbtls::baselines {

/// Wire format for the key handoff over the secondary session.
Bytes encode_session_keys(const tls::ConnectionKeys& keys);
std::optional<tls::ConnectionKeys> decode_session_keys(ByteView data);

/// The middlebox half: terminates the secondary TLS session (server role) on
/// a dedicated byte stream, receives the session keys, then transparently
/// decrypts / re-encrypts primary-session records flowing through it.
class NaiveKeyShareMiddlebox {
 public:
  struct Options {
    std::shared_ptr<x509::PrivateKey> private_key;
    std::vector<x509::Certificate> certificate_chain;
    sgx::MemoryStore* untrusted_store = nullptr;  // where the keys land
    mb::Middlebox::Processor processor;
    std::string rng_label = "naive-mbox";
  };

  explicit NaiveKeyShareMiddlebox(Options options);

  // Secondary (control) stream carrying the key handoff.
  void feed_control(ByteView data);
  Bytes take_control_output();

  // Primary data path (records between client and server).
  void feed_from_client(ByteView data);
  void feed_from_server(ByteView data);
  Bytes take_to_client();
  Bytes take_to_server();

  bool has_keys() const { return keys_.has_value(); }

 private:
  void process_record(bool from_client, tls::RecordView record);

  Options options_;
  tls::Engine control_;
  std::optional<tls::HopChannel> c2s_open_, c2s_seal_;
  std::optional<tls::HopChannel> s2c_open_, s2c_seal_;
  std::optional<tls::ConnectionKeys> keys_;
  tls::RecordReader down_reader_, up_reader_;
  Bytes to_client_, to_server_;
};

/// Client-side helper: after completing a normal TLS handshake, hand the
/// session keys to the middlebox over a fresh TLS session on `control`.
class NaiveKeyShareClient {
 public:
  struct Options {
    tls::Config tls;                  // primary session config
    tls::Config control_tls;          // secondary session config (client)
  };

  explicit NaiveKeyShareClient(Options options);

  void start();
  void feed(ByteView data);           // primary stream
  Bytes take_output();
  void feed_control(ByteView data);   // secondary stream
  Bytes take_control_output();

  bool ready() const { return keys_sent_; }
  tls::Engine& primary() { return primary_; }

 private:
  void maybe_send_keys();

  tls::Engine primary_;
  tls::Engine control_;
  bool keys_sent_ = false;
};

}  // namespace mbtls::baselines
