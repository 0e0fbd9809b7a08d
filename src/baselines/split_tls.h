// "Split TLS" baseline (§2.2): TLS interception with a custom root CA.
//
// The middlebox terminates the client's TLS session by fabricating a
// certificate for the requested server name (signed by a root the client was
// provisioned to trust) and opens an independent TLS session to the server.
// This is the practice mbTLS replaces; it appears in Figure 5 (handshake CPU
// comparison) and in the Table-1 attack harness (the client cannot
// authenticate the real server; the middlebox sees everything).
#pragma once

#include <map>
#include <memory>

#include "mbtls/middlebox.h"
#include "x509/certificate.h"

namespace mbtls::baselines {

class SplitTlsMiddlebox {
 public:
  struct Options {
    /// The interception CA whose root the client trusts.
    const x509::CertificateAuthority* ca = nullptr;
    /// Identity used on the middlebox->server connection (client role): the
    /// middlebox validates the real server chain against these anchors —
    /// or not at all, which is the widely-deployed misconfiguration the
    /// paper cites ([23]).
    std::vector<x509::Certificate> upstream_trust_anchors;
    bool verify_upstream = true;
    std::int64_t now = 1500000000;
    mb::Middlebox::Processor processor;
    /// Where this middlebox's session secrets live (plain process memory on
    /// the hosting platform — split TLS has no enclave story).
    sgx::MemoryStore* secret_store = nullptr;
    std::string rng_label = "split-mbox";
    std::uint64_t rng_seed = 7;
  };

  explicit SplitTlsMiddlebox(Options options);

  void feed_from_client(ByteView data);
  void feed_from_server(ByteView data);
  Bytes take_to_client();
  Bytes take_to_server();

  bool both_established() const;
  bool failed() const { return failed_; }
  const std::string& error_message() const { return error_; }

  /// The plaintext this middlebox observed (it sees everything).
  const Bytes& observed_c2s() const { return observed_c2s_; }
  const Bytes& observed_s2c() const { return observed_s2c_; }

 private:
  void start_downstream(tls::ContentType type, ByteView client_hello_body);
  void pump_app_data();

  Options options_;
  crypto::Drbg rng_;
  std::unique_ptr<tls::Engine> downstream_;  // server role toward the client
  std::unique_ptr<tls::Engine> upstream_;    // client role toward the server
  tls::RecordReader down_reader_;
  Bytes to_client_, to_server_;
  Bytes observed_c2s_, observed_s2c_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace mbtls::baselines
