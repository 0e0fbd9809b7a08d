#include "attacks/attacks.h"

#include <memory>

#include "baselines/naive_shared_key.h"
#include "crypto/hkdf.h"
#include "crypto/sha2.h"
#include "baselines/split_tls.h"
#include "mbox/cache.h"
#include "http/http.h"
#include "mbtls/client.h"
#include "mbtls/middlebox.h"
#include "mbtls/server.h"
#include "tls/engine.h"
#include "x509/certificate.h"

namespace mbtls::attacks {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kNaiveKeyShare: return "naive key-share TLS";
    case Protocol::kSplitTls: return "split TLS";
    case Protocol::kMbtlsNoSgx: return "mbTLS (no SGX)";
    case Protocol::kMbtls: return "mbTLS + SGX";
  }
  return "?";
}

namespace {

using baselines::NaiveKeyShareClient;
using baselines::NaiveKeyShareMiddlebox;
using baselines::SplitTlsMiddlebox;
using mb::ClientSession;
using mb::Middlebox;
using mb::ServerSession;

// ----------------------------------------------------------- shared fixtures

crypto::Drbg& rng() {
  static crypto::Drbg r("attacks", 0);
  return r;
}

const x509::CertificateAuthority& web_ca() {
  static const auto ca =
      x509::CertificateAuthority::create("Web Root CA", x509::KeyType::kEcdsaP256, rng());
  return ca;
}

const x509::CertificateAuthority& intercept_ca() {
  static const auto ca = x509::CertificateAuthority::create("Corp Interception CA",
                                                            x509::KeyType::kEcdsaP256, rng());
  return ca;
}

struct Identity {
  std::shared_ptr<x509::PrivateKey> key;
  std::vector<x509::Certificate> chain;
};

Identity issue_identity(const x509::CertificateAuthority& ca, const std::string& cn) {
  Identity id;
  id.key = std::make_shared<x509::PrivateKey>(
      x509::PrivateKey::generate(x509::KeyType::kEcdsaP256, rng()));
  x509::CertRequest req;
  req.subject_cn = cn;
  req.san_dns = {cn};
  req.not_after = 2524607999;
  req.key = id.key->public_key();
  id.chain = {ca.issue(req, rng())};
  return id;
}

const Identity& server_identity() {
  static const Identity id = issue_identity(web_ca(), "origin.example");
  return id;
}

const Identity& mbox_identity() {
  static const Identity id = issue_identity(web_ca(), "proxy.example");
  return id;
}

// A byte-stream tap: observe and/or rewrite the bytes crossing one segment
// in one direction. Identity when empty.
using Tap = std::function<Bytes(Bytes)>;

/// One client — one middlebox — one server session with taps on both
/// segments, abstracted over the protocol under test. The sgx::Platform is
/// the middlebox infrastructure provider's machine.
class Scenario {
 public:
  virtual ~Scenario() = default;

  virtual void start() = 0;
  virtual bool healthy() const = 0;  // both endpoints content
  virtual void client_send(ByteView data) = 0;
  virtual Bytes server_received() = 0;
  virtual void server_send(ByteView data) = 0;
  virtual Bytes client_received() = 0;
  /// The end-to-end (bridge/primary) client-write key — the secret the MIP
  /// memory attack hunts for.
  virtual Bytes bridge_key() const = 0;

  Tap tap_c2s_seg1, tap_c2s_seg2, tap_s2c_seg1, tap_s2c_seg2;
  sgx::Platform platform;  // the MIP machine hosting the middlebox

  void pump(int max_iters = 300) {
    for (int i = 0; i < max_iters; ++i) {
      if (!step()) break;
    }
  }

 protected:
  virtual Bytes client_out() = 0;
  virtual void client_in(ByteView) = 0;
  virtual void mbox_from_client(ByteView) = 0;
  virtual Bytes mbox_to_server() = 0;
  virtual void mbox_from_server(ByteView) = 0;
  virtual Bytes mbox_to_client() = 0;
  virtual Bytes server_out() = 0;
  virtual void server_in(ByteView) = 0;
  /// Extra per-step plumbing (the naive baseline's control channel).
  virtual bool extra_step() { return false; }

  bool step() {
    bool moved = extra_step();
    auto shuttle = [&moved](Bytes data, const Tap& tap, auto&& sink) {
      if (data.empty()) return;
      if (tap) data = tap(std::move(data));
      if (data.empty()) return;
      moved = true;
      sink(data);
    };
    shuttle(client_out(), tap_c2s_seg1, [&](const Bytes& d) { mbox_from_client(d); });
    shuttle(mbox_to_server(), tap_c2s_seg2, [&](const Bytes& d) { server_in(d); });
    shuttle(server_out(), tap_s2c_seg2, [&](const Bytes& d) { mbox_from_server(d); });
    shuttle(mbox_to_client(), tap_s2c_seg1, [&](const Bytes& d) { client_in(d); });
    return moved;
  }
};

// -------------------------------------------------------------------- mbTLS

class MbtlsScenario : public Scenario {
 public:
  MbtlsScenario(bool with_sgx, Middlebox::Processor processor = {},
                const std::string& expected_code = "header-proxy-v1.2",
                const std::string& actual_code = "header-proxy-v1.2") {
    if (with_sgx) enclave_ = &platform.launch(actual_code);

    ClientSession::Options copts;
    copts.tls.trust_anchors = {web_ca().root()};
    copts.tls.server_name = "origin.example";
    copts.tls.rng_label = "atk-client";
    copts.tls.rng_seed = seed_++;
    copts.require_middlebox_attestation = with_sgx;
    if (with_sgx) copts.expected_middlebox_measurement = sgx::measure(expected_code);
    client_ = std::make_unique<ClientSession>(std::move(copts));

    ServerSession::Options sopts;
    sopts.tls.private_key = server_identity().key;
    sopts.tls.certificate_chain = server_identity().chain;
    sopts.tls.trust_anchors = {web_ca().root()};
    sopts.tls.rng_label = "atk-server";
    sopts.tls.rng_seed = seed_++;
    server_ = std::make_unique<ServerSession>(std::move(sopts));

    Middlebox::Options mopts;
    mopts.name = "proxy.example";
    mopts.side = Middlebox::Side::kClientSide;
    mopts.private_key = mbox_identity().key;
    mopts.certificate_chain = mbox_identity().chain;
    mopts.enclave = enclave_;
    mopts.untrusted_store = &platform.untrusted_memory();
    mopts.processor = std::move(processor);
    mbox_ = std::make_unique<Middlebox>(std::move(mopts));
  }

  void start() override { client_->start(); }
  bool healthy() const override { return client_->established() && server_->established(); }
  void client_send(ByteView d) override { client_->send(d); }
  Bytes server_received() override { return server_->take_app_data(); }
  void server_send(ByteView d) override { server_->send(d); }
  Bytes client_received() override { return client_->take_app_data(); }
  Bytes bridge_key() const override {
    return client_->primary().connection_keys().keys.client_write.key;
  }

  ClientSession& client() { return *client_; }
  ServerSession& server() { return *server_; }
  Middlebox& middlebox() { return *mbox_; }

 protected:
  Bytes client_out() override { return client_->take_output(); }
  void client_in(ByteView d) override { client_->feed(d); }
  void mbox_from_client(ByteView d) override { mbox_->feed_from_client(d); }
  Bytes mbox_to_server() override { return mbox_->take_to_server(); }
  void mbox_from_server(ByteView d) override { mbox_->feed_from_server(d); }
  Bytes mbox_to_client() override { return mbox_->take_to_client(); }
  Bytes server_out() override { return server_->take_output(); }
  void server_in(ByteView d) override { server_->feed(d); }

 private:
  static inline std::uint64_t seed_ = 1000;
  sgx::Enclave* enclave_ = nullptr;
  std::unique_ptr<ClientSession> client_;
  std::unique_ptr<ServerSession> server_;
  std::unique_ptr<Middlebox> mbox_;
};

// ---------------------------------------------------------------- split TLS

class SplitScenario : public Scenario {
 public:
  explicit SplitScenario(Middlebox::Processor processor = {}, bool verify_upstream = true,
                         Identity upstream_identity = server_identity()) {
    tls::Config ccfg;
    ccfg.is_client = true;
    // The client was provisioned with the interception root (plus the web
    // root) — the managed-device deployment model.
    ccfg.trust_anchors = {intercept_ca().root(), web_ca().root()};
    ccfg.server_name = "origin.example";
    ccfg.rng_label = "atk-split-client";
    ccfg.rng_seed = seed_++;
    client_ = std::make_unique<tls::Engine>(std::move(ccfg));

    SplitTlsMiddlebox::Options mopts;
    mopts.ca = &intercept_ca();
    mopts.upstream_trust_anchors = {web_ca().root()};
    mopts.verify_upstream = verify_upstream;
    mopts.processor = std::move(processor);
    mopts.secret_store = &platform.untrusted_memory();
    mopts.rng_seed = seed_++;
    mbox_ = std::make_unique<SplitTlsMiddlebox>(std::move(mopts));

    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = upstream_identity.key;
    scfg.certificate_chain = upstream_identity.chain;
    scfg.rng_label = "atk-split-server";
    scfg.rng_seed = seed_++;
    server_ = std::make_unique<tls::Engine>(std::move(scfg));
  }

  void start() override { client_->start(); }
  bool healthy() const override {
    return client_->handshake_done() && server_->handshake_done() && !mbox_->failed();
  }
  void client_send(ByteView d) override { client_->send(d); }
  Bytes server_received() override { return server_->take_plaintext(); }
  void server_send(ByteView d) override { server_->send(d); }
  Bytes client_received() override { return client_->take_plaintext(); }
  Bytes bridge_key() const override {
    // The client-side session's key (held by the interception proxy).
    return client_->connection_keys().keys.client_write.key;
  }

 protected:
  Bytes client_out() override { return client_->take_output(); }
  void client_in(ByteView d) override { client_->feed(d); }
  void mbox_from_client(ByteView d) override { mbox_->feed_from_client(d); }
  Bytes mbox_to_server() override { return mbox_->take_to_server(); }
  void mbox_from_server(ByteView d) override { mbox_->feed_from_server(d); }
  Bytes mbox_to_client() override { return mbox_->take_to_client(); }
  Bytes server_out() override { return server_->take_output(); }
  void server_in(ByteView d) override { server_->feed(d); }

 private:
  static inline std::uint64_t seed_ = 2000;
  std::unique_ptr<tls::Engine> client_;
  std::unique_ptr<SplitTlsMiddlebox> mbox_;
  std::unique_ptr<tls::Engine> server_;
};

// ------------------------------------------------------------------- naive

class NaiveScenario : public Scenario {
 public:
  explicit NaiveScenario(Middlebox::Processor processor = {}) {
    NaiveKeyShareClient::Options copts;
    copts.tls.is_client = true;
    copts.tls.trust_anchors = {web_ca().root()};
    copts.tls.server_name = "origin.example";
    copts.tls.rng_label = "atk-naive-client";
    copts.tls.rng_seed = seed_++;
    copts.control_tls.is_client = true;
    copts.control_tls.trust_anchors = {web_ca().root()};
    copts.control_tls.server_name = "proxy.example";
    copts.control_tls.rng_label = "atk-naive-control";
    copts.control_tls.rng_seed = seed_++;
    client_ = std::make_unique<NaiveKeyShareClient>(std::move(copts));

    NaiveKeyShareMiddlebox::Options mopts;
    mopts.private_key = mbox_identity().key;
    mopts.certificate_chain = mbox_identity().chain;
    mopts.untrusted_store = &platform.untrusted_memory();
    mopts.processor = std::move(processor);
    mbox_ = std::make_unique<NaiveKeyShareMiddlebox>(std::move(mopts));

    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = server_identity().key;
    scfg.certificate_chain = server_identity().chain;
    scfg.rng_label = "atk-naive-server";
    scfg.rng_seed = seed_++;
    server_ = std::make_unique<tls::Engine>(std::move(scfg));
  }

  void start() override { client_->start(); }
  bool healthy() const override {
    return client_->primary().handshake_done() && server_->handshake_done();
  }
  void client_send(ByteView d) override { client_->primary().send(d); }
  Bytes server_received() override { return server_->take_plaintext(); }
  void server_send(ByteView d) override { server_->send(d); }
  Bytes client_received() override { return client_->primary().take_plaintext(); }
  Bytes bridge_key() const override {
    return const_cast<NaiveKeyShareClient&>(*client_)
        .primary()
        .connection_keys()
        .keys.client_write.key;
  }
  bool keys_delivered() const { return mbox_->has_keys(); }

 protected:
  Bytes client_out() override { return client_->take_output(); }
  void client_in(ByteView d) override { client_->feed(d); }
  void mbox_from_client(ByteView d) override { mbox_->feed_from_client(d); }
  Bytes mbox_to_server() override { return mbox_->take_to_server(); }
  void mbox_from_server(ByteView d) override { mbox_->feed_from_server(d); }
  Bytes mbox_to_client() override { return mbox_->take_to_client(); }
  Bytes server_out() override { return server_->take_output(); }
  void server_in(ByteView d) override { server_->feed(d); }

  bool extra_step() override {
    // Control channel between client and middlebox (separate TLS session).
    bool moved = false;
    Bytes a = client_->take_control_output();
    if (!a.empty()) {
      moved = true;
      mbox_->feed_control(a);
    }
    Bytes b = mbox_->take_control_output();
    if (!b.empty()) {
      moved = true;
      client_->feed_control(b);
    }
    return moved;
  }

 private:
  static inline std::uint64_t seed_ = 3000;
  std::unique_ptr<NaiveKeyShareClient> client_;
  std::unique_ptr<NaiveKeyShareMiddlebox> mbox_;
  std::unique_ptr<tls::Engine> server_;
};

std::unique_ptr<Scenario> make_scenario(Protocol protocol, Middlebox::Processor processor = {}) {
  switch (protocol) {
    case Protocol::kNaiveKeyShare: return std::make_unique<NaiveScenario>(std::move(processor));
    case Protocol::kSplitTls: return std::make_unique<SplitScenario>(std::move(processor));
    case Protocol::kMbtlsNoSgx:
      return std::make_unique<MbtlsScenario>(false, std::move(processor));
    case Protocol::kMbtls: return std::make_unique<MbtlsScenario>(true, std::move(processor));
  }
  return nullptr;
}

bool contains(ByteView haystack, ByteView needle) {
  if (needle.empty() || haystack.size() < needle.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (std::equal(needle.begin(), needle.end(), haystack.begin() + static_cast<std::ptrdiff_t>(i)))
      return true;
  }
  return false;
}

/// Split a capture buffer into raw records.
std::vector<Bytes> records_of(const Bytes& capture) {
  std::vector<Bytes> out;
  tls::RecordReader reader;
  reader.feed(capture);
  try {
    while (auto raw = reader.take_raw()) out.push_back(std::move(*raw));
  } catch (const tls::ProtocolError&) {
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- attacks

bool wire_eavesdrop(Protocol protocol) {
  auto scenario = make_scenario(protocol);
  Bytes captured;
  scenario->tap_c2s_seg1 = scenario->tap_c2s_seg2 = [&](Bytes d) {
    append(captured, d);
    return d;
  };
  scenario->start();
  scenario->pump();
  if (!scenario->healthy()) return false;
  const auto secret = to_bytes(std::string_view("TOP-SECRET-PAYLOAD-7392"));
  scenario->client_send(secret);
  scenario->pump();
  if (!contains(scenario->server_received(), secret)) return false;  // delivery sanity
  return contains(captured, secret);
}

bool mip_reads_keys_from_memory(Protocol protocol) {
  auto scenario = make_scenario(protocol);
  scenario->start();
  scenario->pump();
  if (!scenario->healthy()) return false;
  scenario->client_send(to_bytes(std::string_view("warm up the data path")));
  scenario->pump();
  Bytes key = scenario->bridge_key();
  const bool found = !scenario->platform.adversary_find_secret(key).empty();
  secure_wipe(key);
  return found;
}

bool record_compare(Protocol protocol) {
  auto scenario = make_scenario(protocol);  // identity processor: no changes
  scenario->start();
  scenario->pump();
  if (!scenario->healthy()) return false;

  Bytes seg1, seg2;
  scenario->tap_c2s_seg1 = [&](Bytes d) {
    append(seg1, d);
    return d;
  };
  scenario->tap_c2s_seg2 = [&](Bytes d) {
    append(seg2, d);
    return d;
  };
  scenario->client_send(to_bytes(std::string_view("unmodified payload")));
  scenario->pump();
  if (scenario->server_received().empty()) return false;

  // The adversary wins if a record leaving the middlebox is bit-identical to
  // one entering it — it then knows the middlebox did not modify the data.
  for (const auto& in_rec : records_of(seg1)) {
    if (in_rec[0] != static_cast<std::uint8_t>(tls::ContentType::kApplicationData)) continue;
    for (const auto& out_rec : records_of(seg2)) {
      if (in_rec == out_rec) return true;
    }
  }
  return false;
}

bool decrypt_recording_with_leaked_key(Protocol protocol) {
  // Record everything on segment 2 (beyond the middlebox).
  auto scenario = make_scenario(protocol);
  Bytes recording;
  scenario->tap_c2s_seg2 = [&](Bytes d) {
    append(recording, d);
    return d;
  };
  scenario->start();
  scenario->pump();
  if (!scenario->healthy()) return false;
  const auto secret = to_bytes(std::string_view("FORWARD-SECRET-DATA-1187"));
  scenario->client_send(secret);
  scenario->pump();
  if (!contains(scenario->server_received(), secret)) return false;

  // "Later": the server's long-term private key leaks. The strongest
  // derivations available to the adversary are hashes of the key itself and
  // of key||transcript — with ephemeral (EC)DHE none of them is the session
  // key. Try each as an AES key against every recorded data record.
  const auto& key = *server_identity().key;
  Bytes long_term;
  if (key.type() == x509::KeyType::kEcdsaP256) {
    long_term = key.ec().private_key.to_bytes();
  } else {
    long_term = key.rsa().d.to_bytes();
  }
  std::vector<Bytes> candidates;
  candidates.push_back(crypto::Sha256::digest(long_term));
  candidates.push_back(crypto::hkdf(crypto::HashAlgo::kSha256, {}, long_term,
                                    to_bytes(std::string_view("key expansion")), 32));
  Bytes keyed_transcript = long_term;
  append(keyed_transcript, recording);
  candidates.push_back(crypto::Sha256::digest(keyed_transcript));

  for (const auto& candidate : candidates) {
    for (const auto& rec : records_of(recording)) {
      if (rec[0] != static_cast<std::uint8_t>(tls::ContentType::kApplicationData)) continue;
      // Try every (iv-guess, seq-guess) the format permits.
      for (std::uint64_t seq = 0; seq < 4; ++seq) {
        tls::HopChannel channel({candidate, Bytes(4, 0)}, seq);
        Bytes opened;
        if (channel.open_into(tls::ContentType::kApplicationData,
                              ByteView(rec).subspan(tls::kRecordHeaderSize), opened) &&
            contains(opened, secret))
          return true;
      }
    }
  }
  return false;
}

bool modify_on_wire(Protocol protocol) {
  auto scenario = make_scenario(protocol);
  scenario->start();
  scenario->pump();
  if (!scenario->healthy()) return false;

  scenario->tap_c2s_seg2 = [&](Bytes d) {
    auto recs = records_of(d);
    Bytes out;
    for (auto& rec : recs) {
      if (rec[0] == static_cast<std::uint8_t>(tls::ContentType::kApplicationData)) {
        rec[rec.size() - 1] ^= 0x01;  // flip a ciphertext byte
      }
      append(out, rec);
    }
    return out.empty() ? d : out;
  };
  const auto payload = to_bytes(std::string_view("pay alice $10"));
  scenario->client_send(payload);
  scenario->pump();
  const Bytes received = scenario->server_received();
  // Attack succeeds only if the server accepted data that differs from what
  // was sent (silent corruption). Rejection / connection failure = defended.
  return !received.empty() && !equal(received, payload);
}

bool replay_on_wire(Protocol protocol) {
  auto scenario = make_scenario(protocol);
  scenario->start();
  scenario->pump();
  if (!scenario->healthy()) return false;

  Bytes captured_record;
  scenario->tap_c2s_seg2 = [&](Bytes d) {
    if (captured_record.empty()) {
      for (const auto& rec : records_of(d)) {
        if (rec[0] == static_cast<std::uint8_t>(tls::ContentType::kApplicationData)) {
          captured_record = rec;
          break;
        }
      }
    }
    return d;
  };
  const auto payload = to_bytes(std::string_view("debit $100 once"));
  scenario->client_send(payload);
  scenario->pump();
  const Bytes first = scenario->server_received();
  if (!equal(first, payload) || captured_record.empty()) return false;

  // Replay the captured record straight into the server.
  scenario->tap_c2s_seg2 = {};
  struct Injector : Scenario {};  // (no-op; we reuse the existing scenario)
  // Feed via the normal path: pretend the record arrives again from the mbox.
  // We bypass taps deliberately — the attacker injects at the server's door.
  scenario->tap_c2s_seg2 = nullptr;
  // Direct injection:
  // (Scenario exposes server_in via pump only; emulate by a one-shot tap on
  // an empty send.)
  bool injected = false;
  scenario->tap_c2s_seg2 = [&](Bytes d) {
    if (!injected) {
      injected = true;
      Bytes out = captured_record;
      append(out, d);
      return out;
    }
    return d;
  };
  scenario->client_send(to_bytes(std::string_view("x")));
  scenario->pump();
  const Bytes second = scenario->server_received();
  // Attack succeeds if the replayed payload was accepted a second time.
  return contains(second, payload);
}

bool skip_middlebox(Protocol protocol) {
  // The middlebox is a mandatory filter: it tags everything it forwards.
  auto filter = [](bool c2s, ByteView data) {
    Bytes out = to_bytes(data);
    if (c2s) append(out, to_bytes(std::string_view(" [FILTERED]")));
    return out;
  };
  auto scenario = make_scenario(protocol, filter);
  scenario->start();
  scenario->pump();
  if (!scenario->healthy()) return false;

  // Adversary: capture the client's record before the middlebox, suppress
  // it, and deliver the original bytes directly to the server.
  Bytes stolen;
  scenario->tap_c2s_seg1 = [&](Bytes d) {
    auto recs = records_of(d);
    Bytes pass;
    for (auto& rec : recs) {
      if (stolen.empty() &&
          rec[0] == static_cast<std::uint8_t>(tls::ContentType::kApplicationData)) {
        stolen = rec;  // suppressed from the middlebox path
        continue;
      }
      append(pass, rec);
    }
    return recs.empty() ? d : pass;
  };
  bool injected = false;
  scenario->tap_c2s_seg2 = [&](Bytes d) {
    if (!stolen.empty() && !injected) {
      injected = true;
      Bytes out = stolen;
      append(out, d);
      return out;
    }
    return d;
  };
  const auto payload = to_bytes(std::string_view("malware sample"));
  scenario->client_send(payload);
  scenario->pump();
  // The injection tap only fires when bytes cross segment 2, so give it a
  // carrier record (the suppressed record left that segment silent).
  scenario->client_send(to_bytes(std::string_view("carrier")));
  scenario->pump();
  const Bytes received = scenario->server_received();
  // Attack succeeds if the server accepted the payload WITHOUT the filter
  // tag — i.e., the record truly skipped the middlebox.
  return contains(received, payload) &&
         !contains(received, to_bytes(std::string_view("[FILTERED]")));
}

bool run_wrong_middlebox_code(Protocol protocol) {
  if (protocol == Protocol::kMbtls) {
    // The MIP swaps the MSP's proxy for its own build; the client expected
    // the genuine measurement.
    MbtlsScenario scenario(true, {}, "header-proxy-v1.2", "header-proxy-EVIL");
    scenario.start();
    scenario.pump();
    // Attack succeeds if the session established anyway.
    return scenario.healthy();
  }
  // Without attestation nothing binds the code identity: the swapped
  // middlebox joins and reads data.
  auto scenario = make_scenario(protocol);
  scenario->start();
  scenario->pump();
  return scenario->healthy();
}

bool replay_attestation() {
  // Session 1: a legitimate attested server; capture the SGXAttestation
  // handshake message off the wire.
  sgx::Platform platform;
  sgx::Enclave& enclave = platform.launch("attested-server-v1");
  Bytes captured_attestation_msg;
  {
    tls::Config ccfg;
    ccfg.is_client = true;
    ccfg.trust_anchors = {web_ca().root()};
    ccfg.server_name = "origin.example";
    ccfg.request_attestation = true;
    ccfg.expected_measurement = sgx::measure("attested-server-v1");
    ccfg.rng_label = "replay-c1";
    tls::Engine client(ccfg);
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = server_identity().key;
    scfg.certificate_chain = server_identity().chain;
    scfg.enclave = &enclave;
    scfg.rng_label = "replay-s1";
    tls::Engine server(scfg);
    client.start();
    for (int i = 0; i < 10; ++i) {
      Bytes a = client.take_output();
      Bytes b = server.take_output();
      if (a.empty() && b.empty()) break;
      if (!b.empty()) {
        // Sniff the server flight for the attestation message.
        tls::RecordReader reader;
        reader.feed(b);
        while (auto rec = reader.next()) {
          if (rec->type == tls::ContentType::kHandshake && !rec->payload.empty() &&
              rec->payload[0] == static_cast<std::uint8_t>(tls::HandshakeType::kSgxAttestation)) {
            captured_attestation_msg = rec->payload;
          }
        }
        client.feed(b);
      }
      if (!a.empty()) server.feed(a);
    }
    if (captured_attestation_msg.empty() || !client.handshake_done()) return false;
  }

  // Session 2: a NON-attested server; a MITM splices the stale quote into
  // the flight right before ServerHelloDone.
  tls::Config ccfg;
  ccfg.is_client = true;
  ccfg.trust_anchors = {web_ca().root()};
  ccfg.server_name = "origin.example";
  ccfg.request_attestation = true;
  ccfg.expected_measurement = sgx::measure("attested-server-v1");
  ccfg.rng_label = "replay-c2";
  tls::Engine client(ccfg);
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = server_identity().key;
  scfg.certificate_chain = server_identity().chain;
  scfg.rng_label = "replay-s2";
  tls::Engine server(scfg);
  client.start();
  for (int i = 0; i < 10; ++i) {
    Bytes a = client.take_output();
    Bytes b = server.take_output();
    if (a.empty() && b.empty()) break;
    if (!b.empty()) {
      // MITM: insert the captured attestation record before ServerHelloDone.
      tls::RecordReader reader;
      reader.feed(b);
      Bytes rewritten;
      while (auto raw = reader.take_raw()) {
        const bool is_shd =
            (*raw)[0] == static_cast<std::uint8_t>(tls::ContentType::kHandshake) &&
            raw->size() > tls::kRecordHeaderSize &&
            (*raw)[tls::kRecordHeaderSize] ==
                static_cast<std::uint8_t>(tls::HandshakeType::kServerHelloDone);
        if (is_shd) {
          append(rewritten, tls::frame_plaintext_record(tls::ContentType::kHandshake,
                                                        captured_attestation_msg));
        }
        append(rewritten, *raw);
      }
      client.feed(rewritten);
    }
    if (!a.empty()) server.feed(a);
  }
  // Attack succeeds if the client accepted the stale quote.
  return client.handshake_done() && client.peer_attested();
}

bool impersonate_server(Protocol protocol) {
  // An impostor with a certificate for the right name from an unaccepted CA.
  static crypto::Drbg impostor_rng("impostor", 0);
  static const auto impostor_ca =
      x509::CertificateAuthority::create("Impostor CA", x509::KeyType::kEcdsaP256, impostor_rng);
  Identity impostor;
  impostor.key = std::make_shared<x509::PrivateKey>(
      x509::PrivateKey::generate(x509::KeyType::kEcdsaP256, impostor_rng));
  x509::CertRequest req;
  req.subject_cn = "origin.example";
  req.san_dns = {"origin.example"};
  req.not_after = 2524607999;
  req.key = impostor.key->public_key();
  impostor.chain = {impostor_ca.issue(req, impostor_rng)};

  const auto secret = to_bytes(std::string_view("CREDENTIALS hunter2"));

  if (protocol == Protocol::kSplitTls) {
    // The widely-observed misconfiguration: the proxy skips upstream
    // verification, so the client has no way to notice the impostor.
    SplitScenario scenario({}, /*verify_upstream=*/false, impostor);
    scenario.start();
    scenario.pump();
    if (!scenario.healthy()) return false;
    scenario.client_send(secret);
    scenario.pump();
    return contains(scenario.server_received(), secret);
  }

  // For the other protocols, point the client at the impostor directly.
  tls::Config ccfg;
  ccfg.is_client = true;
  ccfg.trust_anchors = {web_ca().root()};
  ccfg.server_name = "origin.example";
  ccfg.rng_label = "impostor-client";
  tls::Engine client(ccfg);
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = impostor.key;
  scfg.certificate_chain = impostor.chain;
  scfg.rng_label = "impostor-server";
  tls::Engine server(scfg);
  client.start();
  for (int i = 0; i < 10; ++i) {
    Bytes a = client.take_output();
    Bytes b = server.take_output();
    if (a.empty() && b.empty()) break;
    if (!a.empty()) server.feed(a);
    if (!b.empty()) client.feed(b);
  }
  return client.handshake_done();
}

bool cache_poisoning() {
  // §4.2: the (malicious) client holds every key on its side of the
  // session, including the bridge keys — so it can forge a "server response"
  // on the cache-to-server hop and poison the shared cache.
  mbox::WebCache cache;
  MbtlsScenario scenario(false, cache.processor());
  scenario.start();
  scenario.pump();
  if (!scenario.healthy()) return false;

  http::Request req;
  req.target = "/popular-page";
  scenario.client_send(req.serialize());
  scenario.pump();
  (void)scenario.server_received();

  // The attacker (the client itself) forges a response sealed with the
  // bridge's server-write keys and injects it on the mbox-server segment
  // while dropping the real response.
  const auto keys = scenario.client().primary().connection_keys();
  tls::HopChannel forge(keys.keys.server_write, keys.server_seq);
  http::Response evil;
  evil.status = 200;
  evil.body = to_bytes(std::string_view("EVIL-CONTENT"));
  const Bytes forged = forge.seal(tls::ContentType::kApplicationData, evil.serialize());

  bool dropped = false;
  scenario.tap_s2c_seg2 = [&](Bytes d) {
    // Drop the genuine response records; deliver the forged one instead.
    if (!dropped) {
      dropped = true;
      return forged;
    }
    return d;
  };
  http::Response real;
  real.status = 200;
  real.body = to_bytes(std::string_view("genuine content"));
  scenario.server_send(real.serialize());
  scenario.pump();

  const auto cached = cache.lookup("/popular-page");
  return cached && equal(*cached, to_bytes(std::string_view("EVIL-CONTENT")));
}

std::vector<AttackResult> run_all() {
  std::vector<AttackResult> results;
  const Protocol all[] = {Protocol::kNaiveKeyShare, Protocol::kSplitTls, Protocol::kMbtlsNoSgx,
                          Protocol::kMbtls};
  auto add = [&](const std::string& threat, const std::string& property, Protocol p,
                 bool succeeded, const std::string& detail = "") {
    results.push_back({threat, property, p, succeeded, detail});
  };
  for (const auto p : all) {
    add("data read on-the-wire by third party", "P1A", p, wire_eavesdrop(p));
    add("session keys read from middlebox RAM by MIP", "P1A", p, mip_reads_keys_from_memory(p));
    add("record entering/leaving middlebox compared", "P1C", p, record_compare(p));
    add("recorded traffic decrypted after long-term key leak", "P1B", p,
        decrypt_recording_with_leaked_key(p));
    add("record modified on-the-wire", "P2", p, modify_on_wire(p));
    add("record replayed on-the-wire", "P2", p, replay_on_wire(p));
    add("record made to skip the middlebox", "P4", p, skip_middlebox(p));
    add("MIP substitutes middlebox software", "P3B", p, run_wrong_middlebox_code(p));
    add("server impersonated toward the client", "P3A", p, impersonate_server(p));
  }
  add("stale attestation quote replayed", "P3B", Protocol::kMbtls, replay_attestation());
  add("shared cache poisoned by malicious client (known limitation, §4.2)", "-",
      Protocol::kMbtls, cache_poisoning());
  return results;
}

}  // namespace mbtls::attacks
