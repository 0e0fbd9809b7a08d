// TLS 1.2 engine: handshakes across all cipher suites, data transfer,
// certificate validation failures, alerts, resumption, and attestation.
#include <gtest/gtest.h>

#include "mbtls/cache.h"
#include "tests/tls_test_util.h"
#include "tls/messages.h"
#include "tls/record.h"
#include "util/hex.h"
#include "x509/keys.h"

namespace mbtls::tls {
namespace {

using testing::make_identity;
using testing::pump;
using testing::test_ca;

Config client_config(const std::string& server_name, std::uint64_t seed = 1) {
  Config cfg;
  cfg.is_client = true;
  cfg.trust_anchors = {test_ca().root()};
  cfg.server_name = server_name;
  cfg.rng_label = "client";
  cfg.rng_seed = seed;
  return cfg;
}

Config server_config(const testing::ServerIdentity& id, std::uint64_t seed = 2) {
  Config cfg;
  cfg.is_client = false;
  cfg.private_key = id.key;
  cfg.certificate_chain = id.chain;
  cfg.rng_label = "server";
  cfg.rng_seed = seed;
  return cfg;
}

TEST(TlsHandshake, BasicEcdheEcdsa) {
  const auto id = make_identity("www.example.com");
  Engine client(client_config("www.example.com"));
  Engine server(server_config(id));
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done()) << client.error_message();
  ASSERT_TRUE(server.handshake_done()) << server.error_message();
  EXPECT_EQ(client.suite().id, CipherSuite::kEcdheEcdsaAes256GcmSha384);
  EXPECT_EQ(client.master_secret(), server.master_secret());
  EXPECT_FALSE(client.resumed());
}

/// The ECDSA r of the ServerKeyExchange a server on `scfg` answers a
/// ClientHello from a client seeded `client_seed` with.
Bytes server_signature_r(const Config& scfg, std::uint64_t client_seed) {
  Engine client(client_config("www.example.com", client_seed));
  Engine server(scfg);
  client.start();
  server.feed(client.take_output());
  RecordReader records;
  records.feed(server.take_output());
  HandshakeReassembler messages;
  while (auto rec = records.next()) {
    if (rec->type == ContentType::kHandshake) messages.feed(rec->payload);
  }
  while (auto msg = messages.next()) {
    if (msg->type != HandshakeType::kServerKeyExchange) continue;
    const auto ske = ServerKeyExchange::parse(msg->body, KeyExchange::kEcdhe);
    const auto raw = x509::ecdsa_sig_from_der(ske.signature);
    if (!raw) return {};
    return Bytes(raw->begin(), raw->begin() + 32);
  }
  return {};
}

TEST(TlsHandshake, DefaultConfigServersNeverRepeatAnEcdsaNonce) {
  // Two servers on the default rng_label/rng_seed draw identical DRBG
  // streams. The nonce is hedged RFC 6979 (key, message hash, DRBG draw), so
  // different client randoms, hence different signed messages, must still
  // give different nonces and so different r.
  const auto id = make_identity("www.example.com");
  Config scfg;
  scfg.is_client = false;
  scfg.private_key = id.key;
  scfg.certificate_chain = id.chain;
  const Bytes r1 = server_signature_r(scfg, 1);
  const Bytes r2 = server_signature_r(scfg, 2);
  ASSERT_EQ(r1.size(), 32u);
  ASSERT_EQ(r2.size(), 32u);
  EXPECT_NE(hex_encode(r1), hex_encode(r2));
}

class TlsSuiteSweep : public ::testing::TestWithParam<CipherSuite> {};

TEST_P(TlsSuiteSweep, HandshakeAndEcho) {
  const CipherSuite suite = GetParam();
  const auto info = suite_info(suite);
  const auto id = make_identity(
      "suite.example", info->auth == AuthAlgo::kRsa ? x509::KeyType::kRsa
                                                    : x509::KeyType::kEcdsaP256);
  Config ccfg = client_config("suite.example");
  ccfg.cipher_suites = {suite};
  Config scfg = server_config(id);
  scfg.cipher_suites = {suite};
  Engine client(ccfg);
  Engine server(scfg);
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done()) << client.error_message();
  ASSERT_TRUE(server.handshake_done()) << server.error_message();
  EXPECT_EQ(client.suite().id, suite);

  client.send(to_bytes(std::string_view("hello over TLS")));
  pump(client, server);
  EXPECT_EQ(mbtls::to_string(server.take_plaintext()), "hello over TLS");
  server.send(to_bytes(std::string_view("echo")));
  pump(client, server);
  EXPECT_EQ(mbtls::to_string(client.take_plaintext()), "echo");
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, TlsSuiteSweep,
    ::testing::Values(CipherSuite::kEcdheEcdsaAes256GcmSha384,
                      CipherSuite::kEcdheEcdsaAes128GcmSha256,
                      CipherSuite::kEcdheRsaAes256GcmSha384,
                      CipherSuite::kEcdheRsaAes128GcmSha256,
                      CipherSuite::kDheRsaAes256GcmSha384,
                      CipherSuite::kDheRsaAes128GcmSha256),
    [](const auto& info) {
      std::string name = suite_name(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(TlsHandshake, LargeDataTransfer) {
  const auto id = make_identity("bulk.example");
  Engine client(client_config("bulk.example"));
  Engine server(server_config(id));
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done());
  crypto::Drbg rng("bulk", 0);
  const Bytes blob = rng.bytes(100'000);
  client.send(blob);
  pump(client, server);
  EXPECT_EQ(server.take_plaintext(), blob);
}

TEST(TlsHandshake, ServerPreferenceSelectsSuite) {
  const auto id = make_identity("pref.example");
  Config ccfg = client_config("pref.example");
  ccfg.cipher_suites = {CipherSuite::kEcdheEcdsaAes128GcmSha256,
                        CipherSuite::kEcdheEcdsaAes256GcmSha384};
  Config scfg = server_config(id);
  scfg.cipher_suites = {CipherSuite::kEcdheEcdsaAes256GcmSha384,
                        CipherSuite::kEcdheEcdsaAes128GcmSha256};
  Engine client(ccfg);
  Engine server(scfg);
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done());
  EXPECT_EQ(client.suite().id, CipherSuite::kEcdheEcdsaAes256GcmSha384);
}

TEST(TlsHandshake, NoCommonSuiteFails) {
  const auto id = make_identity("fail.example");
  Config ccfg = client_config("fail.example");
  ccfg.cipher_suites = {CipherSuite::kEcdheEcdsaAes256GcmSha384};
  Config scfg = server_config(id);
  scfg.cipher_suites = {CipherSuite::kDheRsaAes256GcmSha384};
  Engine client(ccfg);
  Engine server(scfg);
  client.start();
  pump(client, server);
  EXPECT_TRUE(server.failed());
  EXPECT_EQ(server.last_alert(), AlertDescription::kHandshakeFailure);
  EXPECT_TRUE(client.failed());  // receives the fatal alert
}

TEST(TlsHandshake, UntrustedCaRejected) {
  crypto::Drbg other_rng("rogue-ca", 0);
  const auto rogue_ca =
      x509::CertificateAuthority::create("Rogue CA", x509::KeyType::kEcdsaP256, other_rng);
  testing::ServerIdentity id;
  id.key = std::make_shared<x509::PrivateKey>(
      x509::PrivateKey::generate(x509::KeyType::kEcdsaP256, other_rng));
  x509::CertRequest req;
  req.subject_cn = "victim.example";
  req.san_dns = {"victim.example"};
  req.not_after = 2524607999;
  req.key = id.key->public_key();
  id.chain = {rogue_ca.issue(req, other_rng)};

  Engine client(client_config("victim.example"));
  Engine server(server_config(id));
  client.start();
  pump(client, server);
  EXPECT_TRUE(client.failed());
  EXPECT_EQ(client.last_alert(), AlertDescription::kUnknownCa);
}

TEST(TlsHandshake, HostnameMismatchRejected) {
  const auto id = make_identity("real.example");
  Engine client(client_config("other.example"));
  Engine server(server_config(id));
  client.start();
  pump(client, server);
  EXPECT_TRUE(client.failed());
  EXPECT_EQ(client.last_alert(), AlertDescription::kBadCertificate);
}

TEST(TlsHandshake, ExpiredCertificateRejected) {
  testing::ServerIdentity id;
  id.key = std::make_shared<x509::PrivateKey>(
      x509::PrivateKey::generate(x509::KeyType::kEcdsaP256, testing::shared_rng()));
  x509::CertRequest req;
  req.subject_cn = "old.example";
  req.san_dns = {"old.example"};
  req.not_before = 0;
  req.not_after = 1000;  // expired long ago
  req.key = id.key->public_key();
  id.chain = {test_ca().issue(req, testing::shared_rng())};

  Engine client(client_config("old.example"));
  Engine server(server_config(id));
  client.start();
  pump(client, server);
  EXPECT_TRUE(client.failed());
  EXPECT_EQ(client.last_alert(), AlertDescription::kCertificateExpired);
}

TEST(TlsHandshake, DisabledVerificationAccepts) {
  // The "split TLS" baseline and the legacy-interop harness rely on being
  // able to opt out of verification.
  crypto::Drbg rng("selfsigned", 0);
  const auto self_ca =
      x509::CertificateAuthority::create("untrusted.example", x509::KeyType::kEcdsaP256, rng);
  testing::ServerIdentity id;
  id.key = std::make_shared<x509::PrivateKey>(self_ca.key());
  id.chain = {self_ca.root()};

  Config ccfg = client_config("untrusted.example");
  ccfg.verify_peer_certificate = false;
  Engine client(ccfg);
  Engine server(server_config(id));
  client.start();
  pump(client, server);
  EXPECT_TRUE(client.handshake_done()) << client.error_message();
}

TEST(TlsRecord, TamperedRecordTriggersBadMac) {
  const auto id = make_identity("tamper.example");
  Engine client(client_config("tamper.example"));
  Engine server(server_config(id));
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done());

  client.send(to_bytes(std::string_view("sensitive")));
  Bytes wire = client.take_output();
  wire[wire.size() - 1] ^= 0x01;  // flip a ciphertext byte
  server.feed(wire);
  EXPECT_TRUE(server.failed());
  EXPECT_EQ(server.last_alert(), AlertDescription::kBadRecordMac);
}

TEST(TlsRecord, ReplayedRecordRejected) {
  const auto id = make_identity("replay.example");
  Engine client(client_config("replay.example"));
  Engine server(server_config(id));
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done());

  client.send(to_bytes(std::string_view("pay $100")));
  const Bytes wire = client.take_output();
  server.feed(wire);
  EXPECT_EQ(mbtls::to_string(server.take_plaintext()), "pay $100");
  server.feed(wire);  // replay: sequence number mismatch -> MAC failure
  EXPECT_TRUE(server.failed());
  EXPECT_EQ(server.last_alert(), AlertDescription::kBadRecordMac);
}

TEST(TlsRecord, ReorderedRecordsRejected) {
  const auto id = make_identity("reorder.example");
  Engine client(client_config("reorder.example"));
  Engine server(server_config(id));
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done());

  client.send(to_bytes(std::string_view("first")));
  const Bytes rec1 = client.take_output();
  client.send(to_bytes(std::string_view("second")));
  const Bytes rec2 = client.take_output();
  server.feed(rec2);  // out of order
  EXPECT_TRUE(server.failed());
}

TEST(TlsHandshake, CloseNotify) {
  const auto id = make_identity("close.example");
  Engine client(client_config("close.example"));
  Engine server(server_config(id));
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done());
  client.close();
  pump(client, server);
  EXPECT_EQ(server.state(), EngineState::kClosed);
  EXPECT_EQ(client.state(), EngineState::kClosed);
}

TEST(TlsHandshake, UnknownRecordTypeBehaviour) {
  const auto id = make_identity("legacy.example");
  // Strict legacy server aborts.
  {
    Engine server(server_config(id));
    const Bytes bogus = frame_plaintext_record(static_cast<ContentType>(32), Bytes{});
    server.feed(bogus);
    EXPECT_TRUE(server.failed());
  }
  // Tolerant legacy server ignores and completes the handshake.
  {
    Config scfg = server_config(id);
    scfg.ignore_unknown_record_types = true;
    Engine server(scfg);
    Engine client(client_config("legacy.example"));
    const Bytes bogus = frame_plaintext_record(static_cast<ContentType>(32), Bytes{});
    server.feed(bogus);
    EXPECT_FALSE(server.failed());
    client.start();
    pump(client, server);
    EXPECT_TRUE(client.handshake_done());
  }
}

TEST(TlsResumption, AbbreviatedHandshake) {
  const auto id = make_identity("resume.example");
  mb::ShardedSessionCache client_cache, server_cache;

  Config ccfg = client_config("resume.example");
  ccfg.session_cache = &client_cache;
  ccfg.offer_resumption = true;
  Config scfg = server_config(id);
  scfg.session_cache = &server_cache;

  // Full handshake populates both caches.
  {
    Engine client(ccfg);
    Engine server(scfg);
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done());
    ASSERT_FALSE(client.resumed());
  }
  // Second connection resumes.
  {
    ccfg.rng_seed = 11;
    scfg.rng_seed = 12;
    Engine client(ccfg);
    Engine server(scfg);
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done()) << client.error_message();
    ASSERT_TRUE(server.handshake_done()) << server.error_message();
    EXPECT_TRUE(client.resumed());
    EXPECT_TRUE(server.resumed());

    client.send(to_bytes(std::string_view("resumed data")));
    pump(client, server);
    EXPECT_EQ(mbtls::to_string(server.take_plaintext()), "resumed data");
  }
}

TEST(TlsResumption, UnknownIdFallsBackToFull) {
  const auto id = make_identity("fallback.example");
  mb::ShardedSessionCache client_cache, server_cache;  // server cache empty
  // Seed the client cache with a bogus session.
  SessionState bogus;
  bogus.session_id = Bytes(32, 7);
  bogus.suite = CipherSuite::kEcdheEcdsaAes256GcmSha384;
  bogus.master_secret = Bytes(48, 9);
  client_cache.store_by_peer("fallback.example", bogus);

  Config ccfg = client_config("fallback.example");
  ccfg.session_cache = &client_cache;
  ccfg.offer_resumption = true;
  Config scfg = server_config(id);
  scfg.session_cache = &server_cache;
  Engine client(ccfg);
  Engine server(scfg);
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done()) << client.error_message();
  EXPECT_FALSE(client.resumed());
}

TEST(TlsAttestation, ServerAttestsWhenRequested) {
  sgx::Platform platform;
  sgx::Enclave& enclave = platform.launch("tls-server-v1");
  const auto id = make_identity("enclave.example");

  Config ccfg = client_config("enclave.example");
  ccfg.request_attestation = true;
  ccfg.expected_measurement = sgx::measure("tls-server-v1");
  Config scfg = server_config(id);
  scfg.enclave = &enclave;

  Engine client(ccfg);
  Engine server(scfg);
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done()) << client.error_message();
  EXPECT_TRUE(client.peer_attested());
  EXPECT_EQ(client.peer_measurement(), sgx::measure("tls-server-v1"));
}

TEST(TlsAttestation, MissingAttestationFailsWhenRequired) {
  const auto id = make_identity("noattest.example");
  Config ccfg = client_config("noattest.example");
  ccfg.request_attestation = true;
  Engine client(ccfg);
  Engine server(server_config(id));  // no enclave configured
  client.start();
  pump(client, server);
  EXPECT_TRUE(client.failed());
  EXPECT_EQ(client.last_alert(), AlertDescription::kHandshakeFailure);
}

TEST(TlsAttestation, WrongMeasurementRejected) {
  sgx::Platform platform;
  sgx::Enclave& enclave = platform.launch("evil-code-v9");
  const auto id = make_identity("wrongcode.example");
  Config ccfg = client_config("wrongcode.example");
  ccfg.request_attestation = true;
  ccfg.expected_measurement = sgx::measure("tls-server-v1");
  Config scfg = server_config(id);
  scfg.enclave = &enclave;
  Engine client(ccfg);
  Engine server(scfg);
  client.start();
  pump(client, server);
  EXPECT_TRUE(client.failed());
  EXPECT_EQ(client.last_alert(), AlertDescription::kBadCertificate);
}

TEST(TlsAttestation, SecretsLandInConfiguredStore) {
  sgx::Platform platform;
  sgx::Enclave& enclave = platform.launch("store-test");
  const auto id = make_identity("secrets.example");
  Config scfg = server_config(id);
  scfg.secret_store = &enclave.memory();
  scfg.secret_prefix = "tls/";
  Engine client(client_config("secrets.example"));
  Engine server(scfg);
  client.start();
  pump(client, server);
  ASSERT_TRUE(server.handshake_done());
  // Master secret was registered inside the enclave; adversary cannot see it.
  ASSERT_TRUE(enclave.memory().get("tls/master_secret").has_value());
  EXPECT_TRUE(platform.adversary_find_secret(server.master_secret()).empty());
}

TEST(TlsHandshake, GarbageInputFailsCleanly) {
  const auto id = make_identity("garbage.example");
  Engine server(server_config(id));
  crypto::Drbg rng("garbage", 0);
  Bytes junk = rng.bytes(100);
  junk[0] = 22;  // looks like a handshake record at first
  server.feed(junk);
  EXPECT_TRUE(server.failed() || !server.handshake_done());
}

TEST(TlsHandshake, TranscriptTamperBreaksFinished) {
  // A man-in-the-middle that alters a handshake message (without being able
  // to re-sign) must cause a Finished mismatch or signature failure.
  const auto id = make_identity("mitm.example");
  Engine client(client_config("mitm.example"));
  Engine server(server_config(id));
  client.start();
  Bytes hello = client.take_output();
  // Flip a byte in the client random (inside the ClientHello record).
  hello[12] ^= 0x01;
  server.feed(hello);
  const Bytes server_flight = server.take_output();
  client.feed(server_flight);
  pump(client, server);
  EXPECT_FALSE(client.handshake_done() && server.handshake_done());
}

}  // namespace
}  // namespace mbtls::tls
