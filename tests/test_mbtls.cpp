// mbTLS end-to-end integration: discovery, secondary handshakes, per-hop
// keys, data re-protection, middlebox processing, legacy interop, SGX
// protection, and approval policies.
#include <gtest/gtest.h>

#include "mbtls/cache.h"
#include "tests/mbtls_test_util.h"

namespace mbtls::mb {
namespace {

using namespace testing;

TEST(Mbtls, NoMiddleboxesBehavesLikeTls) {
  const auto id = make_identity("plain.example");
  ClientSession client(client_options("plain.example"));
  ServerSession server(server_options(id));
  Chain chain{.client = &client, .middleboxes = {}, .server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established()) << client.error_message();
  ASSERT_TRUE(server.established()) << server.error_message();
  EXPECT_EQ(client.middleboxes().size(), 0u);

  client.send(to_bytes(std::string_view("GET /")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_app_data()), "GET /");
  server.send(to_bytes(std::string_view("200 OK")));
  chain.pump();
  EXPECT_EQ(to_string(client.take_app_data()), "200 OK");
}

TEST(Mbtls, SingleClientSideMiddlebox) {
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));
  Middlebox mbox(middlebox_options("proxy.mboxes.example", Middlebox::Side::kClientSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();

  ASSERT_TRUE(client.established()) << client.error_message();
  ASSERT_TRUE(server.established()) << server.error_message();
  EXPECT_TRUE(mbox.joined());
  EXPECT_FALSE(mbox.relay_mode());
  ASSERT_EQ(client.middleboxes().size(), 1u);
  EXPECT_EQ(client.middleboxes()[0].certificate_cn, "proxy.mboxes.example");
  EXPECT_TRUE(client.middleboxes()[0].discovered);
  // The server never learns about client-side middleboxes.
  EXPECT_EQ(server.middleboxes().size(), 0u);

  client.send(to_bytes(std::string_view("request body")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_app_data()), "request body");
  server.send(to_bytes(std::string_view("response body")));
  chain.pump();
  EXPECT_EQ(to_string(client.take_app_data()), "response body");
  EXPECT_GE(mbox.records_reprotected(), 2u);
}

TEST(Mbtls, SingleServerSideMiddlebox) {
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));
  Middlebox mbox(middlebox_options("cdn.mboxes.example", Middlebox::Side::kServerSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();

  ASSERT_TRUE(client.established()) << client.error_message();
  ASSERT_TRUE(server.established()) << server.error_message();
  EXPECT_TRUE(mbox.joined());
  EXPECT_EQ(server.announcements_seen(), 1u);
  ASSERT_EQ(server.middleboxes().size(), 1u);
  EXPECT_EQ(server.middleboxes()[0].certificate_cn, "cdn.mboxes.example");
  // The client never learns about server-side middleboxes.
  EXPECT_EQ(client.middleboxes().size(), 0u);

  client.send(to_bytes(std::string_view("ping")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_app_data()), "ping");
  server.send(to_bytes(std::string_view("pong")));
  chain.pump();
  EXPECT_EQ(to_string(client.take_app_data()), "pong");
}

TEST(Mbtls, MultipleMiddlebloxesBothSides) {
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));
  Middlebox c1(middlebox_options("c1.example", Middlebox::Side::kClientSide));
  Middlebox c0(middlebox_options("c0.example", Middlebox::Side::kClientSide));
  Middlebox s0(middlebox_options("s0.example", Middlebox::Side::kServerSide));
  Middlebox s1(middlebox_options("s1.example", Middlebox::Side::kServerSide));
  // Path: client - c1 - c0 - s0 - s1 - server (paper Figure 4).
  Chain chain{.client = &client, .middleboxes = {&c1, &c0, &s0, &s1}, .server = &server};
  client.start();
  chain.pump();

  ASSERT_TRUE(client.established()) << client.error_message();
  ASSERT_TRUE(server.established()) << server.error_message();
  EXPECT_TRUE(c1.joined());
  EXPECT_TRUE(c0.joined());
  EXPECT_TRUE(s0.joined());
  EXPECT_TRUE(s1.joined());
  EXPECT_EQ(client.middleboxes().size(), 2u);
  EXPECT_EQ(server.middleboxes().size(), 2u);
  // Subchannel numbering: farther-from-endpoint first.
  EXPECT_EQ(c0.subchannel(), 1);  // closest to server on the client side
  EXPECT_EQ(c1.subchannel(), 2);
  EXPECT_EQ(s0.subchannel(), 1);  // closest to client on the server side
  EXPECT_EQ(s1.subchannel(), 2);

  client.send(to_bytes(std::string_view("end to end")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_app_data()), "end to end");
  server.send(to_bytes(std::string_view("and back")));
  chain.pump();
  EXPECT_EQ(to_string(client.take_app_data()), "and back");
}

TEST(Mbtls, MiddleboxProcessorModifiesData) {
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));
  auto opts = middlebox_options("rewriter.example", Middlebox::Side::kClientSide);
  opts.processor = [](bool c2s, ByteView data) {
    Bytes out = to_bytes(data);
    if (c2s) append(out, to_bytes(std::string_view(" [via proxy]")));
    return out;
  };
  Middlebox mbox(std::move(opts));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established());

  client.send(to_bytes(std::string_view("GET /")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_app_data()), "GET / [via proxy]");
  server.send(to_bytes(std::string_view("untouched")));
  chain.pump();
  EXPECT_EQ(to_string(client.take_app_data()), "untouched");
}

TEST(MbtlsMiddlebox, TamperedDataRecordMovesNoSequenceNumber) {
  // A tampered ApplicationData record is dropped without a trace in the
  // output: the buffer keeps the record already re-sealed into it, byte for
  // byte, and neither hop's sequence number moves, so the genuine record
  // that follows still forwards and opens at the server.
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));
  Middlebox mbox(middlebox_options("proxy.mboxes.example", Middlebox::Side::kClientSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established()) << client.error_message();
  ASSERT_TRUE(mbox.joined());

  client.send(to_bytes(std::string_view("first")));
  mbox.feed_from_client(client.take_output());
  const Bytes pending = mbox.output_to_server();
  ASSERT_FALSE(pending.empty());

  const std::string second(300, 's');
  client.send(to_bytes(second));
  const Bytes genuine = client.take_output();
  Bytes tampered = genuine;
  tampered[tls::kRecordHeaderSize + tls::kExplicitNonceSize + 7] ^= 0x01;
  mbox.feed_from_client(tampered);
  EXPECT_EQ(mbox.auth_failures(), 1u);
  EXPECT_EQ(mbox.output_to_server(), pending);

  mbox.feed_from_client(genuine);
  chain.pump();
  EXPECT_EQ(to_string(server.take_app_data()), "first" + second);
  EXPECT_TRUE(server.established()) << server.error_message();
  EXPECT_EQ(mbox.auth_failures(), 1u);
  EXPECT_EQ(mbox.records_reprotected(), 2u);
}

TEST(MbtlsMiddlebox, IdentityProcessorForwardsSameBytesAsNoProcessor) {
  // Without a processor, data records take the one-pass reprotect; with
  // one, they are opened, processed and sealed. A processor that returns
  // its input must leave the wire bytes exactly as the one-pass path does.
  const auto id = make_identity("origin.example");
  const auto forwarded = [&](Middlebox::Processor processor) {
    ClientSession client(client_options("origin.example"));
    ServerSession server(server_options(id));
    auto opts = middlebox_options("proxy.mboxes.example", Middlebox::Side::kClientSide);
    opts.processor = std::move(processor);
    Middlebox mbox(std::move(opts));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    EXPECT_TRUE(client.established()) << client.error_message();
    Bytes wire;  // every record the middlebox sent, both directions in turn
    crypto::Drbg rng("identity-processor", 1);
    for (const std::size_t size : {1, 255, 256, 4000, 16384}) {
      const Bytes data = rng.bytes(size);
      client.send(data);
      mbox.feed_from_client(client.take_output());
      const Bytes up = mbox.take_to_server();
      append(wire, up);
      server.feed(up);
      EXPECT_EQ(server.take_app_data(), data) << "c2s size=" << size;
      server.send(data);
      mbox.feed_from_server(server.take_output());
      const Bytes down = mbox.take_to_client();
      append(wire, down);
      client.feed(down);
      EXPECT_EQ(client.take_app_data(), data) << "s2c size=" << size;
    }
    EXPECT_EQ(mbox.records_reprotected(), 10u);
    return wire;
  };
  const Bytes one_pass = forwarded(nullptr);
  const Bytes processed = forwarded([](bool, ByteView data) { return to_bytes(data); });
  ASSERT_FALSE(one_pass.empty());
  EXPECT_EQ(one_pass.size(), processed.size());
  EXPECT_TRUE(one_pass == processed);
}

TEST(MbtlsMiddlebox, RecordsCutAtAnyReadBoundaryForwardTheSameBytes) {
  // Whole records are re-sealed straight from the read that carried them;
  // only a record a read boundary cuts off is buffered, header first. Every
  // way of cutting the same records must forward the same bytes.
  const auto id = make_identity("origin.example");
  const auto forwarded = [&](std::size_t chunk) {
    ClientSession client(client_options("origin.example"));
    ServerSession server(server_options(id));
    Middlebox mbox(middlebox_options("proxy.mboxes.example", Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    EXPECT_TRUE(client.established()) << client.error_message();
    crypto::Drbg rng("split-reads", 1);
    Bytes sent;
    for (const std::size_t size : {1, 300, 5000}) {
      const Bytes data = rng.bytes(size);
      append(sent, data);
      client.send(data);
    }
    const Bytes wire = client.take_output();
    for (std::size_t at = 0; at < wire.size(); at += chunk) {
      mbox.feed_from_client(ByteView(wire).subspan(at, std::min(chunk, wire.size() - at)));
    }
    const Bytes out = mbox.take_to_server();
    server.feed(out);
    EXPECT_EQ(server.take_app_data(), sent) << "chunk=" << chunk;
    EXPECT_EQ(mbox.records_reprotected(), 3u) << "chunk=" << chunk;
    return out;
  };
  const Bytes whole = forwarded(1 << 20);
  for (const std::size_t chunk : {1, 2, 3, 4, 5, 6, 7, 29, 306, 1000, 5028, 5029}) {
    EXPECT_TRUE(forwarded(chunk) == whole) << "chunk=" << chunk;
  }
}

// ---------------------------------------------------------- legacy interop

TEST(MbtlsMiddlebox, EverySecondaryHandshakeDrawsFreshRandomness) {
  // Two full handshakes through two fresh middleboxes with one identity.
  // A DRBG stream shared by every secondary would repeat the ServerHello
  // random and session ID, the ECDHE point and the ECDSA nonce (so the
  // signature's r): two recorded handshakes would then give away the
  // middlebox's long-term key.
  const auto id = make_identity("origin.example");
  ShardedSessionCache mbox_cache;
  Middlebox::Options mbox_options =
      middlebox_options("proxy.mboxes.example", Middlebox::Side::kClientSide);
  mbox_options.session_cache = &mbox_cache;

  struct Seen {
    Bytes random, session_id, point, r;
  };
  const auto handshake = [&](std::uint64_t seed) {
    ClientSession client(client_options("origin.example", seed));
    ServerSession server(server_options(id, seed + 1));
    Middlebox mbox(mbox_options);
    Seen seen;
    tls::RecordReader wire;
    tls::HandshakeReassembler secondary;
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    // Parse the middlebox's plaintext secondary flight (SH, Certificate,
    // SKE, SHD) out of its Encapsulated records, up to the SKE.
    chain.tap_to_client = [&](std::size_t, ByteView bytes) {
      wire.feed(bytes);
      while (auto rec = wire.next()) {
        if (rec->type != tls::ContentType::kMbtlsEncapsulated || !seen.r.empty()) continue;
        const auto enc = tls::EncapsulatedRecord::parse(rec->payload);
        ASSERT_TRUE(enc.has_value());
        tls::RecordReader inner;
        inner.feed(enc->inner_record);
        while (auto hs = inner.next()) {
          if (hs->type != tls::ContentType::kHandshake || !seen.r.empty()) continue;
          secondary.feed(hs->payload);
          while (auto msg = secondary.next()) {
            if (msg->type == tls::HandshakeType::kServerHello) {
              const auto hello = tls::ServerHello::parse(msg->body);
              seen.random = hello.random;
              seen.session_id = hello.session_id;
            } else if (msg->type == tls::HandshakeType::kServerKeyExchange) {
              const auto ske = tls::ServerKeyExchange::parse(msg->body, tls::KeyExchange::kEcdhe);
              seen.point = ske.ec_point;
              const auto raw = x509::ecdsa_sig_from_der(ske.signature);
              ASSERT_TRUE(raw.has_value());
              seen.r = Bytes(raw->begin(), raw->begin() + 32);
              break;
            }
          }
        }
      }
    };
    client.start();
    chain.pump();
    EXPECT_TRUE(client.established()) << client.error_message();
    EXPECT_TRUE(mbox.joined());
    EXPECT_FALSE(mbox.resumed());
    EXPECT_EQ(seen.r.size(), 32u);
    return seen;
  };

  const Seen first = handshake(1);
  const Seen second = handshake(3);
  EXPECT_NE(first.random, second.random);
  EXPECT_NE(first.session_id, second.session_id);
  EXPECT_NE(first.point, second.point);
  EXPECT_NE(first.r, second.r);
  // Only the middlebox's own writer fills its cache: one entry per full
  // handshake, keyed by the primary session ID.
  EXPECT_EQ(mbox_cache.size(), 2u);
}

TEST(MbtlsLegacy, MbtlsClientWithLegacyServer) {
  // P5: client-side middleboxes work even when the server is stock TLS 1.2.
  const auto id = make_identity("legacy-server.example");
  ClientSession client(client_options("legacy-server.example"));
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = id.key;
  scfg.certificate_chain = id.chain;
  scfg.rng_label = "legacy-server";
  tls::Engine server(scfg);
  Middlebox mbox(middlebox_options("proxy.example", Middlebox::Side::kClientSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .legacy_server = &server};
  client.start();
  chain.pump();

  ASSERT_TRUE(client.established()) << client.error_message();
  ASSERT_TRUE(server.handshake_done()) << server.error_message();
  EXPECT_TRUE(mbox.joined());

  client.send(to_bytes(std::string_view("hello legacy")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_plaintext()), "hello legacy");
  server.send(to_bytes(std::string_view("plain TLS says hi")));
  chain.pump();
  EXPECT_EQ(to_string(client.take_app_data()), "plain TLS says hi");
}

TEST(MbtlsLegacy, LegacyClientWithMbtlsServer) {
  // P5 mirror: server-side middleboxes join even when the client is legacy.
  const auto id = make_identity("mb-server.example");
  tls::Config ccfg;
  ccfg.is_client = true;
  ccfg.trust_anchors = {test_ca().root()};
  ccfg.server_name = "mb-server.example";
  ccfg.rng_label = "legacy-client";
  tls::Engine client(ccfg);
  ServerSession server(server_options(id));
  Middlebox mbox(middlebox_options("cdn.example", Middlebox::Side::kServerSide));
  Chain chain{.legacy_client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();

  ASSERT_TRUE(client.handshake_done()) << client.error_message();
  ASSERT_TRUE(server.established()) << server.error_message();
  EXPECT_TRUE(mbox.joined());

  client.send(to_bytes(std::string_view("from legacy client")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_app_data()), "from legacy client");
  server.send(to_bytes(std::string_view("server response")));
  chain.pump();
  EXPECT_EQ(to_string(client.take_plaintext()), "server response");
}

TEST(MbtlsLegacy, ClientSideMboxRelaysForLegacyClient) {
  // A legacy client's hello has no MiddleboxSupport extension: the on-path
  // middlebox must fall back to transparent relaying.
  const auto id = make_identity("both-legacy.example");
  tls::Config ccfg;
  ccfg.is_client = true;
  ccfg.trust_anchors = {test_ca().root()};
  ccfg.server_name = "both-legacy.example";
  ccfg.rng_label = "legacy-client2";
  tls::Engine client(ccfg);
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = id.key;
  scfg.certificate_chain = id.chain;
  scfg.rng_label = "legacy-server2";
  tls::Engine server(scfg);
  Middlebox mbox(middlebox_options("hopeful.example", Middlebox::Side::kClientSide));
  Chain chain{.legacy_client = &client, .middleboxes = {&mbox}, .legacy_server = &server};
  client.start();
  chain.pump();

  ASSERT_TRUE(client.handshake_done()) << client.error_message();
  EXPECT_TRUE(mbox.relay_mode());
  EXPECT_FALSE(mbox.joined());
  EXPECT_TRUE(mbox.observed_legacy_peer());

  client.send(to_bytes(std::string_view("opaque to mbox")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_plaintext()), "opaque to mbox");
}

TEST(MbtlsLegacy, ServerSideMboxDemotesWhenServerIgnoresAnnouncement) {
  // Tolerant legacy server: ignores announcement + encapsulated records; the
  // middlebox must notice data flowing without keys and demote to relay.
  const auto id = make_identity("tolerant.example");
  ClientSession client(client_options("tolerant.example"));
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = id.key;
  scfg.certificate_chain = id.chain;
  scfg.ignore_unknown_record_types = true;
  scfg.rng_label = "tolerant-server";
  tls::Engine server(scfg);
  Middlebox mbox(middlebox_options("ignored.example", Middlebox::Side::kServerSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .legacy_server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established()) << client.error_message();
  ASSERT_TRUE(server.handshake_done());

  client.send(to_bytes(std::string_view("flows through")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_plaintext()), "flows through");
  EXPECT_TRUE(mbox.relay_mode());
  EXPECT_TRUE(mbox.observed_legacy_peer());
}

TEST(MbtlsLegacy, StrictLegacyServerAbortsAndMboxCaches) {
  // Strict legacy server: fatal alert on the announcement. The client's
  // handshake fails (it must retry); the middlebox caches the legacy fact.
  const auto id = make_identity("strict.example");
  ClientSession client(client_options("strict.example"));
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = id.key;
  scfg.certificate_chain = id.chain;
  scfg.ignore_unknown_record_types = false;
  scfg.rng_label = "strict-server";
  tls::Engine server(scfg);
  Middlebox mbox(middlebox_options("blocked.example", Middlebox::Side::kServerSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .legacy_server = &server};
  client.start();
  chain.pump();
  EXPECT_TRUE(server.failed());
  EXPECT_FALSE(client.established());
  EXPECT_TRUE(mbox.observed_legacy_peer());

  // Retry with the cached knowledge: middlebox stays silent, handshake works.
  ClientSession client2(client_options("strict.example", /*seed=*/9));
  tls::Engine server2([&] {
    tls::Config cfg = scfg;
    cfg.rng_label = "strict-server-2";
    return cfg;
  }());
  auto opts = middlebox_options("blocked.example", Middlebox::Side::kServerSide);
  opts.peer_known_legacy = true;
  Middlebox mbox2(std::move(opts));
  Chain chain2{.client = &client2, .middleboxes = {&mbox2}, .legacy_server = &server2};
  client2.start();
  chain2.pump();
  EXPECT_TRUE(client2.established()) << client2.error_message();
  EXPECT_TRUE(mbox2.relay_mode());
}

// ------------------------------------------------------------ SGX & policy

TEST(MbtlsSgx, OutsourcedMiddleboxAttestsAndProtectsKeys) {
  sgx::Platform mip_platform;  // the untrusted infrastructure provider
  sgx::Enclave& enclave = mip_platform.launch("header-proxy-v1.2");
  const auto id = make_identity("origin.example");

  auto copts = client_options("origin.example");
  copts.require_middlebox_attestation = true;
  copts.expected_middlebox_measurement = sgx::measure("header-proxy-v1.2");
  ClientSession client(std::move(copts));
  ServerSession server(server_options(id));

  auto mopts = middlebox_options("proxy.cloud.example", Middlebox::Side::kClientSide);
  mopts.enclave = &enclave;
  Middlebox mbox(std::move(mopts));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();

  ASSERT_TRUE(client.established()) << client.error_message();
  ASSERT_EQ(client.middleboxes().size(), 1u);
  EXPECT_TRUE(client.middleboxes()[0].attested);
  EXPECT_EQ(client.middleboxes()[0].measurement, sgx::measure("header-proxy-v1.2"));

  client.send(to_bytes(std::string_view("secret payload")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_app_data()), "secret payload");

  // P1A: the infrastructure provider cannot find any hop key in memory.
  const auto view = mip_platform.adversary_memory_view();
  bool any_plain_secret = false;
  for (const auto& region : view) any_plain_secret |= !region.encrypted;
  EXPECT_FALSE(any_plain_secret);
}

TEST(MbtlsSgx, EnclaveMiddleboxCrossesOncePerRead) {
  // One transport read carrying N sealed records is one ECALL carrying N
  // records, and the enclave changes nothing the server reads.
  constexpr std::size_t kRecords = 6;
  crypto::Drbg rng("ecall-per-read", 0);
  std::vector<Bytes> payloads;
  Bytes expected;
  for (std::size_t i = 0; i < kRecords; ++i) {
    payloads.push_back(rng.bytes(100 + 700 * i));
    append(expected, payloads.back());
  }
  for (const bool with_enclave : {false, true}) {
    SCOPED_TRACE(with_enclave ? "enclave" : "no enclave");
    sgx::Platform platform;
    sgx::Enclave& enclave = platform.launch("batching-proxy");
    const auto id = make_identity("batch.example");
    ClientSession client(client_options("batch.example"));
    ServerSession server(server_options(id));
    auto mopts = middlebox_options("batch-mbox.example", Middlebox::Side::kClientSide);
    if (with_enclave) mopts.enclave = &enclave;
    Middlebox mbox(std::move(mopts));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(mbox.joined());

    for (const auto& p : payloads) client.send(p);
    const Bytes one_read = client.take_output();
    const std::uint64_t batches = enclave.batch_ecalls();
    const std::uint64_t records = enclave.batched_records();
    const std::uint64_t transitions = enclave.transitions();
    mbox.feed_from_client(one_read);
    EXPECT_EQ(enclave.batch_ecalls(), batches + (with_enclave ? 1 : 0));
    EXPECT_EQ(enclave.batched_records(), records + (with_enclave ? kRecords : 0));
    EXPECT_EQ(enclave.transitions(), transitions + (with_enclave ? 2 : 0));
    server.feed(mbox.take_to_server());
    EXPECT_EQ(server.take_app_data(), expected);
  }
}

TEST(MbtlsSgx, WithoutEnclaveKeysAreExposedToInfrastructure) {
  // The contrast case: same middlebox on untrusted hardware without SGX —
  // the MIP can read hop keys straight out of RAM.
  sgx::Platform mip_platform;
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));
  auto mopts = middlebox_options("naked-proxy.example", Middlebox::Side::kClientSide);
  mopts.untrusted_store = &mip_platform.untrusted_memory();
  Middlebox mbox(std::move(mopts));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established());

  const auto key = mip_platform.untrusted_memory().get("naked-proxy.example/hop_toward_client_c2s");
  ASSERT_TRUE(key.has_value());
  EXPECT_FALSE(mip_platform.adversary_find_secret(*key).empty());
}

TEST(MbtlsSgx, AttestationRequiredButMissingFails) {
  const auto id = make_identity("origin.example");
  auto copts = client_options("origin.example");
  copts.require_middlebox_attestation = true;
  ClientSession client(std::move(copts));
  ServerSession server(server_options(id));
  Middlebox mbox(middlebox_options("no-enclave.example", Middlebox::Side::kClientSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  EXPECT_TRUE(client.failed());
}

TEST(MbtlsPolicy, ApprovalCallbackCanReject) {
  const auto id = make_identity("origin.example");
  auto copts = client_options("origin.example");
  copts.approve = [](const MiddleboxDescriptor& desc) {
    return desc.certificate_cn != "unwanted.example";
  };
  ClientSession client(std::move(copts));
  ServerSession server(server_options(id));
  Middlebox mbox(middlebox_options("unwanted.example", Middlebox::Side::kClientSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  EXPECT_TRUE(client.failed());
  EXPECT_NE(client.error_message().find("rejected by policy"), std::string::npos);
}

TEST(MbtlsPolicy, UntrustedMiddleboxCertificateRejected) {
  crypto::Drbg rogue_rng("rogue-mbox", 0);
  const auto rogue_ca =
      x509::CertificateAuthority::create("Rogue Mbox CA", x509::KeyType::kEcdsaP256, rogue_rng);
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));

  Middlebox::Options mopts;
  mopts.name = "rogue.example";
  mopts.side = Middlebox::Side::kClientSide;
  mopts.private_key = std::make_shared<x509::PrivateKey>(
      x509::PrivateKey::generate(x509::KeyType::kEcdsaP256, rogue_rng));
  x509::CertRequest req;
  req.subject_cn = "rogue.example";
  req.not_after = 2524607999;
  req.key = mopts.private_key->public_key();
  mopts.certificate_chain = {rogue_ca.issue(req, rogue_rng)};
  Middlebox mbox(std::move(mopts));

  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  EXPECT_TRUE(client.failed());
}

TEST(Mbtls, LargeTransferThroughMiddleboxes) {
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));
  Middlebox c0(middlebox_options("c0.example", Middlebox::Side::kClientSide));
  Middlebox s0(middlebox_options("s0.example", Middlebox::Side::kServerSide));
  Chain chain{.client = &client, .middleboxes = {&c0, &s0}, .server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established());

  crypto::Drbg rng("mb-large", 0);
  const Bytes blob = rng.bytes(200'000);
  client.send(blob);
  chain.pump();
  EXPECT_EQ(server.take_app_data(), blob);
  const Bytes blob2 = rng.bytes(150'000);
  server.send(blob2);
  chain.pump();
  EXPECT_EQ(client.take_app_data(), blob2);
}

TEST(Mbtls, CloseNotifyPropagates) {
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));
  Middlebox mbox(middlebox_options("mid.example", Middlebox::Side::kClientSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established());
  client.close();
  chain.pump();
  EXPECT_EQ(server.status(), SessionStatus::kClosed);
  // The middlebox recognized the shutdown on the reprotect path rather than
  // treating the alert as opaque bytes.
  EXPECT_TRUE(mbox.saw_close_notify_from_client());
  EXPECT_FALSE(mbox.saw_close_notify_from_server());
}

TEST(Mbtls, CloseNotifyPropagatesServerToClient) {
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));
  Middlebox mbox(middlebox_options("s0.example", Middlebox::Side::kServerSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established());
  server.close();
  chain.pump();
  EXPECT_EQ(client.status(), SessionStatus::kClosed);
  EXPECT_TRUE(mbox.saw_close_notify_from_server());
  EXPECT_FALSE(mbox.saw_close_notify_from_client());
}

TEST(Mbtls, CloseNotifyTraversesEveryHop) {
  // Clean shutdown must be re-protected hop by hop through a full path —
  // every middlebox observes it, and the far endpoint reaches kClosed.
  const auto id = make_identity("origin.example");
  ClientSession client(client_options("origin.example"));
  ServerSession server(server_options(id));
  Middlebox c0(middlebox_options("c0.example", Middlebox::Side::kClientSide));
  Middlebox s0(middlebox_options("s0.example", Middlebox::Side::kServerSide));
  Chain chain{.client = &client, .middleboxes = {&c0, &s0}, .server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established());
  ASSERT_TRUE(c0.joined());
  ASSERT_TRUE(s0.joined());
  client.close();
  chain.pump();
  EXPECT_EQ(server.status(), SessionStatus::kClosed);
  EXPECT_TRUE(c0.saw_close_notify_from_client());
  EXPECT_TRUE(s0.saw_close_notify_from_client());
}

}  // namespace
}  // namespace mbtls::mb
