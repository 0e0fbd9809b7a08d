// mbTLS edge cases: wire-format codecs, False-Start-style buffering, record
// injection, malformed input robustness, and a parameterized sweep over
// middlebox-chain shapes.
#include <gtest/gtest.h>

#include "tests/mbtls_test_util.h"

namespace mbtls::mb {
namespace {

using namespace testing;

// ----------------------------------------------------------------- codecs

TEST(MbtlsCodec, KeyMaterialRoundTrip) {
  crypto::Drbg rng("km-codec", 0);
  tls::KeyMaterialMsg msg;
  msg.cipher_suite = static_cast<std::uint16_t>(tls::CipherSuite::kEcdheRsaAes256GcmSha384);
  msg.toward_client = generate_hop_keys(32, rng);
  msg.toward_server = generate_hop_keys(32, rng);
  msg.toward_server.client_to_server_seq = 7;
  msg.toward_server.server_to_client_seq = 9;
  const Bytes wire = msg.encode();
  const auto back = tls::KeyMaterialMsg::parse(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cipher_suite, msg.cipher_suite);
  EXPECT_EQ(back->toward_client.client_to_server_key, msg.toward_client.client_to_server_key);
  EXPECT_EQ(back->toward_server.client_to_server_seq, 7u);
  EXPECT_EQ(back->toward_server.server_to_client_seq, 9u);

  // Truncations never parse.
  for (std::size_t cut = 0; cut < wire.size(); cut += 5) {
    EXPECT_FALSE(tls::KeyMaterialMsg::parse(ByteView(wire).first(cut)).has_value());
  }
}

TEST(MbtlsCodec, EncapsulatedRoundTrip) {
  tls::EncapsulatedRecord enc;
  enc.subchannel = 42;
  enc.inner_record = tls::frame_plaintext_record(tls::ContentType::kHandshake, Bytes(10, 1));
  const Bytes wire = enc.encode();
  const auto back = tls::EncapsulatedRecord::parse(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->subchannel, 42);
  EXPECT_EQ(back->inner_record, enc.inner_record);
  EXPECT_FALSE(tls::EncapsulatedRecord::parse(Bytes(3, 0)).has_value());
}

TEST(MbtlsCodec, MiddleboxSupportExtensionRoundTrip) {
  tls::MiddleboxSupportExtension ext;
  ext.known_middleboxes = {"proxy.a.example", "cache.b.example"};
  ext.optimistic_hellos = {Bytes(20, 0xaa)};
  const Bytes wire = ext.encode();
  const auto back = tls::MiddleboxSupportExtension::parse(wire);
  EXPECT_EQ(back.known_middleboxes, ext.known_middleboxes);
  ASSERT_EQ(back.optimistic_hellos.size(), 1u);
  EXPECT_EQ(back.optimistic_hellos[0], ext.optimistic_hellos[0]);
  EXPECT_THROW(tls::MiddleboxSupportExtension::parse(Bytes{2}), DecodeError);
}

// --------------------------------------------------- chain-shape sweep

struct ChainShape {
  int client_side;
  int server_side;
};

class MbtlsChainSweep : public ::testing::TestWithParam<ChainShape> {};

TEST_P(MbtlsChainSweep, HandshakeAndBidirectionalData) {
  const auto [n_client, n_server] = GetParam();
  const auto id = make_identity("sweep.example");
  ClientSession client(client_options("sweep.example"));
  ServerSession server(server_options(id));
  std::vector<std::unique_ptr<Middlebox>> boxes;
  Chain chain{.client = &client, .middleboxes = {}, .server = &server};
  for (int i = 0; i < n_client + n_server; ++i) {
    auto opts = middlebox_options("m" + std::to_string(i) + ".example",
                                  i < n_client ? Middlebox::Side::kClientSide
                                               : Middlebox::Side::kServerSide);
    boxes.push_back(std::make_unique<Middlebox>(std::move(opts)));
    chain.middleboxes.push_back(boxes.back().get());
  }
  client.start();
  chain.pump(400);
  ASSERT_TRUE(client.established()) << client.error_message();
  ASSERT_TRUE(server.established()) << server.error_message();
  EXPECT_EQ(client.middleboxes().size(), static_cast<std::size_t>(n_client));
  EXPECT_EQ(server.middleboxes().size(), static_cast<std::size_t>(n_server));
  for (const auto& box : boxes) EXPECT_TRUE(box->joined());

  crypto::Drbg rng("sweep-data", static_cast<std::uint64_t>(n_client * 10 + n_server));
  const Bytes up = rng.bytes(5000);
  const Bytes down = rng.bytes(7000);
  client.send(up);
  chain.pump(400);
  EXPECT_EQ(server.take_app_data(), up);
  server.send(down);
  chain.pump(400);
  EXPECT_EQ(client.take_app_data(), down);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MbtlsChainSweep,
                         ::testing::Values(ChainShape{0, 0}, ChainShape{1, 0}, ChainShape{0, 1},
                                           ChainShape{2, 0}, ChainShape{0, 2}, ChainShape{3, 0},
                                           ChainShape{2, 2}, ChainShape{4, 0}, ChainShape{1, 3}),
                         [](const auto& info) {
                           return "c" + std::to_string(info.param.client_side) + "_s" +
                                  std::to_string(info.param.server_side);
                         });

// ----------------------------------------------------- False-Start buffer

TEST(MbtlsEdge, ServerDataBeforeKeyMaterialIsBuffered) {
  // §3.5: data can reach a middlebox before the endpoint's key material
  // (the server finishes first and may speak immediately). The middlebox
  // must buffer, not drop.
  const auto id = make_identity("faststart.example");
  ClientSession client(client_options("faststart.example"));
  ServerSession server(server_options(id));
  Middlebox mbox(middlebox_options("buffering.example", Middlebox::Side::kClientSide));

  client.start();
  // Pump manually so we can inject server data the moment it establishes,
  // *before* the client's KeyMaterial can reach the middlebox.
  bool injected = false;
  for (int i = 0; i < 200; ++i) {
    bool moved = false;
    Bytes a = client.take_output();
    if (!a.empty()) {
      moved = true;
      mbox.feed_from_client(a);
    }
    Bytes b = mbox.take_to_server();
    if (!b.empty()) {
      moved = true;
      server.feed(b);
    }
    if (server.established() && !injected) {
      injected = true;
      server.send(to_bytes(std::string_view("server speaks first")));
    }
    Bytes c = server.take_output();
    if (!c.empty()) {
      moved = true;
      mbox.feed_from_server(c);
    }
    Bytes d = mbox.take_to_client();
    if (!d.empty()) {
      moved = true;
      client.feed(d);
    }
    if (!moved) break;
  }
  ASSERT_TRUE(injected);
  ASSERT_TRUE(client.established()) << client.error_message();
  EXPECT_EQ(to_string(client.take_app_data()), "server speaks first");
  EXPECT_TRUE(mbox.joined());
}

// -------------------------------------------------------------- injection

TEST(MbtlsEdge, ForgedRecordAtMiddleboxIsDiscarded) {
  const auto id = make_identity("forge.example");
  ClientSession client(client_options("forge.example"));
  ServerSession server(server_options(id));
  Middlebox mbox(middlebox_options("strict.example", Middlebox::Side::kClientSide));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established());

  // An attacker without hop keys injects a fake application-data record
  // toward the middlebox.
  crypto::Drbg rng("forge", 0);
  Bytes fake_body = rng.bytes(64);
  const Bytes forged =
      tls::frame_plaintext_record(tls::ContentType::kApplicationData, fake_body);
  mbox.feed_from_client(forged);
  EXPECT_EQ(mbox.auth_failures(), 1u);
  // Nothing reached the server, and the session still works.
  EXPECT_TRUE(mbox.take_to_server().empty());
  client.send(to_bytes(std::string_view("still alive")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_app_data()), "still alive");
}

TEST(MbtlsEdge, EncapsulatedRecordAfterEstablishmentIsDropped) {
  // Secondary handshakes end at establishment: an Encapsulated record that
  // arrives later on a known subchannel is dropped by either role, which
  // stays established with data still flowing.
  const auto id = make_identity("late.example");
  ClientSession client(client_options("late.example"));
  ServerSession server(server_options(id));
  Middlebox cmb(middlebox_options("client-side.late.example", Middlebox::Side::kClientSide));
  Middlebox smb(middlebox_options("server-side.late.example", Middlebox::Side::kServerSide));
  Chain chain{.client = &client, .middleboxes = {&cmb, &smb}, .server = &server};
  client.start();
  chain.pump();
  ASSERT_TRUE(client.established()) << client.error_message();
  ASSERT_TRUE(server.established()) << server.error_message();
  ASSERT_EQ(client.middleboxes().size(), 1u);
  ASSERT_EQ(server.middleboxes().size(), 1u);

  const auto late_record = [](std::uint8_t subchannel) {
    tls::EncapsulatedRecord enc;
    enc.subchannel = subchannel;
    enc.inner_record = tls::frame_plaintext_record(tls::ContentType::kHandshake, Bytes(4, 0));
    return tls::frame_plaintext_record(tls::ContentType::kMbtlsEncapsulated, enc.encode());
  };
  client.feed(late_record(client.middleboxes()[0].subchannel));
  server.feed(late_record(server.middleboxes()[0].subchannel));
  EXPECT_TRUE(client.established()) << client.error_message();
  EXPECT_TRUE(server.established()) << server.error_message();
  EXPECT_TRUE(client.take_output().empty());
  EXPECT_TRUE(server.take_output().empty());

  client.send(to_bytes(std::string_view("up")));
  server.send(to_bytes(std::string_view("down")));
  chain.pump();
  EXPECT_EQ(to_string(server.take_app_data()), "up");
  EXPECT_EQ(to_string(client.take_app_data()), "down");
}

// ------------------------------------------------------------ relay bytes
//
// A middlebox that cannot parse the stream steps aside as a relay (§3.4):
// every byte that goes in comes out exactly once, in order, and a relay
// holds nothing back.

TEST(MbtlsRelay, UnparseableClientHelloSplitOverTwoReadsIsForwardedWhole) {
  // A complete handshake message of type ClientHello whose body
  // ClientHello::parse rejects (version 0x0100), then more bytes.
  Bytes in = tls::frame_plaintext_record(tls::ContentType::kHandshake,
                                         Bytes{1, 0, 0, 4, 0x01, 0x00, 0x00, 0x00});
  append(in, to_bytes(std::string_view("bytes after the hello")));
  Middlebox mbox(middlebox_options("split.example", Middlebox::Side::kClientSide));
  const std::size_t cut = 7;  // the first read ends inside the record
  mbox.feed_from_client(ByteView(in).first(cut));
  Bytes out = mbox.take_to_server();
  mbox.feed_from_client(ByteView(in).subspan(cut));
  append(out, mbox.take_to_server());
  EXPECT_TRUE(mbox.relay_mode());
  EXPECT_EQ(out, in);
}

TEST(MbtlsRelay, FramingErrorAfterForwardedHelloSendsTheHelloOnce) {
  // One read: an mbTLS ClientHello (forwarded as the middlebox joins), then
  // a record header whose length exceeds the TLS maximum.
  ClientSession client(client_options("once.example"));
  client.start();
  Bytes in = client.take_output();
  append(in, Bytes{static_cast<std::uint8_t>(tls::ContentType::kApplicationData), 3, 3,
                   0xff, 0xff});
  append(in, to_bytes(std::string_view("trailing bytes")));
  Middlebox mbox(middlebox_options("once-mbox.example", Middlebox::Side::kClientSide));
  mbox.feed_from_client(in);
  EXPECT_TRUE(mbox.relay_mode());
  EXPECT_EQ(mbox.take_to_server(), in);
}

TEST(MbtlsRelay, DemotedMiddleboxForwardsEachChunkAsItArrives) {
  Middlebox mbox(middlebox_options("stream.example", Middlebox::Side::kClientSide));
  const Bytes oversized{static_cast<std::uint8_t>(tls::ContentType::kHandshake), 3, 1, 0xff,
                        0xff};
  mbox.feed_from_client(oversized);
  ASSERT_TRUE(mbox.relay_mode());
  EXPECT_EQ(mbox.take_to_server(), oversized);
  // 16 MiB of non-TLS bytes in 16 KiB reads: each read leaves in full,
  // straight away, so the middlebox buffers nothing however long it runs.
  crypto::Drbg rng("relay-stream", 0);
  for (int i = 0; i < 1024; ++i) {
    const Bytes chunk = rng.bytes(16 * 1024);
    mbox.feed_from_client(chunk);
    ASSERT_EQ(mbox.take_to_server(), chunk) << "read " << i;
  }
}

TEST(MbtlsRelay, AnnouncementBadHelloAndTrailingBytesInOneReadLeaveExactly) {
  // One read: an announcement (forwarded from the reader's buffer as it is
  // handled), a ClientHello the parser rejects (forwarded from the view in
  // hand when the middlebox demotes) and trailing bytes (forwarded from what
  // the reader had not consumed). Out equals in, byte for byte.
  Bytes in = tls::frame_plaintext_record(tls::ContentType::kMbtlsMiddleboxAnnouncement, {});
  append(in, tls::frame_plaintext_record(tls::ContentType::kHandshake,
                                         Bytes{1, 0, 0, 4, 0x01, 0x00, 0x00, 0x00}));
  append(in, to_bytes(std::string_view("trailing bytes")));
  Middlebox mbox(middlebox_options("one-read.example", Middlebox::Side::kClientSide));
  mbox.feed_from_client(in);
  EXPECT_TRUE(mbox.relay_mode());
  EXPECT_EQ(mbox.take_to_server(), in);
}

// ----------------------------------------------------------- fuzz-adjacent

TEST(MbtlsEdge, RandomGarbageDoesNotCrashEndpoints) {
  crypto::Drbg rng("garbage", 0);
  for (int trial = 0; trial < 30; ++trial) {
    ClientSession client(client_options("g.example", static_cast<std::uint64_t>(trial)));
    client.start();
    (void)client.take_output();
    Bytes junk = rng.bytes(rng.uniform(300) + 5);
    junk[0] = static_cast<std::uint8_t>(20 + rng.uniform(15));  // plausible types
    client.feed(junk);  // must not crash; may fail the session
    const auto id = make_identity("g.example");
    ServerSession server(server_options(id, static_cast<std::uint64_t>(trial)));
    server.feed(junk);
  }
  SUCCEED();
}

TEST(MbtlsEdge, MutatedHandshakeBytesFailCleanly) {
  // Flip a byte at every position of the client's first flight and feed the
  // result to a fresh server; nothing may crash, and data never flows.
  const auto id = make_identity("mutate.example");
  ClientSession reference(client_options("mutate.example"));
  reference.start();
  const Bytes hello = reference.take_output();
  for (std::size_t at = 0; at < hello.size(); at += 3) {
    Bytes mutated = hello;
    mutated[at] ^= 0x41;
    ServerSession server(server_options(id, at));
    server.feed(mutated);
    EXPECT_FALSE(server.established());
  }
}

TEST(MbtlsEdge, MiddleboxSurvivesMutatedStream) {
  const auto id = make_identity("mstream.example");
  crypto::Drbg rng("mstream", 0);
  for (int trial = 0; trial < 20; ++trial) {
    ClientSession client(client_options("mstream.example", static_cast<std::uint64_t>(trial)));
    ServerSession server(server_options(id, static_cast<std::uint64_t>(trial) + 1));
    Middlebox mbox(middlebox_options("m.example", Middlebox::Side::kClientSide));
    client.start();
    Bytes flight = client.take_output();
    if (!flight.empty()) {
      flight[rng.uniform(flight.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    mbox.feed_from_client(flight);  // must not crash
    (void)mbox.take_to_server();
  }
  SUCCEED();
}

TEST(MbtlsEdge, SendBeforeEstablishedThrows) {
  ClientSession client(client_options("early.example"));
  EXPECT_THROW(client.send(Bytes{1, 2, 3}), std::logic_error);
  const auto id = make_identity("early.example");
  ServerSession server(server_options(id));
  EXPECT_THROW(server.send(Bytes{1}), std::logic_error);
}

TEST(MbtlsEdge, HopDuplexRejectsMismatchedKeyLength) {
  crypto::Drbg rng("hoplen", 0);
  const auto keys = generate_hop_keys(16, rng);
  EXPECT_THROW(HopDuplex(keys, 32), std::invalid_argument);
}

// ---------------------------------------------------------- alert hygiene

TEST(MbtlsAlert, ParseRejectsTruncatedAndBogusLevels) {
  EXPECT_FALSE(parse_alert(Bytes{}).has_value());
  // The old code indexed body[1] on a 1-byte alert — this is the regression.
  EXPECT_FALSE(parse_alert(Bytes{1}).has_value());
  EXPECT_FALSE(parse_alert(Bytes{1, 0, 0}).has_value());  // oversized
  EXPECT_FALSE(parse_alert(Bytes{0, 0}).has_value());     // level 0 invalid
  EXPECT_FALSE(parse_alert(Bytes{3, 0}).has_value());     // level 3 invalid
  const auto close = parse_alert(Bytes{1, 0});
  ASSERT_TRUE(close.has_value());
  EXPECT_TRUE(close->is_close_notify());
  const auto fatal = parse_alert(
      Bytes{2, static_cast<std::uint8_t>(tls::AlertDescription::kHandshakeFailure)});
  ASSERT_TRUE(fatal.has_value());
  EXPECT_EQ(fatal->level, tls::AlertLevel::kFatal);
  EXPECT_FALSE(fatal->is_close_notify());
}

// In a zero-middlebox session both endpoints' data path is the bridge hop
// derived from the shared primary keys, so a test can forge what a buggy or
// hostile *peer* (which has the keys) would send: correctly sealed records
// with malformed alert bodies. These must fail the session explicitly —
// never index out of bounds, never be misread as close_notify, never be
// silently ignored.
struct AlertRig {
  AlertRig()
      : id(make_identity("alert.example")),
        client(client_options("alert.example")),
        server(server_options(id)) {
    Chain chain{.client = &client, .middleboxes = {}, .server = &server};
    client.start();
    chain.pump();
  }
  HopDuplex forge() const {
    return HopDuplex(bridge_hop_keys(client.primary().connection_keys()),
                     client.primary().suite().key_len);
  }
  tls::testing::ServerIdentity id;
  ClientSession client;
  ServerSession server;
};

enum class Role { kClient, kServer };

void PrintTo(Role role, std::ostream* os) { *os << (role == Role::kClient ? "Client" : "Server"); }

struct AlertCase {
  const char* what;
  Bytes body;
  std::string error;  // expected error_message()
};

const AlertCase kOneByteAlert{
    "one-byte alert", Bytes{static_cast<std::uint8_t>(tls::AlertLevel::kWarning)},
    "malformed alert record"};
// The description says close_notify; the level is invalid.
const AlertCase kBogusLevelAlert{"bogus level", Bytes{0x03, 0x00}, "malformed alert record"};
const AlertCase kFatalAlert{
    "fatal alert",
    Bytes{static_cast<std::uint8_t>(tls::AlertLevel::kFatal),
          static_cast<std::uint8_t>(tls::AlertDescription::kHandshakeFailure)},
    std::string("peer alert: ") + tls::to_string(tls::AlertDescription::kHandshakeFailure)};

// Feeds one forged, correctly sealed alert to an established `role` and
// checks that the session fails with the case's message.
void expect_sealed_alert_fails(Role role, const AlertCase& c) {
  SCOPED_TRACE(c.what);
  AlertRig rig;
  auto forge = rig.forge();
  EndpointCore& session = role == Role::kClient ? static_cast<EndpointCore&>(rig.client)
                                                : static_cast<EndpointCore&>(rig.server);
  ASSERT_TRUE(session.established());
  session.feed(role == Role::kClient ? forge.s2c().seal(tls::ContentType::kAlert, c.body)
                                     : forge.c2s().seal(tls::ContentType::kAlert, c.body));
  EXPECT_TRUE(session.failed());
  EXPECT_EQ(session.error_message(), c.error);
  EXPECT_NE(session.status(), SessionStatus::kClosed);  // never misread as close_notify
}

TEST(MbtlsAlert, TruncatedSealedAlertFailsClientSession) {
  expect_sealed_alert_fails(Role::kClient, kOneByteAlert);
}

TEST(MbtlsAlert, FatalPeerAlertSurfacesDescription) {
  expect_sealed_alert_fails(Role::kClient, kFatalAlert);
}

class MbtlsAlertRole : public ::testing::TestWithParam<Role> {};

// Every alert case against both roles.
TEST_P(MbtlsAlertRole, SealedPeerAlertsFailTheSession) {
  for (const AlertCase* c : {&kOneByteAlert, &kBogusLevelAlert, &kFatalAlert}) {
    expect_sealed_alert_fails(GetParam(), *c);
  }
}

INSTANTIATE_TEST_SUITE_P(BothRoles, MbtlsAlertRole,
                         ::testing::Values(Role::kClient, Role::kServer),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace mbtls::mb
