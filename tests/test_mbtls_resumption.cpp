// mbTLS session resumption (§3.5): the primary handshake and every
// secondary handshake are replaced by abbreviated handshakes. Middleboxes
// key their cached secondary-session state by the *primary* session ID.
#include <gtest/gtest.h>

#include "mbtls/cache.h"
#include "tests/mbtls_test_util.h"
#include "tls/ticket.h"

namespace mbtls::mb {
namespace {

using namespace testing;

struct ResumptionRig {
  ShardedSessionCache client_cache, server_cache, mbox_cache;
  tls::testing::ServerIdentity server_id = make_identity("resume.example");
  tls::testing::ServerIdentity mbox_id = make_identity("mbox.resume.example");

  ClientSession::Options client_opts(std::uint64_t seed) {
    auto opts = client_options("resume.example", seed);
    opts.tls.session_cache = &client_cache;
    opts.tls.offer_resumption = true;
    return opts;
  }
  ServerSession::Options server_opts(std::uint64_t seed) {
    auto opts = server_options(server_id, seed);
    opts.tls.session_cache = &server_cache;
    return opts;
  }
  Middlebox::Options mbox_opts(Middlebox::Side side) {
    Middlebox::Options opts;
    opts.name = "mbox.resume.example";
    opts.side = side;
    opts.private_key = mbox_id.key;
    opts.certificate_chain = mbox_id.chain;
    opts.session_cache = &mbox_cache;
    return opts;
  }
};

/// How one session through a single middlebox came up.
struct Outcome {
  bool established = false;
  bool client_resumed = false;
  bool mbox_resumed = false;
  std::string error;
};

Outcome connect(ClientSession::Options copts, ServerSession::Options sopts,
                Middlebox::Options mopts) {
  ClientSession client(std::move(copts));
  ServerSession server(std::move(sopts));
  Middlebox mbox(std::move(mopts));
  Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  Outcome out;
  out.established = client.established() && server.established();
  out.client_resumed = client.primary().resumed();
  out.mbox_resumed = mbox.resumed();
  out.error = client.failed() ? client.error_message() : server.error_message();
  if (out.established) {
    client.send(to_bytes(std::string_view("ping")));
    chain.pump();
    EXPECT_EQ(to_string(server.take_app_data()), "ping");
  }
  return out;
}

/// client -- client-side middlebox -- server, pumped by hand. While `hold`
/// is set, Encapsulated records that reach the client after its primary
/// handshake has sent Finished (the middlebox's last secondary flight) wait
/// in `held`: the primary handshake completes, the secondary does not.
struct HeldPath {
  ClientSession client;
  ServerSession server;
  Middlebox mbox;
  bool hold = true;
  Bytes held;

  HeldPath(ClientSession::Options copts, ServerSession::Options sopts, Middlebox::Options mopts)
      : client(std::move(copts)), server(std::move(sopts)), mbox(std::move(mopts)) {
    client.start();
  }

  void pump() {
    for (int i = 0; i < 200; ++i) {
      bool moved = false;
      const auto pass = [&moved](Bytes bytes, const auto& sink) {
        if (bytes.empty()) return;
        moved = true;
        sink(bytes);
      };
      pass(client.take_output(), [this](const Bytes& b) { mbox.feed_from_client(b); });
      pass(mbox.take_to_server(), [this](const Bytes& b) { server.feed(b); });
      pass(server.take_output(), [this](const Bytes& b) { mbox.feed_from_server(b); });
      pass(mbox.take_to_client(), [this](const Bytes& b) { to_client(b); });
      if (!moved) return;
    }
  }

  void to_client(ByteView bytes) {
    tls::RecordReader records;
    records.feed(bytes);
    while (auto raw = records.take_raw()) {
      const bool secondary =
          (*raw)[0] == static_cast<std::uint8_t>(tls::ContentType::kMbtlsEncapsulated);
      const bool primary_finished_sent =
          client.primary().state() >= tls::EngineState::kAwaitChangeCipherSpec;
      if (hold && secondary && primary_finished_sent) {
        append(held, *raw);
      } else {
        client.feed(*raw);
      }
    }
  }

  void release() {
    hold = false;
    client.feed(held);
    held.clear();
    pump();
  }
};

TEST(MbtlsResumption, ClientSideMiddleboxResumes) {
  ResumptionRig rig;

  // Connection 1: full handshakes everywhere, caches populate.
  {
    ClientSession client(rig.client_opts(1));
    ServerSession server(rig.server_opts(2));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(mbox.joined());
    EXPECT_FALSE(client.primary().resumed());
    EXPECT_FALSE(mbox.resumed());
  }
  ASSERT_GT(rig.mbox_cache.size(), 0u);

  // Connection 2: primary and secondary handshakes are all abbreviated.
  {
    ClientSession client(rig.client_opts(11));
    ServerSession server(rig.server_opts(12));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(server.established()) << server.error_message();
    ASSERT_TRUE(mbox.joined());
    EXPECT_TRUE(client.primary().resumed());
    EXPECT_TRUE(server.primary().resumed());
    EXPECT_TRUE(mbox.resumed());

    // Fresh per-hop keys were distributed; data flows.
    client.send(to_bytes(std::string_view("resumed request")));
    chain.pump();
    EXPECT_EQ(to_string(server.take_app_data()), "resumed request");
    server.send(to_bytes(std::string_view("resumed response")));
    chain.pump();
    EXPECT_EQ(to_string(client.take_app_data()), "resumed response");
  }
}

TEST(MbtlsResumption, ServerSideMiddleboxResumes) {
  ResumptionRig rig;
  {
    ClientSession client(rig.client_opts(21));
    ServerSession server(rig.server_opts(22));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kServerSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(mbox.joined());
  }
  {
    ClientSession client(rig.client_opts(31));
    ServerSession server(rig.server_opts(32));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kServerSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(server.established()) << server.error_message();
    ASSERT_TRUE(mbox.joined());
    EXPECT_TRUE(client.primary().resumed());
    EXPECT_TRUE(mbox.resumed());

    client.send(to_bytes(std::string_view("hello again")));
    chain.pump();
    EXPECT_EQ(to_string(server.take_app_data()), "hello again");
  }
}

TEST(MbtlsResumption, AttestedMiddleboxNeedsNoFreshQuoteOnResumption) {
  // §3.5: "A new attestation is not required, because only the enclave
  // knows the key needed to decrypt the session ticket."
  ResumptionRig rig;
  sgx::Platform platform;
  sgx::Enclave& enclave = platform.launch("resumable-proxy-v1");

  auto client_opts = [&](std::uint64_t seed) {
    auto opts = rig.client_opts(seed);
    opts.require_middlebox_attestation = true;
    opts.expected_middlebox_measurement = sgx::measure("resumable-proxy-v1");
    // Resumed secondaries carry no fresh quote; possession of the cached
    // master secret (sealed in the enclave) is the continuity proof.
    opts.approve = [](const MiddleboxDescriptor&) { return true; };
    return opts;
  };
  auto mbox_opts = [&] {
    auto opts = rig.mbox_opts(Middlebox::Side::kClientSide);
    opts.enclave = &enclave;
    return opts;
  };

  std::uint64_t attested_quotes = 0;
  {
    ClientSession client(client_opts(41));
    ServerSession server(rig.server_opts(42));
    Middlebox mbox(mbox_opts());
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    EXPECT_TRUE(client.middleboxes()[0].attested);
    attested_quotes = enclave.transitions();
  }
  {
    ClientSession client(client_opts(51));
    ServerSession server(rig.server_opts(52));
    Middlebox mbox(mbox_opts());
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    EXPECT_TRUE(mbox.resumed());
    // No new quote was generated for the resumed handshake.
    EXPECT_FALSE(client.middleboxes()[0].attested);
    (void)attested_quotes;
  }
}

TEST(MbtlsResumption, UnknownSessionIdFallsBackToFullHandshake) {
  ResumptionRig rig;
  {
    ClientSession client(rig.client_opts(61));
    ServerSession server(rig.server_opts(62));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established());
  }
  // The middlebox lost its cache (e.g. a different instance serves the
  // retry); its sub-handshake falls back to a full handshake even though
  // the primary session resumes.
  rig.mbox_cache.clear();
  {
    ClientSession client(rig.client_opts(71));
    ServerSession server(rig.server_opts(72));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    EXPECT_TRUE(client.primary().resumed());
    EXPECT_FALSE(mbox.resumed());
    EXPECT_TRUE(mbox.joined());

    client.send(to_bytes(std::string_view("mixed-mode data")));
    chain.pump();
    EXPECT_EQ(to_string(server.take_app_data()), "mixed-mode data");
  }
}

TEST(MbtlsResumption, ResumptionIsCheaperEndToEnd) {
  // Sanity check on the performance claim: count bytes on the wire.
  ResumptionRig rig;
  auto run = [&](std::uint64_t seed) {
    ClientSession client(rig.client_opts(seed));
    ServerSession server(rig.server_opts(seed + 1));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    std::size_t wire_bytes = 0;
    client.start();
    for (int i = 0; i < 100; ++i) {
      bool moved = false;
      Bytes a = client.take_output();
      if (!a.empty()) {
        moved = true;
        wire_bytes += a.size();
        mbox.feed_from_client(a);
      }
      Bytes b = mbox.take_to_server();
      if (!b.empty()) {
        moved = true;
        server.feed(b);
      }
      Bytes c = server.take_output();
      if (!c.empty()) {
        moved = true;
        wire_bytes += c.size();
        mbox.feed_from_server(c);
      }
      Bytes d = mbox.take_to_client();
      if (!d.empty()) {
        moved = true;
        client.feed(d);
      }
      if (!moved) break;
    }
    EXPECT_TRUE(client.established());
    return wire_bytes;
  };
  const std::size_t full = run(81);
  const std::size_t resumed = run(91);
  EXPECT_LT(resumed, full / 2);  // no certificates, no key exchange
}

TEST(MbtlsResumption, EndpointTicketsCoexistWithMiddleboxes) {
  // The client and origin use RFC 5077 tickets end to end; the middlebox's
  // sub-handshake is keyed by session ID. On resumption the primary session
  // resumes by ticket (the echoed session ID is the client's random marker,
  // which the middlebox has never seen), so the middlebox falls back to a
  // full secondary handshake — a correct mixed-mode session.
  ResumptionRig rig;
  tls::TicketKeyManager ticket_keys("mb-ticket-key", 0);
  auto copts = [&](std::uint64_t seed) {
    auto o = rig.client_opts(seed);
    o.tls.enable_session_tickets = true;
    return o;
  };
  auto sopts = [&](std::uint64_t seed) {
    auto o = rig.server_opts(seed);
    o.tls.enable_session_tickets = true;
    o.tls.ticket_keys = &ticket_keys;
    return o;
  };
  {
    ClientSession client(copts(201));
    ServerSession server(sopts(202));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(mbox.joined());
  }
  {
    ClientSession client(copts(211));
    ServerSession server(sopts(212));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(server.established()) << server.error_message();
    EXPECT_TRUE(client.primary().resumed());   // by ticket
    EXPECT_TRUE(mbox.joined());                // full secondary handshake
    EXPECT_FALSE(mbox.resumed());

    client.send(to_bytes(std::string_view("ticketed through middlebox")));
    chain.pump();
    EXPECT_EQ(to_string(server.take_app_data()), "ticketed through middlebox");
  }
}

TEST(MbtlsResumption, OneClientCacheResumesEachOriginBehindOneMiddlebox) {
  // One client cache and one client-side middlebox in front of two origins.
  // Each origin's cache entry carries the secondary session run under that
  // origin's primary, so resuming a after dialing b offers the middlebox a's
  // sub-session, which is the one it cached under a's session ID.
  ResumptionRig rig;
  const auto b_id = make_identity("b.resume.example");
  ShardedSessionCache b_server_cache;
  const auto to_a = [&](std::uint64_t seed) {
    return connect(rig.client_opts(seed), rig.server_opts(seed + 1),
                   rig.mbox_opts(Middlebox::Side::kClientSide));
  };
  const auto to_b = [&](std::uint64_t seed) {
    auto copts = client_options("b.resume.example", seed);
    copts.tls.session_cache = &rig.client_cache;
    copts.tls.offer_resumption = true;
    auto sopts = server_options(b_id, seed + 1);
    sopts.tls.session_cache = &b_server_cache;
    return connect(std::move(copts), std::move(sopts),
                   rig.mbox_opts(Middlebox::Side::kClientSide));
  };

  const Outcome a1 = to_a(301);
  ASSERT_TRUE(a1.established) << a1.error;
  EXPECT_FALSE(a1.client_resumed);
  const Outcome b1 = to_b(311);
  ASSERT_TRUE(b1.established) << b1.error;
  EXPECT_FALSE(b1.client_resumed);
  for (const std::uint64_t seed : {321u, 331u}) {
    const Outcome a = to_a(seed);
    ASSERT_TRUE(a.established) << "seed " << seed << ": " << a.error;
    EXPECT_TRUE(a.client_resumed);
    EXPECT_TRUE(a.mbox_resumed);
  }
  const Outcome b2 = to_b(341);
  ASSERT_TRUE(b2.established) << b2.error;
  EXPECT_TRUE(b2.client_resumed);
  EXPECT_TRUE(b2.mbox_resumed);
}

TEST(MbtlsResumption, InterleavedSessionsOnOneCacheStoreWholeEntries) {
  // Two sessions X and Y to one origin share every cache. Both dial before
  // either completes; their handshakes then finish in the order X primary,
  // Y primary, Y secondary, X secondary. The client cache must then hold
  // one session's primary together with that same session's secondary,
  // whichever session it is, so the next dial resumes every sub-handshake.
  ResumptionRig rig;
  HeldPath x(rig.client_opts(501), rig.server_opts(502),
             rig.mbox_opts(Middlebox::Side::kClientSide));
  HeldPath y(rig.client_opts(511), rig.server_opts(512),
             rig.mbox_opts(Middlebox::Side::kClientSide));
  x.pump();
  ASSERT_TRUE(x.client.primary().handshake_done()) << x.client.error_message();
  ASSERT_FALSE(x.client.established());
  ASSERT_FALSE(x.held.empty());

  y.pump();
  ASSERT_TRUE(y.client.primary().handshake_done()) << y.client.error_message();
  ASSERT_FALSE(y.client.established());
  y.release();
  ASSERT_TRUE(y.client.established()) << y.client.error_message();

  x.release();
  ASSERT_TRUE(x.client.established()) << x.client.error_message();
  EXPECT_FALSE(x.client.primary().resumed());
  EXPECT_FALSE(y.client.primary().resumed());

  const Outcome next = connect(rig.client_opts(521), rig.server_opts(522),
                               rig.mbox_opts(Middlebox::Side::kClientSide));
  ASSERT_TRUE(next.established) << next.error;
  EXPECT_TRUE(next.client_resumed);
  EXPECT_TRUE(next.mbox_resumed);
}

TEST(MbtlsResumption, OneServerCacheResumesEachClientBehindServerSideMiddlebox) {
  // A server with one session cache behind a server-side middlebox; two
  // clients with caches of their own. The server's entry for each session
  // carries the secondary session it ran under that session, so client 1
  // resumes its own sub-session after client 2 dialed.
  ResumptionRig rig;
  ShardedSessionCache other_client_cache;
  const auto dial = [&](ShardedSessionCache& client_cache, std::uint64_t seed) {
    auto copts = rig.client_opts(seed);
    copts.tls.session_cache = &client_cache;
    return connect(std::move(copts), rig.server_opts(seed + 1),
                   rig.mbox_opts(Middlebox::Side::kServerSide));
  };

  const Outcome c1 = dial(rig.client_cache, 601);
  ASSERT_TRUE(c1.established) << c1.error;
  const Outcome c2 = dial(other_client_cache, 611);
  ASSERT_TRUE(c2.established) << c2.error;
  for (ShardedSessionCache* cache : {&rig.client_cache, &other_client_cache}) {
    const Outcome again = dial(*cache, cache == &rig.client_cache ? 621 : 631);
    ASSERT_TRUE(again.established) << again.error;
    EXPECT_TRUE(again.client_resumed);
    EXPECT_TRUE(again.mbox_resumed);
  }
}

}  // namespace
}  // namespace mbtls::mb
