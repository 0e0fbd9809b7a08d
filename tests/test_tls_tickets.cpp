// Ticket-based session resumption (RFC 5077 / paper §3.5), including
// enclave-sealed tickets — "only the enclave knows the key needed to
// decrypt the session ticket" — and the rotating TicketKeyManager the
// million-user control plane seals tickets with.
#include <gtest/gtest.h>

#include "crypto/backend.h"
#include "mbtls/cache.h"
#include "tests/tls_test_util.h"
#include "tls/ticket.h"

namespace mbtls::tls {
namespace {

using testing::make_identity;
using testing::pump;
using testing::test_ca;

struct TicketRig {
  testing::ServerIdentity id = make_identity("tickets.example");
  mb::ShardedSessionCache client_cache;
  TicketKeyManager ticket_keys{"ticket-key", 0};

  Config client_cfg(std::uint64_t seed) {
    Config cfg;
    cfg.is_client = true;
    cfg.trust_anchors = {test_ca().root()};
    cfg.server_name = "tickets.example";
    cfg.session_cache = &client_cache;
    cfg.offer_resumption = true;
    cfg.enable_session_tickets = true;
    cfg.rng_label = "tkt-client";
    cfg.rng_seed = seed;
    return cfg;
  }
  Config server_cfg(std::uint64_t seed) {
    Config cfg;
    cfg.is_client = false;
    cfg.private_key = id.key;
    cfg.certificate_chain = id.chain;
    cfg.enable_session_tickets = true;
    cfg.ticket_keys = &ticket_keys;
    cfg.rng_label = "tkt-server";
    cfg.rng_seed = seed;
    return cfg;
  }
};

TEST(TlsTickets, FullHandshakeIssuesTicketThenResumes) {
  TicketRig rig;
  // Connection 1: full handshake; the server issues a NewSessionTicket.
  {
    Engine client(rig.client_cfg(1));
    Engine server(rig.server_cfg(2));
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done()) << client.error_message();
    ASSERT_FALSE(client.resumed());
  }
  const auto cached = rig.client_cache.lookup_by_peer("tickets.example");
  ASSERT_TRUE(cached.has_value());
  ASSERT_FALSE(cached->ticket.empty());

  // Connection 2: the server holds NO session cache — the ticket alone
  // restores the session (that is the point of tickets).
  {
    Engine client(rig.client_cfg(11));
    Engine server(rig.server_cfg(12));
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done()) << client.error_message();
    ASSERT_TRUE(server.handshake_done()) << server.error_message();
    EXPECT_TRUE(client.resumed());
    EXPECT_TRUE(server.resumed());
    client.send(to_bytes(std::string_view("ticket data")));
    pump(client, server);
    EXPECT_EQ(mbtls::to_string(server.take_plaintext()), "ticket data");
  }
}

TEST(TlsTickets, WrongTicketKeyFallsBackToFullHandshake) {
  TicketRig rig;
  {
    Engine client(rig.client_cfg(21));
    Engine server(rig.server_cfg(22));
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done());
  }
  // A different server instance with a rotated ticket key cannot decrypt
  // the ticket; it must fall back to a full handshake (and issue a fresh
  // ticket under the new key).
  TicketKeyManager other_keys("rotated-key", 1);
  Config scfg = rig.server_cfg(32);
  scfg.ticket_keys = &other_keys;
  Engine client(rig.client_cfg(31));
  Engine server(scfg);
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done()) << client.error_message();
  EXPECT_FALSE(client.resumed());
  // The fresh ticket (under the rotated key) replaced the stale one.
  const auto cached = rig.client_cache.lookup_by_peer("tickets.example");
  ASSERT_TRUE(cached.has_value());
  EXPECT_FALSE(cached->ticket.empty());
}

TEST(TlsTickets, TamperedTicketRejectedGracefully) {
  TicketRig rig;
  {
    Engine client(rig.client_cfg(41));
    Engine server(rig.server_cfg(42));
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done());
  }
  // Corrupt the cached ticket.
  auto cached = rig.client_cache.lookup_by_peer("tickets.example");
  ASSERT_TRUE(cached.has_value());
  cached->ticket[cached->ticket.size() / 2] ^= 1;
  rig.client_cache.store_by_peer("tickets.example", *cached);

  Engine client(rig.client_cfg(51));
  Engine server(rig.server_cfg(52));
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done()) << client.error_message();
  EXPECT_FALSE(client.resumed());  // fell back to a full handshake
}

TEST(TlsTickets, EnclaveSealedTickets) {
  // An attested server seals tickets with its enclave sealing key: no
  // ticket key ever exists outside the enclave, and a different enclave
  // (other code, or another machine) cannot decrypt them.
  sgx::Platform platform;
  sgx::Enclave& enclave = platform.launch("ticket-server-v1");
  TicketRig rig;

  auto server_cfg = [&](std::uint64_t seed, sgx::Enclave* enc) {
    Config cfg = rig.server_cfg(seed);
    cfg.ticket_keys = nullptr;
    cfg.enclave = enc;
    return cfg;
  };
  {
    Engine client(rig.client_cfg(61));
    Engine server(server_cfg(62, &enclave));
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done()) << client.error_message();
  }
  const auto cached = rig.client_cache.lookup_by_peer("tickets.example");
  ASSERT_TRUE(cached && !cached->ticket.empty());
  // The platform adversary sees the ticket on the wire but cannot open it,
  // and neither can different enclave code.
  sgx::Enclave& other_code = platform.launch("ticket-server-v2");
  EXPECT_FALSE(other_code.unseal(cached->ticket).has_value());

  // The same enclave resumes.
  {
    Engine client(rig.client_cfg(71));
    Engine server(server_cfg(72, &enclave));
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done()) << client.error_message();
    EXPECT_TRUE(client.resumed());
  }
}

TEST(TlsTickets, TicketSessionsLeaveTheServerIdCacheEmpty) {
  // A ticket session resumes by its ticket, under a fresh random session-ID
  // marker each time: a server ID-cache entry for it would never hit.
  TicketRig rig;
  mb::ShardedSessionCache server_cache;
  const auto connect = [&](std::uint64_t seed) {
    Config scfg = rig.server_cfg(seed + 1);
    scfg.session_cache = &server_cache;
    Engine client(rig.client_cfg(seed));
    Engine server(scfg);
    client.start();
    pump(client, server);
    EXPECT_TRUE(client.handshake_done()) << client.error_message();
    EXPECT_TRUE(server.handshake_done()) << server.error_message();
    return client.resumed();
  };
  EXPECT_FALSE(connect(91));  // issues a ticket
  EXPECT_EQ(server_cache.size(), 0u);
  EXPECT_TRUE(connect(93));  // resumes by it
  EXPECT_EQ(server_cache.size(), 0u);
  EXPECT_EQ(server_cache.stats().stores, 0u);
}

TEST(TlsTickets, TicketStateCodecRoundTrip) {
  SessionState state;
  state.suite = CipherSuite::kEcdheRsaAes256GcmSha384;
  state.session_id = Bytes(32, 5);
  state.master_secret = Bytes(48, 6);
  const auto back = decode_ticket_state(encode_ticket_state(state));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->suite, state.suite);
  EXPECT_EQ(back->master_secret, state.master_secret);
  EXPECT_FALSE(decode_ticket_state(Bytes(3, 1)).has_value());
}

TEST(TlsTickets, SecondarySessionsStayOutOfTickets) {
  // An mbTLS endpoint's secondary sessions live only in its own cache entry:
  // the ticket the server seals carries the primary session alone.
  SessionState state;
  state.suite = CipherSuite::kEcdheEcdsaAes128GcmSha256;
  state.master_secret = Bytes(48, 6);
  state.secondaries.push_back({1, CipherSuite::kEcdheEcdsaAes128GcmSha256, Bytes(48, 7)});
  SessionState primary_only = state;
  primary_only.secondaries.clear();
  EXPECT_EQ(encode_ticket_state(state), encode_ticket_state(primary_only));
  const auto back = decode_ticket_state(encode_ticket_state(state));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->secondaries.empty());
}

TEST(TlsTickets, ServerWithoutTicketsIgnoresOffer) {
  TicketRig rig;
  Config scfg = rig.server_cfg(82);
  scfg.enable_session_tickets = false;
  Engine client(rig.client_cfg(81));  // offers empty ticket extension
  Engine server(scfg);
  client.start();
  pump(client, server);
  ASSERT_TRUE(client.handshake_done()) << client.error_message();
  EXPECT_FALSE(client.resumed());
  // No ticket issued: the cache entry (ID-based) has no ticket bytes.
  const auto cached = rig.client_cache.lookup_by_peer("tickets.example");
  ASSERT_TRUE(cached.has_value());
  EXPECT_TRUE(cached->ticket.empty());
}

// ------------------------------------------------- rotating ticket keys

/// Pin the crypto backend for a scope, restoring the resolved one after.
struct BackendGuard {
  explicit BackendGuard(crypto::Backend b) : saved_(crypto::active_backend()) {
    crypto::force_backend_for_testing(b);
  }
  ~BackendGuard() { crypto::force_backend_for_testing(saved_); }
  crypto::Backend saved_;
};

TEST(TicketKeyManager, RoundTripAcrossLengthsAndBackends) {
  // Property: seal then unseal is the identity for every plaintext length
  // from empty through multi-record, under every crypto backend (a width the
  // host lacks is clamped to a narrower one, which just re-runs that).
  for (const crypto::Backend backend :
       {crypto::Backend::kScalar, crypto::Backend::kAesni, crypto::Backend::kVaes}) {
    BackendGuard guard(backend);
    TicketKeyManager keys("prop-keys", 7);
    crypto::Drbg payload_rng("ticket-payloads", 7);
    for (const std::size_t len :
         {0u, 1u, 2u, 15u, 16u, 17u, 31u, 32u, 48u, 63u, 64u, 255u, 256u, 1000u, 4096u}) {
      const Bytes plain = payload_rng.bytes(len);
      const Bytes ticket = keys.seal(plain);
      EXPECT_EQ(ticket.size(), TicketKeyManager::kMinTicketLen + len);
      const auto opened = keys.unseal(ticket);
      ASSERT_TRUE(opened.has_value()) << "len=" << len;
      EXPECT_EQ(opened->plaintext, plain);
      EXPECT_FALSE(opened->stale);
    }
    const auto st = keys.stats();
    EXPECT_EQ(st.seals, 15u);
    EXPECT_EQ(st.unseal_current, 15u);
    EXPECT_EQ(st.rejects, 0u);
  }
}

TEST(TicketKeyManager, BackendsProduceInterchangeableTickets) {
  // AES-GCM is AES-GCM: a ticket sealed under one backend must unseal under
  // the other (same manager — the key schedule is backend-independent).
  TicketKeyManager keys("cross-keys", 9);
  const Bytes plain = crypto::Drbg("cross-payload", 9).bytes(120);
  Bytes sealed_scalar, sealed_accel;
  {
    BackendGuard guard(crypto::Backend::kScalar);
    sealed_scalar = keys.seal(plain);
  }
  {
    BackendGuard guard(crypto::Backend::kAesni);
    sealed_accel = keys.seal(plain);
    const auto opened = keys.unseal(sealed_scalar);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->plaintext, plain);
  }
  BackendGuard guard(crypto::Backend::kScalar);
  const auto opened = keys.unseal(sealed_accel);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->plaintext, plain);
}

TEST(TicketKeyManager, EveryBitFlipRejects) {
  TicketKeyManager keys("flip-keys", 11);
  const Bytes plain = crypto::Drbg("flip-payload", 11).bytes(40);
  const Bytes ticket = keys.seal(plain);
  for (std::size_t i = 0; i < ticket.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      Bytes bad = ticket;
      bad[i] ^= mask;
      // A flip in the key name looks like an unknown key; a flip anywhere
      // else fails GCM authentication. Either way: nullopt, never a throw.
      EXPECT_FALSE(keys.unseal(bad).has_value()) << "byte " << i;
    }
  }
  EXPECT_EQ(keys.stats().rejects, 2 * ticket.size());
}

TEST(TicketKeyManager, EveryTruncationRejects) {
  TicketKeyManager keys("trunc-keys", 13);
  const Bytes ticket = keys.seal(crypto::Drbg("trunc-payload", 13).bytes(64));
  for (std::size_t len = 0; len < ticket.size(); ++len) {
    const auto truncated = ByteView(ticket).first(len);
    EXPECT_FALSE(keys.unseal(truncated).has_value()) << "len=" << len;
  }
}

TEST(TicketKeyManager, RotationWindowIsExactlyTwoGenerations) {
  TicketKeyManager keys("rot-keys", 17);
  const Bytes plain = crypto::Drbg("rot-payload", 17).bytes(48);
  const Bytes ticket = keys.seal(plain);
  EXPECT_EQ(keys.generation(), 0u);

  keys.rotate();
  EXPECT_EQ(keys.generation(), 1u);
  const auto stale = keys.unseal(ticket);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->plaintext, plain);
  EXPECT_TRUE(stale->stale);  // caller should reissue

  keys.rotate();
  EXPECT_FALSE(keys.unseal(ticket).has_value());  // two rotations: gone

  const auto st = keys.stats();
  EXPECT_EQ(st.unseal_stale, 1u);
  EXPECT_EQ(st.rejects, 1u);
}

TEST(TicketKeyManager, DistinctManagersCannotOpenEachOthersTickets) {
  TicketKeyManager a("fleet-a", 1), b("fleet-b", 2);
  const Bytes ticket = a.seal(crypto::Drbg("xmgr", 3).bytes(32));
  EXPECT_FALSE(b.unseal(ticket).has_value());
  EXPECT_TRUE(a.unseal(ticket).has_value());
}

// ---------------------------------------- engine + rotating ticket keys

struct ManagedTicketRig {
  testing::ServerIdentity id = make_identity("rotate.example");
  mb::ShardedSessionCache client_cache;
  TicketKeyManager keys{"rig-ticket-keys", 0};

  Config client_cfg(std::uint64_t seed) {
    Config cfg;
    cfg.is_client = true;
    cfg.trust_anchors = {test_ca().root()};
    cfg.server_name = "rotate.example";
    cfg.session_cache = &client_cache;
    cfg.offer_resumption = true;
    cfg.enable_session_tickets = true;
    cfg.rng_label = "rot-client";
    cfg.rng_seed = seed;
    return cfg;
  }
  Config server_cfg(std::uint64_t seed) {
    Config cfg;
    cfg.is_client = false;
    cfg.private_key = id.key;
    cfg.certificate_chain = id.chain;
    cfg.enable_session_tickets = true;
    cfg.ticket_keys = &keys;
    cfg.rng_label = "rot-server";
    cfg.rng_seed = seed;
    return cfg;
  }
  /// One connection; returns whether it resumed.
  bool connect(std::uint64_t seed) {
    Engine client(client_cfg(seed));
    Engine server(server_cfg(seed + 1));
    client.start();
    pump(client, server);
    EXPECT_TRUE(client.handshake_done()) << client.error_message();
    EXPECT_TRUE(server.handshake_done()) << server.error_message();
    return client.handshake_done() && client.resumed();
  }
  Bytes cached_ticket() {
    const auto cached = client_cache.lookup_by_peer("rotate.example");
    return cached ? cached->ticket : Bytes{};
  }
};

TEST(TlsTickets, ManagerSealedTicketResumes) {
  ManagedTicketRig rig;
  EXPECT_FALSE(rig.connect(100));
  ASSERT_FALSE(rig.cached_ticket().empty());
  EXPECT_TRUE(rig.connect(110));
  EXPECT_GE(rig.keys.stats().unseal_current, 1u);
}

TEST(TlsTickets, ResumptionAcrossOneRotationReissuesFreshTicket) {
  ManagedTicketRig rig;
  EXPECT_FALSE(rig.connect(200));
  const Bytes gen0_ticket = rig.cached_ticket();
  ASSERT_FALSE(gen0_ticket.empty());

  // One rotation: the old ticket still unseals (previous key) but is stale,
  // so the abbreviated flight carries a fresh NewSessionTicket.
  rig.keys.rotate();
  EXPECT_TRUE(rig.connect(210));
  const Bytes gen1_ticket = rig.cached_ticket();
  ASSERT_FALSE(gen1_ticket.empty());
  EXPECT_NE(gen1_ticket, gen0_ticket);
  // The reissued ticket names the current key, not the retired one.
  EXPECT_FALSE(std::equal(gen1_ticket.begin(),
                          gen1_ticket.begin() + TicketKeyManager::kKeyNameLen,
                          gen0_ticket.begin()));
  EXPECT_GE(rig.keys.stats().unseal_stale, 1u);

  // A client that reconnects once per rotation window stays on the fast
  // path forever: rotate again, the gen-1 ticket is now previous-but-valid.
  rig.keys.rotate();
  EXPECT_TRUE(rig.connect(220));
}

TEST(TlsTickets, ResumptionWithoutRotationDoesNotReissue) {
  ManagedTicketRig rig;
  EXPECT_FALSE(rig.connect(300));
  const Bytes first = rig.cached_ticket();
  ASSERT_FALSE(first.empty());
  // Same key generation: the abbreviated handshake skips NewSessionTicket
  // and the client keeps (and re-uses) the ticket it already holds.
  EXPECT_TRUE(rig.connect(310));
  EXPECT_EQ(rig.cached_ticket(), first);
  EXPECT_TRUE(rig.connect(320));
}

TEST(TlsTickets, TwoRotationsFallBackToFullHandshakeCleanly) {
  ManagedTicketRig rig;
  EXPECT_FALSE(rig.connect(400));
  rig.keys.rotate();
  rig.keys.rotate();
  // The ticket's key is retired: full handshake, no abort, fresh ticket.
  EXPECT_FALSE(rig.connect(410));
  EXPECT_GE(rig.keys.stats().rejects, 1u);
  ASSERT_FALSE(rig.cached_ticket().empty());
  EXPECT_TRUE(rig.connect(420));  // the replacement ticket works
}

}  // namespace
}  // namespace mbtls::tls
