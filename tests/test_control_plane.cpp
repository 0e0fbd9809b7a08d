// Million-user control plane (DESIGN.md "Control plane"): the sharded
// session cache, the deduplicating certificate pool with its signature
// verdict memo, and the memoized attestation-quote verifier — unit
// semantics, bounds under a flood, engine integration, and a multi-thread
// hammer that drives every shard concurrently (the TSan stage of
// scripts/check.sh runs this file; the ASan stage exercises the
// wipe-on-evict path for use-after-free).
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "mbtls/cache.h"
#include "mbtls/transport.h"
#include "net/simulator.h"
#include "sgx/attestation.h"
#include "tests/tls_test_util.h"
#include "tls/ticket.h"
#include "x509/verify.h"

namespace mbtls::mb {
namespace {

using tls::testing::make_identity;
using tls::testing::pump;
using tls::testing::test_ca;

tls::SessionState state_with_id(std::uint8_t tag) {
  tls::SessionState s;
  s.session_id = Bytes(32, tag);
  s.master_secret = Bytes(48, static_cast<std::uint8_t>(tag ^ 0xff));
  return s;
}

/// Where the serial number's last content byte sits in a DER certificate
/// this library issued: right after the v3 version field [0] { INTEGER 2 }.
std::size_t serial_last_byte(ByteView der) {
  static constexpr std::uint8_t kVersionThenSerial[] = {0xa0, 0x03, 0x02, 0x01, 0x02, 0x02};
  const auto it = std::search(der.begin(), der.end(), std::begin(kVersionThenSerial),
                              std::end(kVersionThenSerial));
  EXPECT_NE(it, der.end());
  if (it == der.end()) return 0;
  const auto at = static_cast<std::size_t>(it - der.begin()) + sizeof(kVersionThenSerial);
  return at + der[at];  // the length byte, then that many content bytes
}

/// `n` distinct DER certificates that all parse: one issued certificate
/// with the last two bytes of its signature varied. Only the first one's
/// signature verifies; interning never checks signatures.
std::vector<Bytes> distinct_ders(std::size_t n) {
  const Bytes base = to_bytes(make_identity("flood.example").chain[0].der());
  std::vector<Bytes> ders;
  ders.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes der = base;
    der[der.size() - 1] ^= static_cast<std::uint8_t>(i);
    der[der.size() - 2] ^= static_cast<std::uint8_t>(i >> 8);
    ders.push_back(std::move(der));
  }
  return ders;
}

// ------------------------------------------------- ShardedSessionCache

TEST(ShardedSessionCache, StoreLookupByIdAndPeer) {
  ShardedSessionCache cache({.shards = 4, .capacity_per_shard = 8});
  EXPECT_EQ(cache.shard_count(), 4u);

  const auto s1 = state_with_id(1);
  cache.store_by_id(s1);
  cache.store_by_peer("origin-a.example", s1);

  const auto by_id = cache.lookup_by_id(s1.session_id);
  ASSERT_TRUE(by_id.has_value());
  EXPECT_EQ(by_id->master_secret, s1.master_secret);
  const auto by_peer = cache.lookup_by_peer("origin-a.example");
  ASSERT_TRUE(by_peer.has_value());
  EXPECT_EQ(by_peer->master_secret, s1.master_secret);

  EXPECT_FALSE(cache.lookup_by_id(Bytes(32, 99)).has_value());
  EXPECT_FALSE(cache.lookup_by_peer("unknown.example").has_value());
  EXPECT_EQ(cache.size(), 2u);  // one per index

  const auto st = cache.stats();
  EXPECT_EQ(st.stores, 2u);
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_DOUBLE_EQ(st.hit_rate(), 0.5);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedSessionCache, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedSessionCache({.shards = 5}).shard_count(), 8u);
  EXPECT_EQ(ShardedSessionCache({.shards = 0}).shard_count(), 1u);
  EXPECT_EQ(ShardedSessionCache({.shards = 16}).shard_count(), 16u);
}

TEST(ShardedSessionCache, LruEvictionInSingleShard) {
  // One shard of capacity two makes LRU order observable.
  ShardedSessionCache cache({.shards = 1, .capacity_per_shard = 2});
  const auto a = state_with_id(1), b = state_with_id(2), c = state_with_id(3);
  cache.store_by_id(a);
  cache.store_by_id(b);
  // Touch a: it becomes most-recent, so inserting c evicts b.
  ASSERT_TRUE(cache.lookup_by_id(a.session_id).has_value());
  cache.store_by_id(c);
  EXPECT_TRUE(cache.lookup_by_id(a.session_id).has_value());
  EXPECT_FALSE(cache.lookup_by_id(b.session_id).has_value());
  EXPECT_TRUE(cache.lookup_by_id(c.session_id).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedSessionCache, OverwriteInPlaceDoesNotGrowOrEvict) {
  ShardedSessionCache cache({.shards = 1, .capacity_per_shard = 2});
  auto a = state_with_id(1);
  cache.store_by_id(a);
  a.master_secret = Bytes(48, 0xab);
  cache.store_by_id(a);  // same session ID: replace, not insert
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  const auto got = cache.lookup_by_id(a.session_id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->master_secret, Bytes(48, 0xab));
}

TEST(ShardedSessionCache, EveryFieldRoundTrips) {
  // The compact entry keeps only the by-ID key inline; everything else a
  // SessionState carries must still come back from both indexes.
  ShardedSessionCache cache({.shards = 2, .capacity_per_shard = 8});
  tls::SessionState s = state_with_id(5);
  s.suite = tls::CipherSuite::kEcdheEcdsaAes256GcmSha384;
  s.ticket = Bytes(100, 0x11);
  cache.store_by_id(s);
  cache.store_by_peer("peer.example", s);
  for (const auto& got : {cache.lookup_by_id(s.session_id), cache.lookup_by_peer("peer.example")}) {
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->session_id, s.session_id);
    EXPECT_EQ(got->suite, s.suite);
    EXPECT_EQ(got->master_secret, s.master_secret);
    EXPECT_EQ(got->ticket, s.ticket);
  }

  // A master secret longer than the inline slot still round-trips, and an
  // overwrite with a plain entry drops the old extra fields.
  s.master_secret = Bytes(64, 0x22);
  cache.store_by_id(s);
  EXPECT_EQ(cache.lookup_by_id(s.session_id)->master_secret, Bytes(64, 0x22));
  const tls::SessionState plain = state_with_id(5);
  cache.store_by_id(plain);
  const auto got = cache.lookup_by_id(plain.session_id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->master_secret, plain.master_secret);
  EXPECT_TRUE(got->ticket.empty());

  // Longer than any TLS session ID: never stored, never found.
  tls::SessionState long_id = state_with_id(6);
  long_id.session_id = Bytes(33, 6);
  cache.store_by_id(long_id);
  EXPECT_FALSE(cache.lookup_by_id(long_id.session_id).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedSessionCache, EntryIsOneCompactHeapNode) {
#if defined(MBTLS_SANITIZER_BUILD)
  GTEST_SKIP() << "sanitizer allocators bypass mallinfo2";
#else
  // Server and middlebox caches hold one entry per full handshake: a
  // 32-byte session ID and a 48-byte master secret. One heap node each.
  constexpr std::size_t kEntries = 4096;
  crypto::Drbg rng("compact-entry", 0);
  std::vector<tls::SessionState> states(kEntries);
  for (auto& s : states) {
    s.session_id = rng.bytes(32);
    s.master_secret = rng.bytes(48);
  }
  ShardedSessionCache cache({.shards = 1, .capacity_per_shard = kEntries});
  const std::size_t before = mallinfo2().uordblks;
  for (const auto& s : states) cache.store_by_id(s);
  const std::size_t after = mallinfo2().uordblks;
  ASSERT_EQ(cache.size(), kEntries);
  const double per_entry = static_cast<double>(after - before) / kEntries;
  RecordProperty("heap_bytes_per_entry", std::to_string(per_entry));
  EXPECT_LE(per_entry, 192.0) << "heap bytes per cached session";
#endif
}

TEST(ShardedSessionCache, EvictionChurnUnderTightCapacity) {
  // Push far more sessions than fit; every eviction runs the wiping
  // destructor path (the ASan job verifies no use-after-free in it) and
  // the cache never exceeds its configured bound.
  ShardedSessionCache cache({.shards = 2, .capacity_per_shard = 4});
  crypto::Drbg rng("evict-churn", 0);
  for (int i = 0; i < 256; ++i) {
    tls::SessionState s;
    s.session_id = rng.bytes(32);
    s.master_secret = rng.bytes(48);
    cache.store_by_id(s);
    EXPECT_LE(cache.size(), 2u * 4u);
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.stores, 256u);
  EXPECT_GE(st.evictions, 256u - 8u);
}

TEST(ShardedSessionCache, EngineResumesThroughPolymorphicCache) {
  // The engine consults Config::session_cache through the virtual
  // interface; a ShardedSessionCache drops in for the server side.
  const auto id = make_identity("ctrl.example");
  ShardedSessionCache server_cache({.shards = 8, .capacity_per_shard = 64});
  ShardedSessionCache client_cache;

  auto connect = [&](std::uint64_t seed) {
    tls::Config ccfg;
    ccfg.is_client = true;
    ccfg.trust_anchors = {test_ca().root()};
    ccfg.server_name = "ctrl.example";
    ccfg.session_cache = &client_cache;
    ccfg.offer_resumption = true;
    ccfg.rng_seed = seed;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = id.key;
    scfg.certificate_chain = id.chain;
    scfg.session_cache = &server_cache;
    scfg.rng_seed = seed + 1;
    tls::Engine client(ccfg);
    tls::Engine server(scfg);
    client.start();
    pump(client, server);
    EXPECT_TRUE(client.handshake_done()) << client.error_message();
    return client.handshake_done() && client.resumed();
  };

  EXPECT_FALSE(connect(1));
  EXPECT_GT(server_cache.size(), 0u);
  EXPECT_TRUE(connect(11));
  EXPECT_GE(server_cache.stats().hits, 1u);
}

// ---------------------------------------------------------------- CertPool

TEST(CertPool, InternDeduplicatesByDer) {
  CertPool pool(4);
  const auto id_a = make_identity("pool-a.example");
  const auto id_b = make_identity("pool-b.example");
  const Bytes der_a = to_bytes(id_a.chain[0].der());
  const Bytes der_b = to_bytes(id_b.chain[0].der());

  const auto first = pool.intern(der_a);
  const auto again = pool.intern(der_a);
  EXPECT_EQ(first.get(), again.get());  // the same parse, refcounted
  EXPECT_EQ(pool.size(), 1u);

  const auto other = pool.intern(der_b);
  EXPECT_NE(first.get(), other.get());
  EXPECT_EQ(pool.size(), 2u);

  const auto st = pool.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(first->info().subject_cn, "pool-a.example");
}

TEST(CertPool, PurgeUnusedDropsOnlyUnreferencedEntries) {
  CertPool pool(2);
  const auto id_a = make_identity("purge-a.example");
  const auto id_b = make_identity("purge-b.example");
  auto held = pool.intern(id_a.chain[0].der());
  pool.intern(id_b.chain[0].der());  // returned pointer dropped immediately
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.purge_unused(), 1u);  // only the unreferenced one dies
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(held->info().subject_cn, "purge-a.example");
  held.reset();
  EXPECT_EQ(pool.purge_unused(), 1u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(CertPool, GarbageDerThrowsLikeParse) {
  CertPool pool(1);
  EXPECT_THROW(pool.intern(Bytes{0xde, 0xad, 0xbe, 0xef}), DecodeError);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(CertPool, EngineHandshakesShareOneParse) {
  // Two sequential full handshakes against the same origin: the second
  // server Certificate message hits the pool instead of re-parsing.
  const auto id = make_identity("share.example");
  CertPool pool(4);

  auto connect = [&](std::uint64_t seed) {
    tls::Config ccfg;
    ccfg.is_client = true;
    ccfg.trust_anchors = {test_ca().root()};
    ccfg.server_name = "share.example";
    ccfg.cert_pool = &pool;
    ccfg.rng_seed = seed;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = id.key;
    scfg.certificate_chain = id.chain;
    scfg.rng_seed = seed + 1;
    tls::Engine client(ccfg);
    tls::Engine server(scfg);
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done()) << client.error_message();
  };

  connect(21);
  connect(31);
  EXPECT_EQ(pool.size(), 1u);  // one distinct certificate in the fleet
  const auto st = pool.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_GE(st.hits, 1u);
}

TEST(CertPool, SecondHandshakeHitsTheVerdictMemo) {
  // The first full handshake verifies the leaf under the anchor once; the
  // second one through the same pool finds the verdict and runs no ECDSA.
  const auto id = make_identity("memo.example");
  CertPool pool(4);
  auto connect = [&](std::uint64_t seed) {
    tls::Config ccfg;
    ccfg.is_client = true;
    ccfg.trust_anchors = {test_ca().root()};
    ccfg.server_name = "memo.example";
    ccfg.cert_pool = &pool;
    ccfg.rng_seed = seed;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = id.key;
    scfg.certificate_chain = id.chain;
    scfg.rng_seed = seed + 1;
    tls::Engine client(ccfg);
    tls::Engine server(scfg);
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done()) << client.error_message();
  };

  connect(41);
  const auto first = pool.verdict_stats();
  EXPECT_EQ(first.misses, 1u);
  EXPECT_EQ(first.hits, 0u);
  connect(51);
  const auto second = pool.verdict_stats();
  EXPECT_EQ(second.misses, first.misses);  // no new signature check
  EXPECT_EQ(second.hits, 1u);
  EXPECT_EQ(pool.verdict_count(), 1u);
  // Interning keeps its own counters: verdicts do not move the hit rate.
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(CertPool, MemoizedChainRejectsWhatUncachedRejects) {
  // Differential: with the genuine chain's verdicts already cached, every
  // broken variant gets the same status through the pool's check as
  // through a plain verify_chain — only pure signature verdicts are cached.
  CertPool pool(4);
  const x509::SignatureCheck memo = [&pool](const x509::Certificate& cert,
                                            const x509::PublicKey& issuer_key) {
    return pool.verify_signature(cert, issuer_key);
  };
  auto& rng = tls::testing::shared_rng();
  const auto& ca = test_ca();
  const x509::Certificate anchors[] = {ca.root()};
  const auto key = x509::PrivateKey::generate(x509::KeyType::kEcdsaP256, rng);
  auto request = [&](const std::string& cn, bool is_ca) {
    x509::CertRequest req;
    req.subject_cn = cn;
    req.san_dns = {cn};
    req.not_before = 1000000000;
    req.not_after = 2000000000;
    req.is_ca = is_ca;
    req.key = key.public_key();
    return req;
  };
  const x509::Certificate leaf = ca.issue(request("memo.example", false), rng);
  const x509::Certificate not_a_ca = ca.issue(request("Not A CA", false), rng);
  const x509::Certificate under_non_ca = x509::issue_certificate(
      request("under.example", false), "Not A CA", key, crypto::HashAlgo::kSha256,
      bn::BigInt(77), rng);
  crypto::Drbg impostor_rng("memo-impostor", 0);
  const auto impostor = x509::CertificateAuthority::create(ca.name(), x509::KeyType::kEcdsaP256,
                                                          impostor_rng);
  const x509::Certificate impostor_anchors[] = {impostor.root()};

  Bytes tbs_der = to_bytes(leaf.der());
  tbs_der[serial_last_byte(tbs_der)] ^= 0x01;
  const x509::Certificate tampered_tbs = x509::Certificate::parse(tbs_der);
  Bytes sig_der = to_bytes(leaf.der());
  sig_der.back() ^= 0x01;
  const x509::Certificate tampered_sig = x509::Certificate::parse(sig_der);

  const x509::VerifyOptions ok_opts{.now = 1500000000, .hostname = "memo.example"};
  const x509::Certificate genuine[] = {leaf};
  ASSERT_EQ(x509::verify_chain(genuine, anchors, ok_opts, memo), x509::VerifyStatus::kOk);
  ASSERT_EQ(x509::verify_chain(genuine, anchors, ok_opts, memo), x509::VerifyStatus::kOk);
  // The non-CA issuer really did sign its leaf: a cached true verdict.
  ASSERT_TRUE(pool.verify_signature(under_non_ca, not_a_ca.info().key));
  const auto warmed = pool.verdict_stats();
  EXPECT_EQ(warmed.misses, 2u);
  EXPECT_EQ(warmed.hits, 1u);

  struct Case {
    const char* name;
    std::vector<x509::Certificate> chain;
    std::span<const x509::Certificate> anchors;
    x509::VerifyOptions opts;
    x509::VerifyStatus want;
  };
  const x509::VerifyOptions any_host{.now = 1500000000, .hostname = ""};
  const Case cases[] = {
      {"tampered TBS", {tampered_tbs}, anchors, any_host, x509::VerifyStatus::kBadSignature},
      {"tampered signature", {tampered_sig}, anchors, any_host, x509::VerifyStatus::kBadSignature},
      {"wrong issuer key", {leaf}, impostor_anchors, ok_opts, x509::VerifyStatus::kBadSignature},
      {"expired", {leaf}, anchors, {.now = 2000000001, .hostname = "memo.example"},
       x509::VerifyStatus::kExpired},
      {"not yet valid", {leaf}, anchors, {.now = 999999999, .hostname = "memo.example"},
       x509::VerifyStatus::kNotYetValid},
      {"hostname mismatch", {leaf}, anchors, {.now = 1500000000, .hostname = "other.example"},
       x509::VerifyStatus::kHostnameMismatch},
      {"non-CA issuer", {under_non_ca, not_a_ca}, anchors, any_host,
       x509::VerifyStatus::kIssuerNotCa},
  };
  for (const auto& c : cases) {
    const auto uncached = x509::verify_chain(c.chain, c.anchors, c.opts);
    EXPECT_EQ(uncached, c.want) << c.name;
    EXPECT_EQ(x509::verify_chain(c.chain, c.anchors, c.opts, memo), uncached) << c.name;
    // A second, now cached, pass still agrees.
    EXPECT_EQ(x509::verify_chain(c.chain, c.anchors, c.opts, memo), uncached) << c.name;
  }
}

TEST(CertPool, FloodStaysWithinCapacity) {
  // A peer sending 10k distinct certificates cannot grow the pool past its
  // bound; a certificate evicted while a session still holds it stays valid.
  CertPool pool(2);
  const auto ders = distinct_ders(10'000);
  ASSERT_GT(ders.size(), 2 * CertPool::kCapacityPerShard);
  const auto held = pool.intern(ders[0]);
  for (const auto& der : ders) pool.intern(der);
  EXPECT_LE(pool.size(), 2 * CertPool::kCapacityPerShard);
  const auto st = pool.stats();
  EXPECT_EQ(st.misses, ders.size());
  EXPECT_EQ(st.evictions, ders.size() - pool.size());
  EXPECT_EQ(held->der().size(), ders[0].size());
  EXPECT_EQ(held->info().subject_cn, "flood.example");
  EXPECT_NE(pool.intern(ders[0]).get(), held.get());  // evicted: a fresh parse
}

TEST(CertPool, VerdictFloodStaysWithinCapacity) {
  // Each distinct certificate costs one signature check and one bounded
  // memo slot; the false verdicts of the forged ones are cached too.
  CertPool pool(1);
  const auto ders = distinct_ders(2 * CertPool::kCapacityPerShard);
  const auto& issuer_key = test_ca().root().info().key;
  for (const auto& der : ders) {
    const auto cert = pool.intern(der);
    EXPECT_EQ(pool.verify_signature(*cert, issuer_key), &der == &ders[0]);
  }
  EXPECT_LE(pool.verdict_count(), CertPool::kCapacityPerShard);
  const auto st = pool.verdict_stats();
  EXPECT_EQ(st.misses, ders.size());
  EXPECT_EQ(st.evictions, ders.size() - pool.verdict_count());
}

// ------------------------------------------------------- QuoteVerifyCache

TEST(QuoteVerifyCache, MemoizesBothVerdicts) {
  QuoteVerifyCache cache(4);
  const Bytes meas = crypto::Drbg("quote-meas", 1).bytes(32);
  const Bytes report(64, 0x42);
  const Bytes sig = sgx::attestation_service_sign(meas, report);

  EXPECT_TRUE(cache.verify(meas, report, sig));   // miss: real ECDSA verify
  EXPECT_TRUE(cache.verify(meas, report, sig));   // hit
  EXPECT_TRUE(cache.verify(meas, report, sig));   // hit
  Bytes bad_sig = sig;
  bad_sig[8] ^= 1;
  EXPECT_FALSE(cache.verify(meas, report, bad_sig));  // miss, cached false
  EXPECT_FALSE(cache.verify(meas, report, bad_sig));  // hit, still false
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QuoteVerifyCache, DistinctReportDataAreDistinctEntries) {
  // The verdict depends on all three inputs: the same measurement with
  // different report data (e.g. a different channel binding) must not
  // share a cache entry.
  QuoteVerifyCache cache(2);
  const Bytes meas = crypto::Drbg("quote-meas2", 2).bytes(32);
  const Bytes r1(64, 1), r2(64, 2);
  EXPECT_TRUE(cache.verify(meas, r1, sgx::attestation_service_sign(meas, r1)));
  EXPECT_TRUE(cache.verify(meas, r2, sgx::attestation_service_sign(meas, r2)));
  // A signature over r1 presented with r2 is a replay and must fail even
  // though (meas, r1, sig) verified fine a moment ago.
  EXPECT_FALSE(cache.verify(meas, r2, sgx::attestation_service_sign(meas, r1)));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(QuoteVerifyCache, FloodStaysWithinCapacity) {
  // 10k distinct garbage quotes: each is one cached false verdict, and the
  // cache never holds more than its bound.
  // One measurement puts every quote in one shard.
  QuoteVerifyCache cache(4);
  const Bytes meas = crypto::Drbg("quote-flood", 4).bytes(32);
  const Bytes garbage_sig(8, 0);
  crypto::Drbg rng("quote-flood-rd", 5);
  for (int i = 0; i < 10'000; ++i) EXPECT_FALSE(cache.verify(meas, rng.bytes(64), garbage_sig));
  EXPECT_LE(cache.size(), QuoteVerifyCache::kCapacityPerShard);
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 10'000u);
  EXPECT_EQ(st.evictions, 10'000u - cache.size());
}

// ------------------------------------------------------ thread shard hammer

TEST(ControlPlaneConcurrency, ThreadsHammerEveryShard) {
  // Every thread slams all three caches (the certificate pool's interning
  // and its verdict memo) plus the rotating ticket keys at once while the
  // main thread rotates mid-flight — the TSan preset build of this test is
  // the data-race proof for the control plane's locking.
  ShardedSessionCache sessions({.shards = 8, .capacity_per_shard = 16});
  CertPool certs(8);
  QuoteVerifyCache quotes(8);
  tls::TicketKeyManager keys("hammer-keys", 0);

  // A small set of identities so threads collide on the same pool entries.
  std::vector<Bytes> ders;
  for (int i = 0; i < 4; ++i)
    ders.push_back(to_bytes(make_identity("hammer" + std::to_string(i) + ".example").chain[0].der()));
  const Bytes meas = crypto::Drbg("hammer-meas", 3).bytes(32);
  const Bytes report(64, 7);
  const Bytes sig = sgx::attestation_service_sign(meas, report);

  const auto run_job = [&](int job) {
    crypto::Drbg rng("hammer-job", static_cast<std::uint64_t>(job));
    tls::SessionState s;
    s.session_id = rng.bytes(32);
    s.master_secret = rng.bytes(48);
    sessions.store_by_id(s);
    if (!sessions.lookup_by_id(s.session_id).has_value() && sessions.stats().evictions == 0) {
      return false;  // only eviction may lose a fresh store
    }
    const auto cert = certs.intern(ders[static_cast<std::size_t>(job) % ders.size()]);
    if (!cert) return false;
    if (!certs.verify_signature(*cert, test_ca().root().info().key)) return false;
    if (!quotes.verify(meas, report, sig)) return false;
    // Rotations race against this seal/unseal pair: one rotation in
    // between is the stale-but-valid case; a reject means two rotations
    // landed inside the window, so reseal under the new current key.
    for (int attempt = 0; attempt < 5; ++attempt) {
      const Bytes ticket = keys.seal(s.master_secret);
      const auto opened = keys.unseal(ticket);
      if (opened.has_value() && opened->plaintext == s.master_secret) return true;
    }
    return false;
  };

  const int threads = static_cast<int>(
      std::max<unsigned>(2, std::min<unsigned>(4, std::thread::hardware_concurrency())));
  constexpr int kJobs = 512;
  std::atomic<int> ok{0};
  std::atomic<int> done{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      // Strided slice: thread t runs jobs t, t + threads, t + 2 * threads...
      for (int job = t; job < kJobs; job += threads) {
        if (run_job(job)) ok.fetch_add(1, std::memory_order_relaxed);
        done.fetch_add(1, std::memory_order_release);
      }
    });
  }
  // One rotation after each quarter of the jobs, racing the threads' seals.
  for (int quarter = 1; quarter < 4; ++quarter) {
    while (done.load(std::memory_order_acquire) < quarter * kJobs / 4) std::this_thread::yield();
    keys.rotate();
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(ok.load(), kJobs);
  EXPECT_EQ(certs.size(), ders.size());
  EXPECT_GE(certs.stats().hits, static_cast<std::uint64_t>(kJobs) - ders.size());
  EXPECT_EQ(certs.verdict_count(), ders.size());
  const auto verdicts = certs.verdict_stats();
  EXPECT_EQ(verdicts.hits + verdicts.misses, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(quotes.size(), 1u);
  EXPECT_LE(sessions.size(), 8u * 16u);
}

TEST(ControlPlaneConcurrency, SessionEntriesStayWholeUnderConcurrentStores) {
  // An mbTLS endpoint caches its primary session with every secondary
  // session inside it, as one entry. Writers store entries tagged with
  // their own id under a few shared origins and session IDs while readers
  // look them up: each entry read back must be one writer's whole entry,
  // never one writer's primary next to another writer's secondaries.
  ShardedSessionCache sessions({.shards = 2, .capacity_per_shard = 4});
  const std::vector<std::string> origins = {"a.example", "b.example", "c.example"};
  const auto id_of = [](std::size_t origin) {
    return Bytes(32, static_cast<std::uint8_t>(0xa0 + origin));
  };
  const auto entry = [&](std::size_t origin, std::uint8_t tag) {
    tls::SessionState s;
    s.session_id = id_of(origin);
    s.suite = tls::CipherSuite::kEcdheEcdsaAes128GcmSha256;
    s.master_secret = Bytes(48, tag);
    s.ticket = Bytes(8, tag);
    for (const std::uint8_t sub : {1, 2})
      s.secondaries.push_back({sub, tls::CipherSuite::kEcdheEcdsaAes128GcmSha256, Bytes(48, tag)});
    return s;
  };
  const auto whole = [](const tls::SessionState& s) {
    if (s.master_secret.size() != 48 || s.secondaries.size() != 2) return false;
    const std::uint8_t tag = s.master_secret[0];
    const auto all_tag = [tag](const Bytes& b) {
      return std::all_of(b.begin(), b.end(), [tag](std::uint8_t v) { return v == tag; });
    };
    if (!all_tag(s.master_secret) || !all_tag(s.ticket)) return false;
    for (std::size_t i = 0; i < s.secondaries.size(); ++i) {
      const auto& sec = s.secondaries[i];
      if (sec.subchannel != i + 1 || sec.master_secret.size() != 48 ||
          !all_tag(sec.master_secret)) {
        return false;
      }
    }
    return true;
  };

  constexpr int kWriters = 2, kReaders = 2, kRounds = 2000;
  std::atomic<int> broken{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> pool;
  for (int w = 0; w < kWriters; ++w) {
    pool.emplace_back([&, w] {
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t origin = static_cast<std::size_t>(i) % origins.size();
        const auto s = entry(origin, static_cast<std::uint8_t>(w + 1));
        sessions.store_by_peer(origins[origin], s);
        sessions.store_by_id(s);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    pool.emplace_back([&, r] {
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t origin = static_cast<std::size_t>(i + r) % origins.size();
        for (const auto& got :
             {sessions.lookup_by_peer(origins[origin]), sessions.lookup_by_id(id_of(origin))}) {
          if (!got) continue;
          reads.fetch_add(1, std::memory_order_relaxed);
          if (!whole(*got)) broken.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(broken.load(), 0);
  // After the writers are done every origin holds one whole entry.
  for (std::size_t origin = 0; origin < origins.size(); ++origin) {
    const auto by_peer = sessions.lookup_by_peer(origins[origin]);
    const auto by_id = sessions.lookup_by_id(id_of(origin));
    ASSERT_TRUE(by_peer && by_id);
    EXPECT_TRUE(whole(*by_peer));
    EXPECT_TRUE(whole(*by_id));
  }
  RecordProperty("entries_read", std::to_string(reads.load()));
}

// ---------------------------------------------------------------------------
// TicketRotator: scheduler-driven rotation (ROADMAP "rotation driven by the
// timer wheel"). Virtual time on the simulator makes the two-generation
// acceptance window exactly checkable without wall-clock sleeps; on the
// posix backend the same rotator arms timer-wheel slots instead.

TEST(TicketRotator, PeriodicRotationAdvancesGenerationsOnVirtualTime) {
  net::Simulator sim;
  tls::TicketKeyManager keys("rotator-test", 1);
  TicketRotator rotator(sim, keys, 10 * net::kSecond);
  const Bytes gen0_ticket = keys.seal(to_bytes(std::string_view("state-gen0")));

  sim.run_until(15 * net::kSecond);  // first timer fired at t=10s
  EXPECT_EQ(rotator.rotations(), 1u);
  EXPECT_EQ(keys.generation(), 1u);
  // One rotation old: still accepted, but flagged stale so the server
  // reissues under the current key.
  const auto stale = keys.unseal(gen0_ticket);
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(stale->stale);
  EXPECT_EQ(to_string(stale->plaintext), "state-gen0");

  sim.run_until(25 * net::kSecond);  // second timer fired at t=20s
  EXPECT_EQ(rotator.rotations(), 2u);
  EXPECT_EQ(keys.generation(), 2u);
  // Two rotations old: outside the acceptance window, clean reject.
  EXPECT_FALSE(keys.unseal(gen0_ticket).has_value());
}

TEST(TicketRotator, ZeroIntervalArmsNothing) {
  net::Simulator sim;
  tls::TicketKeyManager keys("rotator-test", 2);
  TicketRotator rotator(sim, keys, 0);
  EXPECT_EQ(sim.run(), net::RunStatus::kDrained);
  EXPECT_EQ(keys.generation(), 0u);
  EXPECT_EQ(rotator.rotations(), 0u);
}

TEST(TicketRotator, DestroyedRotatorLeavesArmedTimerInert) {
  net::Simulator sim;
  tls::TicketKeyManager keys("rotator-test", 3);
  { TicketRotator rotator(sim, keys, net::kSecond); }  // armed, then destroyed
  // The weak liveness token expired: the timer fires as a no-op and the
  // queue drains instead of rearming forever.
  EXPECT_EQ(sim.run(), net::RunStatus::kDrained);
  EXPECT_EQ(keys.generation(), 0u);
}

}  // namespace
}  // namespace mbtls::mb
