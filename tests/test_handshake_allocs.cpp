// Heap allocations per handshake. Under ASan every allocation is expensive
// (redzones, quarantine), so an abbreviated handshake that allocates almost
// as much as a full one stops being several times cheaper; bench_churn's
// resumed >= 5x full floor then fails there first. This binary replaces the
// global operator new with a counting one and bounds what a client+server
// resumed handshake allocates, in-memory, with the churn bench's settings
// (ECDSA P-256 identity, certificate pool, session cache, rotating tickets).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "mbtls/cache.h"
#include "tests/tls_test_util.h"
#include "tls/ticket.h"

namespace {
std::atomic<long> g_allocations{0};
std::atomic<bool> g_counting{false};
}  // namespace

// GCC's -Wmismatched-new-delete cannot see that this operator new is
// malloc-backed when it inlines the matching delete into a caller.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) g_allocations.fetch_add(1);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace mbtls::tls {
namespace {

struct Fleet {
  testing::ServerIdentity id = testing::make_identity("allocs.example");
  mb::ShardedSessionCache sessions{{.shards = 16, .capacity_per_shard = 4096}};
  mb::CertPool certs{16};
  TicketKeyManager ticket_keys{"allocs-ticket-keys", 0};
};

struct Result {
  long allocations = 0;
  bool resumed = false;
};

/// One handshake, engines created and destroyed inside the counted region.
Result handshake(Fleet& fleet, SessionCache* client_cache, std::uint64_t seed) {
  Config ccfg;
  ccfg.is_client = true;
  ccfg.trust_anchors = {testing::test_ca().root()};
  ccfg.server_name = "allocs.example";
  ccfg.cert_pool = &fleet.certs;
  ccfg.rng_label = "allocs-client";
  ccfg.rng_seed = seed;
  if (client_cache) {
    ccfg.session_cache = client_cache;
    ccfg.offer_resumption = true;
    ccfg.enable_session_tickets = true;
  }
  Config scfg;
  scfg.is_client = false;
  scfg.private_key = fleet.id.key;
  scfg.certificate_chain = fleet.id.chain;
  scfg.session_cache = &fleet.sessions;
  scfg.enable_session_tickets = true;
  scfg.ticket_keys = &fleet.ticket_keys;
  scfg.rng_label = "allocs-server";
  scfg.rng_seed = seed + 1;

  Result r;
  g_allocations = 0;
  g_counting = true;
  {
    Engine client(std::move(ccfg));
    Engine server(std::move(scfg));
    client.start();
    testing::pump(client, server);
    EXPECT_TRUE(client.handshake_done()) << client.error_message();
    EXPECT_TRUE(server.handshake_done()) << server.error_message();
    r.resumed = client.resumed();
  }
  g_counting = false;
  r.allocations = g_allocations.load();
  return r;
}

// Before this bound the same handshake made 359 allocations (a full one
// 619). Keying HMAC once per PRF call into stack digests, caching the
// ticket AEAD and building the ClientHello without copies took it to 170
// (full: 409).
constexpr long kResumedAllocationBound = 250;

TEST(HandshakeAllocations, ResumedHandshakeStaysUnderBound) {
  Fleet fleet;
  mb::ShardedSessionCache client_cache;
  const Result full = handshake(fleet, &client_cache, 1);  // issues the ticket
  ASSERT_FALSE(full.resumed);
  handshake(fleet, &client_cache, 3);  // warm: lazily built state
  const Result resumed = handshake(fleet, &client_cache, 5);
  ASSERT_TRUE(resumed.resumed);
  RecordProperty("full_allocations", std::to_string(full.allocations));
  RecordProperty("resumed_allocations", std::to_string(resumed.allocations));
  EXPECT_LT(resumed.allocations, kResumedAllocationBound)
      << "full handshake: " << full.allocations;
  EXPECT_LT(resumed.allocations, full.allocations / 2);
}

}  // namespace
}  // namespace mbtls::tls
