// Million-user control plane: the shared, bounded, thread-safe caches that
// amortize per-session control-plane work across a fleet of sessions (see
// DESIGN.md "Control plane").
//
//  * ShardedSessionCache — the resumption cache behind the
//    tls::SessionCache hook the engine consults, striped over N
//    mutex-guarded LRU shards: concurrent loops touch disjoint shards and
//    never contend on one global lock, and eviction wipes the dead entry's
//    master secrets before the memory returns to the allocator. An mbTLS
//    session is one entry, its secondary sessions inside it.
//  * CertPool — a deduplicating pool of parsed certificates keyed by the
//    SHA-256 of the DER. A fleet of sessions to the same 500 origins parses
//    each distinct certificate once; every other handshake gets a
//    refcounted pointer to the shared parse. It also memoizes certificate
//    signature verdicts, so a repeat peer's chain costs no ECDSA.
//  * QuoteVerifyCache — memoized sgx::verify_quote keyed by measurement
//    (Knauth et al.: attestation evidence is reused across connections, so
//    its ECDSA verification is a per-quote cost, not a per-handshake one).
//
// Every cache is bounded per shard and evicts its least recently used
// entry, so no peer can grow one without limit.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tls/engine.h"
#include "tls/session.h"
#include "x509/certificate.h"

namespace mbtls::mb {

/// Counters every control-plane cache exposes. Snapshot semantics: values
/// are read individually from relaxed atomics; totals may be mid-update
/// with respect to each other, which is fine for metrics.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Sharded, bounded, thread-safe session cache (drop-in for the engine's
/// Config::session_cache). Session IDs are uniform random 32-byte strings,
/// so a cheap FNV prefix hash spreads them evenly over shards.
///
/// Each entry is one heap node: the key is held once, a TLS session ID
/// (at most 32 bytes) and a 48-byte master secret sit inline, and only the
/// rarely set fields (a peer entry's session ID, mbTLS key material, a
/// ticket, an endpoint's secondary sessions) take a second allocation. Session IDs longer than 32 bytes are
/// not TLS session IDs and are never stored.
class ShardedSessionCache : public tls::SessionCache {
 public:
  struct Options {
    std::size_t shards = 16;             // rounded up to a power of two
    std::size_t capacity_per_shard = 4096;  // LRU-evicted beyond this
  };

  ShardedSessionCache();
  explicit ShardedSessionCache(Options options);
  ~ShardedSessionCache() override;

  void store_by_id(const tls::SessionState& state) override;
  std::optional<tls::SessionState> lookup_by_id(ByteView session_id) const override;
  void store_by_peer(const std::string& peer, const tls::SessionState& state) override;
  std::optional<tls::SessionState> lookup_by_peer(const std::string& peer) const override;

  void clear();
  std::size_t size() const;

  std::size_t shard_count() const { return shards_.size(); }
  CacheStats stats() const;

  /// Per-shard by-id entry counts — how evenly FNV sharding spread the
  /// fleet's sessions. Multi-loop deployments report this next to the
  /// per-loop accept balance (bench_c10k --loops) to show neither layer of
  /// sharding collapsed onto one stripe.
  std::vector<std::size_t> shard_sizes() const;

 private:
  struct Shard;  // cache.cpp: one mutex, one compact LRU map per key kind

  Shard& shard_for(ByteView key) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::uint64_t> hits_{0}, misses_{0}, stores_{0}, evictions_{0};
};

/// Deduplicating pool of parsed certificates, keyed by SHA-256(DER).
/// intern() either returns the existing shared parse (refcounted — an entry
/// stays alive while any session still points at it, evicted or not) or
/// parses and publishes a new one. Throws DecodeError exactly like
/// Certificate::parse.
///
/// verify_signature() memoizes both verdicts of "does this certificate
/// verify under this issuer key", keyed by SHA-256(issuer SPKI || cert
/// DER): the verdict is a pure function of the two, so a cached false is as
/// sound as a cached true. Validity dates, hostname, basicConstraints and
/// issuer names stay per-handshake checks in x509::verify_chain.
class CertPool : public tls::CertIntern {
 public:
  /// Certificates per shard, and separately verdicts per shard, before the
  /// least recently used one is evicted.
  static constexpr std::size_t kCapacityPerShard = 1024;

  explicit CertPool(std::size_t shards = 16);
  ~CertPool() override;

  std::shared_ptr<const x509::Certificate> intern(ByteView der) override;
  bool verify_signature(const x509::Certificate& cert,
                        const x509::PublicKey& issuer_key) override;

  /// Number of distinct certificates currently pooled.
  std::size_t size() const;
  /// Number of signature verdicts currently memoized.
  std::size_t verdict_count() const;
  /// Drop entries no session references anymore; returns how many died.
  std::size_t purge_unused();
  void clear();
  /// Interning only: a hit is a DER blob served from the pool.
  CacheStats stats() const;
  /// Signature verdicts: a hit is an ECDSA/RSA verification skipped.
  CacheStats verdict_stats() const;

 private:
  struct Shard;  // cache.cpp: one mutex, certificates and verdicts

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::uint64_t> hits_{0}, misses_{0}, evictions_{0};
  mutable std::atomic<std::uint64_t> verdict_hits_{0}, verdict_misses_{0},
      verdict_evictions_{0};
};

/// Memoized attestation-quote verification, sharded by measurement. Both
/// verdicts are cached: verify_quote is a pure function of
/// (measurement, report_data, signature), so a cached false is as sound as
/// a cached true — and it stops a flood of replayed-garbage quotes from
/// burning an ECDSA verification each.
class QuoteVerifyCache : public tls::QuoteVerifier {
 public:
  /// Entries per shard before the least recently used one is evicted.
  static constexpr std::size_t kCapacityPerShard = 1024;

  explicit QuoteVerifyCache(std::size_t shards = 16);
  ~QuoteVerifyCache() override;

  bool verify(ByteView measurement, ByteView report_data, ByteView signature) override;

  std::size_t size() const;
  void clear();
  CacheStats stats() const;

 private:
  struct Shard;  // cache.cpp: SHA-256(meas || rd || sig) -> verdict

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::uint64_t> hits_{0}, misses_{0}, evictions_{0};
};

}  // namespace mbtls::mb
