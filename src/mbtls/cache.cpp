#include "mbtls/cache.h"

#include <array>
#include <map>
#include <mutex>

#include "crypto/sha2.h"
#include "sgx/attestation.h"

namespace mbtls::mb {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// FNV-1a over the key bytes. Keys are either uniform random session IDs or
/// peer-name strings; both spread fine without a keyed hash (no adversarial
/// flooding concern: session IDs are chosen by our own DRBG).
std::size_t fnv1a(ByteView key) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : key) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

template <class ShardT>
std::vector<std::unique_ptr<ShardT>> make_shards(std::size_t shards, std::size_t capacity) {
  const std::size_t n = round_up_pow2(shards == 0 ? 1 : shards);
  std::vector<std::unique_ptr<ShardT>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(std::make_unique<ShardT>(capacity));
  return out;
}

/// Bounded LRU map with one heap node per entry: the key lives only in the
/// std::map node, the recency links and the value beside it. Inserting past
/// the capacity evicts the least recently used entry. Not thread-safe; each
/// cache shard guards its maps with the shard mutex.
template <class Key, class Value>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  /// The value under `key`, promoted to most recent; null when absent.
  template <class K>
  Value* find(const K& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    touch(it->second);
    return &it->second.value;
  }

  struct Slot {
    Value* value;
    bool inserted;  // false: `key` was present and `value` is its entry
    bool evicted;   // inserting pushed the least recent entry out
  };
  /// The entry under `key`, created value-initialized when absent; promoted
  /// to most recent either way.
  Slot upsert(const Key& key) {
    auto [it, inserted] = map_.try_emplace(key);
    Node& node = it->second;
    if (!inserted) {
      touch(node);
      return {&node.value, false, false};
    }
    node.key = &it->first;
    link_front(node);
    bool evicted = false;
    if (map_.size() > capacity_) {
      Node* victim = tail_;
      unlink(*victim);
      map_.erase(map_.find(*victim->key));
      evicted = true;
    }
    return {&node.value, true, evicted};
  }

  /// Erase every entry `pred(value)` accepts; returns how many.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->second.value)) {
        unlink(it->second);
        it = map_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    return erased;
  }

  void clear() {
    map_.clear();
    head_ = tail_ = nullptr;
  }
  std::size_t size() const { return map_.size(); }

 private:
  struct Node {
    Node* prev = nullptr;  // more recent
    Node* next = nullptr;  // less recent
    const Key* key = nullptr;
    Value value{};
  };

  void link_front(Node& n) {
    n.prev = nullptr;
    n.next = head_;
    if (head_) head_->prev = &n;
    head_ = &n;
    if (!tail_) tail_ = &n;
  }
  void unlink(Node& n) {
    (n.prev ? n.prev->next : head_) = n.next;
    (n.next ? n.next->prev : tail_) = n.prev;
  }
  void touch(Node& n) {
    if (head_ == &n) return;
    unlink(n);
    link_front(n);
  }

  std::map<Key, Node, std::less<>> map_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t capacity_;
};

using Digest = std::array<std::uint8_t, crypto::Sha256::kDigestSize>;

Digest to_digest(const Bytes& sha256) {
  Digest d;
  std::copy(sha256.begin(), sha256.end(), d.begin());
  return d;
}

std::size_t shard_index(const Digest& digest, std::size_t shard_count) {
  return fnv1a(digest) & (shard_count - 1);
}

/// A TLS session ID held inline (RFC 5246 caps it at 32 bytes).
struct SessionId {
  static constexpr std::size_t kMax = 32;
  std::uint8_t len = 0;
  std::array<std::uint8_t, kMax> bytes{};

  static std::optional<SessionId> from(ByteView v) {
    if (v.empty() || v.size() > kMax) return std::nullopt;
    SessionId id;
    id.len = static_cast<std::uint8_t>(v.size());
    std::copy(v.begin(), v.end(), id.bytes.begin());
    return id;
  }
  ByteView view() const { return ByteView(bytes.data(), len); }
  auto operator<=>(const SessionId&) const = default;
};

/// A cached session without its lookup key. The 48-byte TLS 1.2 master
/// secret is inline; everything else a SessionState may carry (a peer
/// entry's session ID, key material, a ticket, secondary sessions, an
/// oversized master secret) goes to `rest`, which plain entries never need.
struct CachedSession {
  static constexpr std::size_t kMasterSize = 48;
  tls::CipherSuite suite{};
  std::uint8_t master_len = 0;
  std::array<std::uint8_t, kMasterSize> master_secret{};  // lint: secret
  std::unique_ptr<tls::SessionState> rest;

  CachedSession() = default;
  CachedSession(const CachedSession&) = delete;
  CachedSession& operator=(const CachedSession&) = delete;
  ~CachedSession() {
    secure_wipe(master_secret);
    drop_rest();
  }

  /// ~SessionState wipes the key material; the ticket is an attacker-visible
  /// wire blob, but scrub it too so a dead entry leaves nothing behind.
  void drop_rest() {
    if (rest) secure_wipe(rest->ticket);
    rest.reset();
  }

  /// Overwrite with `state`, leaving out its session ID when `id_is_key`.
  void assign(const tls::SessionState& state, bool id_is_key) {
    suite = state.suite;
    secure_wipe(master_secret);
    const bool master_inline = state.master_secret.size() <= kMasterSize;
    master_len = master_inline ? static_cast<std::uint8_t>(state.master_secret.size()) : 0;
    if (master_inline)
      std::copy(state.master_secret.begin(), state.master_secret.end(), master_secret.begin());
    drop_rest();
    if ((id_is_key || state.session_id.empty()) && master_inline && state.ticket.empty() &&
        state.secondaries.empty()) {
      return;
    }
    rest = std::make_unique<tls::SessionState>();
    if (!id_is_key) rest->session_id = state.session_id;
    if (!master_inline) rest->master_secret = state.master_secret;
    rest->ticket = state.ticket;
    rest->secondaries = state.secondaries;
  }

  /// The SessionState this entry holds; `id_key` is its key in a by-ID map.
  tls::SessionState expand(ByteView id_key) const {
    tls::SessionState state = rest ? *rest : tls::SessionState{};
    if (!id_key.empty()) state.session_id = to_bytes(id_key);
    state.suite = suite;
    if (master_len > 0)
      state.master_secret.assign(master_secret.begin(), master_secret.begin() + master_len);
    return state;
  }
};

}  // namespace

// ------------------------------------------------------- ShardedSessionCache

struct ShardedSessionCache::Shard {
  explicit Shard(std::size_t capacity) : by_id(capacity), by_peer(capacity) {}
  std::mutex mu;
  LruMap<SessionId, CachedSession> by_id;
  LruMap<std::string, CachedSession> by_peer;
};

ShardedSessionCache::ShardedSessionCache() : ShardedSessionCache(Options{}) {}

ShardedSessionCache::ShardedSessionCache(Options options)
    : shards_(make_shards<Shard>(options.shards, options.capacity_per_shard)) {}

ShardedSessionCache::~ShardedSessionCache() = default;  // ~CachedSession wipes

ShardedSessionCache::Shard& ShardedSessionCache::shard_for(ByteView key) const {
  return *shards_[fnv1a(key) & (shards_.size() - 1)];
}

namespace {

template <class Map, class Key>
void store_into(Map& map, const Key& key, const tls::SessionState& state, bool id_is_key,
                std::atomic<std::uint64_t>& evictions) {
  // A present key is overwritten in place: assign() wipes the old secret.
  const auto slot = map.upsert(key);
  slot.value->assign(state, id_is_key);
  if (slot.evicted) evictions.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void ShardedSessionCache::store_by_id(const tls::SessionState& state) {
  const auto id = SessionId::from(state.session_id);
  if (!id) return;
  Shard& shard = shard_for(state.session_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  store_into(shard.by_id, *id, state, /*id_is_key=*/true, evictions_);
  stores_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<tls::SessionState> ShardedSessionCache::lookup_by_id(
    ByteView session_id) const {
  const auto id = SessionId::from(session_id);
  if (!id) {
    if (!session_id.empty()) misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Shard& shard = shard_for(session_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const CachedSession* hit = shard.by_id.find(*id);
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  if (!hit) return std::nullopt;
  return hit->expand(id->view());
}

void ShardedSessionCache::store_by_peer(const std::string& peer,
                                        const tls::SessionState& state) {
  // The lookup key is the public peer name, not secret material.
  Shard& shard = shard_for(to_bytes(std::string_view(peer)));
  std::lock_guard<std::mutex> lock(shard.mu);
  store_into(shard.by_peer, peer, state, /*id_is_key=*/false, evictions_);
  stores_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<tls::SessionState> ShardedSessionCache::lookup_by_peer(
    const std::string& peer) const {
  Shard& shard = shard_for(to_bytes(std::string_view(peer)));
  std::lock_guard<std::mutex> lock(shard.mu);
  const CachedSession* hit = shard.by_peer.find(peer);
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  if (!hit) return std::nullopt;
  return hit->expand({});
}

void ShardedSessionCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Node destruction runs ~CachedSession on every entry, wiping keys.
    shard->by_id.clear();
    shard->by_peer.clear();
  }
}

std::size_t ShardedSessionCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->by_id.size() + shard->by_peer.size();
  }
  return total;
}

std::vector<std::size_t> ShardedSessionCache::shard_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    sizes.push_back(shard->by_id.size());
  }
  return sizes;
}

CacheStats ShardedSessionCache::stats() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
          stores_.load(std::memory_order_relaxed),
          evictions_.load(std::memory_order_relaxed)};
}

// ------------------------------------------------------------------ CertPool

struct CertPool::Shard {
  explicit Shard(std::size_t capacity) : by_digest(capacity), verdicts(capacity) {}
  std::mutex mu;
  LruMap<Digest, std::shared_ptr<const x509::Certificate>> by_digest;  // SHA-256(DER)
  LruMap<Digest, bool> verdicts;  // SHA-256(issuer SPKI || DER) -> verdict
};

CertPool::CertPool(std::size_t shards)
    : shards_(make_shards<Shard>(shards, kCapacityPerShard)) {}

CertPool::~CertPool() = default;

std::shared_ptr<const x509::Certificate> CertPool::intern(ByteView der) {
  const Digest digest = to_digest(crypto::Sha256::digest(der));
  Shard& shard = *shards_[shard_index(digest, shards_.size())];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const auto* cert = shard.by_digest.find(digest)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *cert;
    }
  }
  // Parse outside the lock: a miss costs a full DER parse + key decode, and
  // holding the shard lock across it would serialize every cold chain that
  // lands on this shard. A racing double-parse publishes once (first wins).
  auto parsed = std::make_shared<const x509::Certificate>(x509::Certificate::parse(der));
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto slot = shard.by_digest.upsert(digest);
  if (!slot.inserted) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return *slot.value;
  }
  *slot.value = std::move(parsed);
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (slot.evicted) evictions_.fetch_add(1, std::memory_order_relaxed);
  return *slot.value;
}

bool CertPool::verify_signature(const x509::Certificate& cert,
                                const x509::PublicKey& issuer_key) {
  crypto::Sha256 h;
  h.update(issuer_key.spki_der());
  h.update(cert.der());
  const Digest digest = to_digest(h.finish());
  Shard& shard = *shards_[shard_index(digest, shards_.size())];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const bool* verdict = shard.verdicts.find(digest)) {
      verdict_hits_.fetch_add(1, std::memory_order_relaxed);
      return *verdict;
    }
  }
  // The signature check runs outside the lock (it dominates the cost).
  const bool ok = cert.verify_signature(issuer_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto slot = shard.verdicts.upsert(digest);
  *slot.value = ok;
  verdict_misses_.fetch_add(1, std::memory_order_relaxed);
  if (slot.evicted) verdict_evictions_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

std::size_t CertPool::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->by_digest.size();
  }
  return total;
}

std::size_t CertPool::verdict_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->verdicts.size();
  }
  return total;
}

std::size_t CertPool::purge_unused() {
  std::size_t purged = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    purged += shard->by_digest.erase_if(
        [](const std::shared_ptr<const x509::Certificate>& cert) { return cert.use_count() == 1; });
  }
  return purged;
}

void CertPool::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->by_digest.clear();
    shard->verdicts.clear();
  }
}

CacheStats CertPool::stats() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed), 0,
          evictions_.load(std::memory_order_relaxed)};
}

CacheStats CertPool::verdict_stats() const {
  return {verdict_hits_.load(std::memory_order_relaxed),
          verdict_misses_.load(std::memory_order_relaxed), 0,
          verdict_evictions_.load(std::memory_order_relaxed)};
}

// ---------------------------------------------------------- QuoteVerifyCache

struct QuoteVerifyCache::Shard {
  explicit Shard(std::size_t capacity) : verdicts(capacity) {}
  std::mutex mu;
  LruMap<Digest, bool> verdicts;
};

QuoteVerifyCache::QuoteVerifyCache(std::size_t shards)
    : shards_(make_shards<Shard>(shards, kCapacityPerShard)) {}

QuoteVerifyCache::~QuoteVerifyCache() = default;

bool QuoteVerifyCache::verify(ByteView measurement, ByteView report_data,
                              ByteView signature) {
  // Entry key covers all three inputs (the verdict depends on all of them);
  // the shard is picked by measurement alone so one enclave build's quotes
  // stay shard-local.
  crypto::Sha256 h;
  h.update(measurement);
  h.update(report_data);
  h.update(signature);
  const Digest digest = to_digest(h.finish());
  Shard& shard = *shards_[shard_index(to_digest(crypto::Sha256::digest(measurement)),
                                      shards_.size())];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const bool* verdict = shard.verdicts.find(digest)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *verdict;
    }
  }
  // ECDSA verification outside the lock (it dominates the cost).
  const bool ok = sgx::verify_quote(measurement, report_data, signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto slot = shard.verdicts.upsert(digest);
  *slot.value = ok;
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (slot.evicted) evictions_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

std::size_t QuoteVerifyCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->verdicts.size();
  }
  return total;
}

void QuoteVerifyCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->verdicts.clear();
  }
}

CacheStats QuoteVerifyCache::stats() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed), 0,
          evictions_.load(std::memory_order_relaxed)};
}

}  // namespace mbtls::mb
