// End-to-end benchmark of the production mbTLS path: mb::ClientSession over
// SocketBinding, then mb::Middlebox over MiddleboxBinding, then
// mb::ServerSession, one net::posix::LoopGroup (one loop thread) per tier,
// real TCP over 127.0.0.1. See README.md beside this file for the workloads,
// the metrics and the layer each per-layer metric belongs to.
//
//   mbtls_perfbench --workload bulk|rpc|churn --seed N --seconds S --trace 0|1
//                   [--trace-out PATH] [--commit SHA]
//
// Every workload is a closed loop of at most four client sessions. All
// payload bytes, sizes and resume-or-not draws come from --seed; every
// delivered byte is compared against them. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 installs the span decorators and reports
// the per-layer metrics, measured over alternating untraced/traced slices so
// the tracing overhead is reported too. Exit status is non-zero when any
// operation failed or any byte check did not hold.
#include <pthread.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "mbtls/cache.h"
#include "mbtls/transport.h"
#include "net/posix/loop_group.h"
#include "perfbench/tracing.h"
#include "tls/record.h"

namespace mbtls::perfbench {
namespace {

using mb::CertPool;
using mb::ClientSession;
using mb::Middlebox;
using mb::MiddleboxBinding;
using mb::ServerSession;
using mb::ShardedSessionCache;
using mb::SocketBinding;
using net::Stream;
using net::posix::LoopGroup;

enum class Workload { kBulk, kRpc, kChurn };

constexpr std::size_t kSessions = 4;               // open sessions, or concurrent dialers
constexpr std::size_t kRecord = 16 * 1024;         // bulk application record
constexpr std::size_t kBulkStream = 64 * kRecord;  // each bulk stream repeats this seeded block
constexpr std::uint64_t kAckEvery = 8;            // bulk: the server acks every 8 records
constexpr std::uint64_t kWindowRecords = 64;       // bulk: unacked records allowed per session
constexpr std::size_t kLatencyRing = 2 * kWindowRecords;  // bulk send times kept per session
constexpr std::size_t kPool = 64 * 1024;           // rpc/churn payloads are slices of this
constexpr std::size_t kDraws = 4096;               // per-stream draw schedule, repeated
constexpr std::size_t kHeader = 8;                 // request header: stream index, sequence
constexpr std::uint64_t kRssLimitKb = 512 * 1024;  // runaway buffering guard
constexpr int kSetups = 15;  // set-ups per run; setup_s is their median
// A sub-window in which the hypervisor stole more than this share of the
// VM's CPU time measures the host, not the program: it is left out of the
// medians as long as at least a quarter of the sub-windows stay.
constexpr double kStealLimit = 0.02;
constexpr const char* kServerName = "perfbench.example";
constexpr const char* kMboxName = "perfbench-proxy.example";

// ------------------------------------------------------------------ inputs

/// splitmix64: every generated input is a pure function of the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint32_t range(std::uint32_t lo, std::uint32_t hi) {
    return lo + static_cast<std::uint32_t>(next() % (hi - lo + 1));
  }
  Bytes bytes(std::size_t n) {
    Bytes out(n);
    for (std::size_t i = 0; i < n; i += 8) {
      const std::uint64_t v = next();
      std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, n - i));
    }
    return out;
  }

 private:
  std::uint64_t s_;
};

/// One request/response exchange (rpc round trip, or the churn session's
/// single exchange), plus whether that churn dial offers resumption.
struct Draw {
  std::uint32_t req_size;
  std::uint32_t resp_size;
  std::uint32_t req_off;
  std::uint32_t resp_off;
  bool offer;
};

struct Inputs {
  std::vector<Bytes> bulk;  // per session: the block its stream repeats
  Bytes pool;
  std::vector<std::vector<Draw>> draws;  // per session (rpc) or dialer (churn)

  const Draw& draw(std::size_t stream, std::uint64_t i) const { return draws[stream][i % kDraws]; }

  /// Request bytes: an 8-byte header naming (stream, sequence) so the server
  /// knows which seeded request to expect, then a seeded pool slice.
  void request(std::size_t stream, std::uint64_t i, Bytes& out) const {
    const Draw& d = draw(stream, i);
    out.resize(d.req_size);
    const std::uint32_t hdr[2] = {static_cast<std::uint32_t>(stream), static_cast<std::uint32_t>(i)};
    std::memcpy(out.data(), hdr, kHeader);
    std::memcpy(out.data() + kHeader, pool.data() + d.req_off, d.req_size - kHeader);
  }
  ByteView response(std::size_t stream, std::uint64_t i) const {
    const Draw& d = draw(stream, i);
    return ByteView(pool.data() + d.resp_off, d.resp_size);
  }
};

Inputs make_inputs(std::uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  for (std::size_t s = 0; s < kSessions; ++s) in.bulk.push_back(rng.bytes(kBulkStream));
  in.pool = rng.bytes(kPool + 4096);
  in.draws.resize(kSessions);
  for (auto& stream : in.draws) {
    stream.reserve(kDraws);
    for (std::size_t i = 0; i < kDraws; ++i) {
      Draw d{};
      d.req_size = rng.range(64, 1024);
      d.resp_size = rng.range(256, 4096);
      d.req_off = rng.range(0, kPool - 1);
      d.resp_off = rng.range(0, kPool - 1);
      d.offer = (rng.next() & 1) != 0;
      stream.push_back(d);
    }
  }
  return in;
}

/// First 8 bytes of a ClientHello random, big-endian: the key that joins one
/// session's records across the three tiers.
std::uint64_t key_of(ByteView random) {
  std::uint64_t k = 0;
  for (std::size_t i = 0; i < 8 && i < random.size(); ++i) k = (k << 8) | random[i];
  return k;
}

/// The ClientHello random, read from the first bytes a middlebox or server
/// receives: record header (5) + handshake header (4) + version (2).
std::optional<std::uint64_t> client_hello_key(ByteView d) {
  if (d.size() < 11 + 8 || d[0] != 22 || d[5] != 1) return std::nullopt;
  return key_of(d.subspan(11, 8));
}

/// Run `after` behind whatever handler `slot` already holds.
template <typename... A, typename F>
void chain(std::function<void(A...)>& slot, F after) {
  slot = [first = std::move(slot), after = std::move(after)](A... a) {
    if (first) first(a...);
    after(a...);
  };
}

std::uint64_t rss_kb() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (idx - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The highest percentile (at most p99) with at least ten samples beyond it.
double tail_quantile(std::size_t n) {
  if (n == 0) return 0.5;
  return std::max(0.5, std::min(0.99, 1.0 - 10.0 / static_cast<double>(n)));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Latency samples in consecutive blocks of 1000. A full block keeps only its
/// p50 and its p99 (the highest percentile with ten samples beyond it); the
/// reported percentiles are the medians over blocks, so one noisy second of
/// the shared host moves a few blocks, not the result. Memory is constant.
class Latencies {
 public:
  static constexpr std::size_t kBlock = 1000;

  struct Block {
    std::uint64_t end_ns;
    double p50, p99;
  };

  Latencies() { block_.reserve(kBlock); }

  void add(double v) {
    block_.push_back(v);
    ++count_;
    if (block_.size() < kBlock) return;
    blocks_.push_back({now_ns(), percentile(block_, 0.5), percentile(block_, 0.99)});
    block_.clear();
  }

  std::size_t count() const { return count_; }
  const std::vector<Block>& blocks() const { return blocks_; }
  /// A run too short for one full block: the partial block's p50 and its
  /// highest percentile with ten samples beyond it.
  double partial(bool tail) const {
    return percentile(block_, tail ? tail_quantile(block_.size()) : 0.5);
  }

 private:
  std::vector<double> block_;
  std::vector<Block> blocks_;
  std::size_t count_ = 0;
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU time the hypervisor ran other guests while this VM's CPUs wanted to
/// run ("steal" in /proc/stat), in seconds summed over CPUs; 0 off a VM.
double steal_seconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  f >> cpu;
  for (auto& x : fields) f >> x;
  return static_cast<double>(fields[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------- per-tier state

struct ClientSlot {
  std::uint32_t index = 0;  // bulk/rpc session, or churn dialer
  std::uint64_t seq = 0;    // rpc: next request; churn: this dialer's session number
  std::unique_ptr<ClientSession> session;
  std::unique_ptr<TracedStream> traced;
  Stream* stream = nullptr;
  std::unique_ptr<SocketBinding<ClientSession>> binding;
  SessionAcct acct;
  std::uint64_t dialed_ns = 0, established_ns = 0, sent_ns = 0;
  std::uint64_t sent_bytes = 0, records = 0, acked = 0;
  Bytes inbox, scratch;
  bool offered = false, established = false, done = false, failed = false, retired = false;
  bool measured = false;  // established inside the measured window
};

struct MboxSlot {
  std::unique_ptr<Middlebox> mbox;
  std::unique_ptr<TracedStream> down_traced, up_traced;
  Stream* down = nullptr;
  Stream* up = nullptr;
  std::unique_ptr<MiddleboxBinding> binding;
  SessionAcct acct;
  std::uint64_t records_seen = 0;
  int closed_sides = 0;
  bool retired = false;
};

struct ServerConn {
  std::unique_ptr<ServerSession> session;
  std::unique_ptr<TracedStream> traced;
  Stream* stream = nullptr;
  std::unique_ptr<SocketBinding<ServerSession>> binding;
  SessionAcct acct;
  Bytes inbox;
  std::int64_t bulk_index = -1;  // bulk: which session's stream this is
  std::uint64_t offset = 0, records_done = 0, acked = 0;
  std::int64_t rpc_stream = -1;  // rpc: the stream index this connection carries
  std::uint64_t next_seq = 0;
  bool failed = false, retired = false;
};

/// Handshake record of one session on one tier, joined across tiers by key.
struct SessionRecord {
  std::uint64_t key = 0;
  double self_ms = 0;
  double connect_ms = 0;  // client only: dial -> established
  bool resumed = false, traced = false, offered = false, measured = false;
};

struct Config {
  Workload workload = Workload::kBulk;
  std::string workload_name = "bulk";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
};

/// Counters the main thread samples at slice edges. Each has one writer.
struct Shared {
  std::array<Counter, kTiers> verified_bytes, rounds;
  Counter ops;  // bulk: server tier; rpc and churn: client tier
  Counter c2s_records, c2s_bytes;  // app records sent by the client
  Counter s2c_records, s2c_bytes;  // app records sent by the server
  Counter mbox_records;  // Middlebox::records_reprotected, summed over sessions
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> established{0};
};

// --------------------------------------------------------------------- rig

class Rig {
 public:
  Rig(const Config& cfg, const Inputs& in, const std::atomic<bool>& tracing,
      const std::atomic<bool>& measuring)
      : cfg_(cfg),
        in_(in),
        tracing_(tracing),
        measuring_(measuring),
        server_id_(bench::make_identity(kServerName, x509::KeyType::kEcdsaP256)),
        mbox_id_(bench::make_identity(kMboxName, x509::KeyType::kEcdsaP256)) {
    if (cfg.trace)
      for (auto& t : tracers_) t = std::make_unique<Tracer>(tracing_);
  }
  ~Rig() { stop(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void start() {
    server_port_ = server_.listen(0, [this](std::size_t, Stream& s) { server_accept(s); });
    mbox_port_ = mbox_.listen(0, [this](std::size_t, Stream& s) { mbox_accept(s); });
    server_.start([this](std::size_t) { server_tick(); });
    mbox_.start([this](std::size_t) { mbox_tick(); });
    client_.start([this](std::size_t) { client_tick(); });
    // Each loop thread's CPU clock, readable from the main thread at any
    // moment (LoopGroup::cpu_nanos_on only advances between dispatch rounds,
    // and one round can last a whole measured window).
    LoopGroup* groups[kTiers] = {&client_, &mbox_, &server_};
    for (int t = 0; t < kTiers; ++t) {
      groups[t]->post(0, [this, t] {
        clockid_t id{};
        if (pthread_getcpuclockid(pthread_self(), &id) == 0) cpu_clock_[t].store(id);
        clock_known_[t].store(true);
      });
    }
    for (int t = 0; t < kTiers; ++t)
      while (!clock_known_[t].load()) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  /// Bulk and rpc: open the four long-lived sessions and wait for them.
  bool establish(double timeout_s) {
    if (cfg_.workload == Workload::kChurn) return true;
    client_.post(0, [this] {
      for (std::uint32_t i = 0; i < kSessions; ++i) dial(i);
    });
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
    while (now_ns() < deadline) {
      if (shared_.failed.load() > 0) return false;
      if (shared_.established.load() >= kSessions) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

  /// Start the load: fill the bulk streams, send the first requests, or
  /// start the churn dialers.
  void go() {
    client_.post(0, [this] {
      go_ = true;
      if (cfg_.workload == Workload::kChurn) {
        for (std::uint32_t d = 0; d < kSessions; ++d) dial(d);
        return;
      }
      for (auto& c : client_slots_) {
        if (!c->established || c->failed) continue;
        if (cfg_.workload == Workload::kBulk) fill(*c);
        if (cfg_.workload == Workload::kRpc) send_request(*c);
      }
    });
  }

  void stop() {
    client_.stop();
    mbox_.stop();
    server_.stop();
  }

  /// CPU time of tier `t`'s loop thread; call only while the loops run.
  std::uint64_t cpu_ns(Tier t) const {
    timespec ts{};
    if (clock_gettime(cpu_clock_[t].load(), &ts) != 0) return 0;
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  // --- read by the main thread --------------------------------------------
  Shared& shared() { return shared_; }
  const Tracer* tracer(Tier t) const { return tracers_[t].get(); }

  // --- read after stop() ----------------------------------------------------
  const Latencies& latencies_us() const { return latencies_us_; }
  /// Jain's fairness index of operations per session (dialer on churn)
  /// over the measured window: 1 when every session did the same work.
  double fairness() const {
    double sum = 0, sq = 0;
    for (const std::uint64_t n : window_ops_) {
      sum += static_cast<double>(n);
      sq += static_cast<double>(n) * static_cast<double>(n);
    }
    return sq > 0 ? sum * sum / (static_cast<double>(kSessions) * sq) : 0;
  }
  std::vector<SessionRecord> records(Tier t) {
    std::vector<SessionRecord> out = records_[t];
    for (auto& c : client_slots_)
      if (t == kClientTier && c->established) out.push_back(record_of(*c));
    for (auto& m : mbox_slots_)
      if (t == kMboxTier && m->acct.established) out.push_back(record_of(m->acct));
    for (auto& s : server_conns_)
      if (t == kServerTier && s->acct.established) out.push_back(record_of(s->acct));
    return out;
  }
  std::uint64_t auth_failures() const {
    std::uint64_t n = retired_auth_failures_;
    for (const auto& m : mbox_slots_) n += m->mbox->auth_failures();
    return n;
  }
  /// Stalls: a bulk/rpc session that completed nothing in the window, or a
  /// churn dial still open after 5 s.
  std::uint64_t timeouts() const {
    std::uint64_t n = 0;
    const std::uint64_t t = now_ns();
    for (const auto& c : client_slots_) {
      if (c->failed) continue;
      if (cfg_.workload == Workload::kChurn ? !c->done && t - c->dialed_ns > 5'000'000'000ull
                                            : window_ops_[c->index] == 0)
        ++n;
    }
    return n;
  }
  std::uint64_t sessions_established() const { return shared_.established.load(); }
  std::size_t key_len() const { return key_len_; }
  mb::CacheStats cache_stats(Tier t) const {
    if (t == kMboxTier) return mbox_cache_.stats();
    if (t == kServerTier) return server_cache_.stats();
    mb::CacheStats sum;
    for (const auto& c : client_caches_) {
      const mb::CacheStats st = c.stats();
      sum.hits += st.hits;
      sum.misses += st.misses;
    }
    return sum;
  }
  mb::CacheStats cert_pool_stats() const { return cert_pool_.stats(); }

 private:
  Tracer* tr(Tier t) { return tracers_[t].get(); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }
  bool measuring() const { return measuring_.load(std::memory_order_relaxed); }

  void fail(bool& flag, const char* tier, const std::string& why) {
    if (flag) return;
    flag = true;
    if (shared_.failed.fetch_add(1) < 5)
      std::fprintf(stderr, "perfbench: %s failure: %s\n", tier, why.c_str());
  }

  static SessionRecord record_of(const SessionAcct& a) {
    SessionRecord r;
    r.key = a.key;
    r.self_ms = static_cast<double>(a.self_ns) / 1e6;
    r.resumed = a.resumed;
    r.traced = a.traced;
    return r;
  }
  SessionRecord record_of(const ClientSlot& c) const {
    SessionRecord r = record_of(c.acct);
    r.connect_ms = static_cast<double>(c.established_ns - c.dialed_ns) / 1e6;
    r.offered = c.offered;
    r.measured = c.measured;
    return r;
  }

  // --- client tier --------------------------------------------------------

  void dial(std::uint32_t index) {
    client_slots_.push_back(std::make_unique<ClientSlot>());
    ClientSlot& c = *client_slots_.back();
    c.index = index;
    c.dialed_ns = now_ns();
    c.acct.traced = tracing();
    const Scope span(tr(kClientTier), kDial, &c.acct);
    ClientSession::Options o;
    o.tls.trust_anchors = {bench::ca().root()};
    o.tls.server_name = kServerName;
    o.tls.rng_label = "perfbench-client";
    o.tls.rng_seed = cfg_.seed * 1'000'003 + client_dials_++;
    o.tls.cert_pool = &cert_pool_;
    if (cfg_.workload == Workload::kChurn) {
      c.seq = dialer_sessions_[index]++;
      c.offered = in_.draw(index, c.seq).offer;
      o.tls.session_cache = &client_caches_[index];
      o.tls.offer_resumption = c.offered;
    }
    c.session = std::make_unique<ClientSession>(std::move(o));
    Stream& raw = client_.loop(0).dial({0, mbox_port_, "127.0.0.1"});
    c.stream = &raw;
    if (cfg_.trace) {
      c.traced = std::make_unique<TracedStream>(raw, *tr(kClientTier), c.acct, kOnData);
      c.stream = c.traced.get();
    }
    c.stream->on_connect = [&c] {
      c.session->start();
      c.acct.key = key_of(c.session->primary().client_random());
      c.acct.keyed = true;
    };
    c.binding = std::make_unique<SocketBinding<ClientSession>>(*c.session, *c.stream);
    chain(c.stream->on_data, [this, &c](ByteView) { client_data(c); });
    chain(c.stream->on_writable, [this, &c] {
      if (cfg_.workload == Workload::kBulk) fill(c);
    });
    chain(c.stream->on_close, [this, &c] {
      if (!c.done && !c.failed) fail(c.failed, "client", "transport closed mid-session");
      c.retired = true;
    });
  }

  void client_data(ClientSlot& c) {
    if (c.failed) return;
    if (c.session->failed()) {
      fail(c.failed, "client", c.session->error_message());
      return;
    }
    if (!c.established) {
      if (!c.session->established()) return;
      client_established(c);
    }
    Bytes app = c.session->take_app_data();
    if (app.empty()) return;
    if (cfg_.workload == Workload::kBulk) {
      take_acks(c, app);
      fill(c);
      return;
    }
    const Scope span(tr(kClientTier), kBench);
    append(c.inbox, app);
    check_response(c);
  }

  /// Bulk acks: every kAckEvery verified records the server reports its
  /// count, which reopens the client's send window.
  void take_acks(ClientSlot& c, ByteView app) {
    const Scope span(tr(kClientTier), kBench);
    append(c.inbox, app);
    std::size_t pos = 0;
    for (; pos + sizeof(std::uint64_t) <= c.inbox.size(); pos += sizeof(std::uint64_t)) {
      std::uint64_t acked = 0;
      std::memcpy(&acked, c.inbox.data() + pos, sizeof(acked));
      if (acked <= c.acked || acked > c.records || acked % kAckEvery != 0) {
        fail(c.failed, "client", "bulk ack does not match the records sent");
        return;
      }
      c.acked = acked;
    }
    c.inbox.erase(c.inbox.begin(), c.inbox.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  void client_established(ClientSlot& c) {
    c.established = true;
    c.established_ns = now_ns();
    c.measured = measuring();
    c.acct.established = true;
    c.acct.resumed = c.session->primary().resumed();
    c.acct.traced = c.acct.traced && tracing();
    key_len_ = c.session->primary().suite().key_len;
    shared_.established.fetch_add(1);
    switch (cfg_.workload) {
      case Workload::kBulk: {
        // The stream opens with its session index so the server knows which
        // seeded block to compare against.
        const std::uint64_t hello = c.index;
        send(c, ByteView(reinterpret_cast<const std::uint8_t*>(&hello), sizeof(hello)));
        if (go_) fill(c);
        break;
      }
      case Workload::kRpc:
        if (go_) send_request(c);
        break;
      case Workload::kChurn:
        send_request(c);
        break;
    }
  }

  void send(ClientSlot& c, ByteView data) {
    {
      const Scope span(tr(kClientTier), kSessionSend);
      c.session->send(data);
    }
    {
      const Scope span(tr(kClientTier), kFlush);
      c.binding->flush();
    }
    shared_.c2s_records.add(1);
    shared_.c2s_bytes.add(data.size());
  }

  /// Edge-driven bulk generator: send full records until the stream stops
  /// being writable or the session's window of unacked records is full; the
  /// on_writable edge and each ack call this again.
  void fill(ClientSlot& c) {
    if (!go_ || !c.established || c.failed) return;
    const Bytes& block = in_.bulk[c.index];
    while (c.records - c.acked < kWindowRecords && c.stream->writable()) {
      const std::size_t off = c.sent_bytes % kBulkStream;
      sent_at_[c.index * kLatencyRing + c.records % kLatencyRing].store(now_ns(),
                                                                        std::memory_order_relaxed);
      send(c, ByteView(block.data() + off, kRecord));
      c.sent_bytes += kRecord;
      ++c.records;
    }
  }

  void send_request(ClientSlot& c) {
    {
      const Scope span(tr(kClientTier), kBench);
      in_.request(c.index, c.seq, c.scratch);
    }
    c.sent_ns = now_ns();
    send(c, c.scratch);
  }

  void check_response(ClientSlot& c) {
    const ByteView want = in_.response(c.index, c.seq);
    if (c.inbox.size() < want.size()) return;
    if (c.inbox.size() != want.size() || std::memcmp(c.inbox.data(), want.data(), want.size()) != 0) {
      fail(c.failed, "client", "response bytes differ from the seeded response");
      return;
    }
    c.inbox.clear();
    shared_.verified_bytes[kClientTier].add(want.size());
    const std::uint64_t t = now_ns();
    if (measuring()) {
      const std::uint64_t from = cfg_.workload == Workload::kChurn ? c.dialed_ns : c.sent_ns;
      const std::uint64_t to = cfg_.workload == Workload::kChurn ? c.established_ns : t;
      latencies_us_.add(static_cast<double>(to - from) / 1e3);
      ++window_ops_[c.index];
    }
    shared_.ops.add(1);
    if (cfg_.workload == Workload::kRpc) {
      ++c.seq;
      send_request(c);
      return;
    }
    // Churn: close_notify, FIN, and the dialer starts its next session.
    c.done = true;
    {
      const Scope span(tr(kClientTier), kSessionSend);
      c.session->close();
    }
    {
      const Scope span(tr(kClientTier), kFlush);
      c.binding->flush();
    }
    c.stream->close();
    dial(c.index);
  }

  void client_tick() {
    const Scope span(tr(kClientTier), kTick);
    shared_.rounds[kClientTier].add(1);
    sweep(client_slots_, [this](ClientSlot& c) {
      if (c.established) records_[kClientTier].push_back(record_of(c));
    });
  }

  // --- middlebox tier -----------------------------------------------------

  void mbox_accept(Stream& down_raw) {
    mbox_slots_.push_back(std::make_unique<MboxSlot>());
    MboxSlot& m = *mbox_slots_.back();
    m.acct.traced = tracing();
    const Scope span(tr(kMboxTier), kAccept, &m.acct);
    Middlebox::Options o;
    o.name = kMboxName;
    o.side = Middlebox::Side::kClientSide;
    o.private_key = mbox_id_.key;
    o.certificate_chain = mbox_id_.chain;
    if (cfg_.workload == Workload::kChurn) o.session_cache = &mbox_cache_;
    m.mbox = std::make_unique<Middlebox>(std::move(o));
    Stream& up_raw = mbox_.loop(0).dial({0, server_port_, "127.0.0.1"});
    m.down = &down_raw;
    m.up = &up_raw;
    if (cfg_.trace) {
      m.down_traced = std::make_unique<TracedStream>(down_raw, *tr(kMboxTier), m.acct, kOnData);
      m.up_traced = std::make_unique<TracedStream>(up_raw, *tr(kMboxTier), m.acct, kOnDataUp);
      m.down = m.down_traced.get();
      m.up = m.up_traced.get();
    }
    m.binding = std::make_unique<MiddleboxBinding>(*m.mbox, *m.down, *m.up);
    chain(m.down->on_data, [this, &m](ByteView d) {
      if (!m.acct.keyed) {
        if (const auto k = client_hello_key(d)) m.acct.key = *k;
        m.acct.keyed = true;
      }
      mbox_event(m);
    });
    chain(m.up->on_data, [this, &m](ByteView) { mbox_event(m); });
    chain(m.down->on_close, [&m] { m.retired = ++m.closed_sides == 2; });
    chain(m.up->on_close, [&m] { m.retired = ++m.closed_sides == 2; });
  }

  void mbox_event(MboxSlot& m) {
    // Published per event: a dispatch round (and so the tick) can last as
    // long as one stream keeps its socket non-empty.
    const std::uint64_t records = m.mbox->records_reprotected();
    shared_.mbox_records.add(records - m.records_seen);
    m.records_seen = records;
    if (m.acct.established || !m.mbox->joined()) return;
    m.acct.established = true;
    m.acct.resumed = m.mbox->resumed();
    m.acct.traced = m.acct.traced && tracing();
  }

  void mbox_tick() {
    const Scope span(tr(kMboxTier), kTick);
    shared_.rounds[kMboxTier].add(1);
    sweep(mbox_slots_, [this](MboxSlot& m) {
      retired_auth_failures_ += m.mbox->auth_failures();
      if (m.acct.established) records_[kMboxTier].push_back(record_of(m.acct));
    });
  }

  // --- server tier --------------------------------------------------------

  void server_accept(Stream& raw) {
    server_conns_.push_back(std::make_unique<ServerConn>());
    ServerConn& s = *server_conns_.back();
    s.acct.traced = tracing();
    const Scope span(tr(kServerTier), kAccept, &s.acct);
    ServerSession::Options o;
    o.tls.private_key = server_id_.key;
    o.tls.certificate_chain = server_id_.chain;
    o.tls.rng_label = "perfbench-server";
    o.tls.rng_seed = cfg_.seed * 1'000'003 + server_accepts_++;
    o.tls.cert_pool = &cert_pool_;
    if (cfg_.workload == Workload::kChurn) o.tls.session_cache = &server_cache_;
    s.session = std::make_unique<ServerSession>(std::move(o));
    s.stream = &raw;
    if (cfg_.trace) {
      s.traced = std::make_unique<TracedStream>(raw, *tr(kServerTier), s.acct, kOnData);
      s.stream = s.traced.get();
    }
    s.binding = std::make_unique<SocketBinding<ServerSession>>(*s.session, *s.stream);
    chain(s.stream->on_data, [this, &s](ByteView d) { server_data(s, d); });
    chain(s.stream->on_close, [&s] { s.retired = true; });
  }

  void server_data(ServerConn& s, ByteView d) {
    if (!s.acct.keyed) {
      if (const auto k = client_hello_key(d)) s.acct.key = *k;
      s.acct.keyed = true;
    }
    if (s.failed) return;
    if (s.session->failed()) {
      fail(s.failed, "server", s.session->error_message());
      return;
    }
    if (!s.acct.established) {
      if (!s.session->established()) return;
      s.acct.established = true;
      s.acct.resumed = s.session->primary().resumed();
      s.acct.traced = s.acct.traced && tracing();
    }
    Bytes app = s.session->take_app_data();
    if (app.empty()) return;
    const Scope span(tr(kServerTier), kBench);
    if (cfg_.workload == Workload::kBulk) {
      check_bulk(s, app);
    } else {
      append(s.inbox, app);
      serve(s);
    }
  }

  /// Compare the bulk stream byte for byte against its seeded block.
  void check_bulk(ServerConn& s, ByteView app) {
    if (s.bulk_index < 0) {
      append(s.inbox, app);
      if (s.inbox.size() < sizeof(std::uint64_t)) return;
      std::uint64_t index = 0;
      std::memcpy(&index, s.inbox.data(), sizeof(index));
      if (index >= kSessions) {
        fail(s.failed, "server", "bulk stream names an unknown session");
        return;
      }
      s.bulk_index = static_cast<std::int64_t>(index);
      const Bytes rest(s.inbox.begin() + sizeof(index), s.inbox.end());
      s.inbox.clear();
      if (!rest.empty()) check_bulk(s, rest);
      return;
    }
    const std::size_t k = static_cast<std::size_t>(s.bulk_index);
    const Bytes& block = in_.bulk[k];
    for (std::size_t pos = 0; pos < app.size();) {
      const std::size_t off = s.offset % kBulkStream;
      const std::size_t n = std::min(app.size() - pos, kBulkStream - off);
      if (std::memcmp(block.data() + off, app.data() + pos, n) != 0) {
        fail(s.failed, "server", "bulk bytes differ from the seeded stream");
        return;
      }
      pos += n;
      s.offset += n;
    }
    shared_.verified_bytes[kServerTier].add(app.size());
    const bool measured = measuring();
    const std::uint64_t t = now_ns();
    while (s.offset >= (s.records_done + 1) * kRecord) {
      const std::uint64_t r = s.records_done++;
      if (measured) {
        const std::uint64_t sent = sent_at_[k * kLatencyRing + r % kLatencyRing].load(
            std::memory_order_relaxed);
        latencies_us_.add(static_cast<double>(t - sent) / 1e3);
        ++window_ops_[k];
      }
      shared_.ops.add(1);
    }
    if (s.records_done - s.acked >= kAckEvery) {
      s.acked = s.records_done / kAckEvery * kAckEvery;
      reply(s, ByteView(reinterpret_cast<const std::uint8_t*>(&s.acked), sizeof(s.acked)));
    }
  }

  /// rpc and churn: verify each seeded request, reply with its seeded
  /// response.
  void serve(ServerConn& s) {
    while (s.inbox.size() >= kHeader) {
      std::uint32_t hdr[2];
      std::memcpy(hdr, s.inbox.data(), kHeader);
      const std::size_t stream = hdr[0];
      const std::uint64_t seq = hdr[1];
      if (stream >= kSessions) {
        fail(s.failed, "server", "request names an unknown stream");
        return;
      }
      if (cfg_.workload == Workload::kRpc) {
        if (s.rpc_stream < 0) s.rpc_stream = static_cast<std::int64_t>(stream);
        if (static_cast<std::size_t>(s.rpc_stream) != stream || seq != s.next_seq) {
          fail(s.failed, "server", "request out of sequence");
          return;
        }
      }
      const Draw& d = in_.draw(stream, seq);
      if (s.inbox.size() < d.req_size) return;
      in_.request(stream, seq, scratch_);
      if (s.inbox.size() != d.req_size ||
          std::memcmp(s.inbox.data(), scratch_.data(), d.req_size) != 0) {
        fail(s.failed, "server", "request bytes differ from the seeded request");
        return;
      }
      s.inbox.clear();
      ++s.next_seq;
      shared_.verified_bytes[kServerTier].add(d.req_size);
      reply(s, in_.response(stream, seq));
    }
  }

  void reply(ServerConn& s, ByteView data) {
    {
      const Scope span(tr(kServerTier), kSessionSend);
      s.session->send(data);
    }
    {
      const Scope span(tr(kServerTier), kFlush);
      s.binding->flush();
    }
    shared_.s2c_records.add(1);
    shared_.s2c_bytes.add(data.size());
  }

  void server_tick() {
    const Scope span(tr(kServerTier), kTick);
    shared_.rounds[kServerTier].add(1);
    sweep(server_conns_, [this](ServerConn& s) {
      if (s.acct.established) records_[kServerTier].push_back(record_of(s.acct));
    });
  }

  /// Free the objects of closed sessions, between dispatch rounds (never
  /// inside one of their own callbacks).
  template <typename T, typename F>
  static void sweep(std::vector<std::unique_ptr<T>>& v, F&& on_retire) {
    const auto dead = std::partition(v.begin(), v.end(), [](const auto& p) { return !p->retired; });
    if (dead == v.end()) return;
    for (auto it = dead; it != v.end(); ++it) on_retire(**it);
    v.erase(dead, v.end());
  }

  const Config& cfg_;
  const Inputs& in_;
  const std::atomic<bool>& tracing_;
  const std::atomic<bool>& measuring_;
  const bench::Identity server_id_, mbox_id_;
  // One client cache per dialer: each dialer is its own client. A cache
  // shared by concurrent sessions can pair one session's primary state with
  // another's secondary (middlebox) state, and that resumption then fails
  // its Finished check ("record authentication failed").
  std::array<ShardedSessionCache, kSessions> client_caches_;
  ShardedSessionCache mbox_cache_, server_cache_;
  CertPool cert_pool_;
  std::array<std::unique_ptr<Tracer>, kTiers> tracers_;
  Shared shared_;
  // Bulk: send time of each record in flight, written by the client loop and
  // read by the server loop.
  std::array<std::atomic<std::uint64_t>, kSessions * kLatencyRing> sent_at_{};
  std::size_t key_len_ = 0;
  std::array<std::atomic<clockid_t>, kTiers> cpu_clock_{};
  std::array<std::atomic<bool>, kTiers> clock_known_{};

  // Client-tier state (client loop thread only).
  std::vector<std::unique_ptr<ClientSlot>> client_slots_;
  std::array<std::uint64_t, kSessions> dialer_sessions_{};
  std::uint64_t client_dials_ = 0;
  bool go_ = false;
  // Middlebox-tier state.
  std::vector<std::unique_ptr<MboxSlot>> mbox_slots_;
  std::uint64_t retired_auth_failures_ = 0;
  // Server-tier state.
  std::vector<std::unique_ptr<ServerConn>> server_conns_;
  std::uint64_t server_accepts_ = 0;
  Bytes scratch_;
  // Written by the tier that completes operations (server for bulk, client
  // otherwise); read after stop().
  Latencies latencies_us_;
  std::array<std::uint64_t, kSessions> window_ops_{};
  std::array<std::vector<SessionRecord>, kTiers> records_;

  net::Port server_port_ = 0, mbox_port_ = 0;
  // Declared last: the loop threads stop (in ~Rig) before anything above is
  // destroyed.
  LoopGroup server_{{1, LoopGroup::DialPolicy::kRoundRobin}};
  LoopGroup mbox_{{1, LoopGroup::DialPolicy::kRoundRobin}};
  LoopGroup client_{{1, LoopGroup::DialPolicy::kRoundRobin}};
};

// ---------------------------------------------------------------- snapshot

/// Every counter the per-layer metrics are derived from, summed over the
/// traced slices (or the untraced ones).
struct Window {
  double seconds = 0;
  std::array<double, kTiers> cpu_ns{}, rounds{}, toplevel_ns{}, read_bytes{}, send_bytes{};
  std::array<std::array<double, kKinds>, kTiers> count{}, total_ns{}, self_ns{};
  double ops = 0, bytes = 0, c2s_records = 0, c2s_bytes = 0, s2c_records = 0, s2c_bytes = 0;
  double mbox_records = 0;
};

struct Snapshot {
  std::uint64_t t_ns = 0;
  std::array<std::uint64_t, kTiers> cpu_ns{}, rounds{}, toplevel_ns{}, read_bytes{}, send_bytes{};
  std::array<std::array<std::uint64_t, kKinds>, kTiers> count{}, total_ns{}, self_ns{};
  std::uint64_t ops = 0, bytes = 0, c2s_records = 0, c2s_bytes = 0, s2c_records = 0,
                s2c_bytes = 0, mbox_records = 0;

  static Snapshot take(Rig& rig) {
    Snapshot s;
    Shared& sh = rig.shared();
    s.t_ns = now_ns();
    for (int t = 0; t < kTiers; ++t) {
      s.cpu_ns[t] = rig.cpu_ns(static_cast<Tier>(t));
      s.rounds[t] = sh.rounds[t].get();
      s.bytes += sh.verified_bytes[t].get();
      if (const Tracer* tr = rig.tracer(static_cast<Tier>(t))) {
        s.toplevel_ns[t] = tr->toplevel_ns.get();
        s.read_bytes[t] = tr->read_bytes.get();
        s.send_bytes[t] = tr->send_bytes.get();
        for (int k = 0; k < kKinds; ++k) {
          s.count[t][k] = tr->count[k].get();
          s.total_ns[t][k] = tr->total_ns[k].get();
          s.self_ns[t][k] = tr->self_ns[k].get();
        }
      }
    }
    s.ops = sh.ops.get();
    s.c2s_records = sh.c2s_records.get();
    s.c2s_bytes = sh.c2s_bytes.get();
    s.s2c_records = sh.s2c_records.get();
    s.s2c_bytes = sh.s2c_bytes.get();
    s.mbox_records = sh.mbox_records.get();
    return s;
  }
};

/// w += b - a
void accumulate(Window& w, const Snapshot& a, const Snapshot& b) {
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  w.seconds += d(a.t_ns, b.t_ns) / 1e9;
  for (int t = 0; t < kTiers; ++t) {
    w.cpu_ns[t] += d(a.cpu_ns[t], b.cpu_ns[t]);
    w.rounds[t] += d(a.rounds[t], b.rounds[t]);
    w.toplevel_ns[t] += d(a.toplevel_ns[t], b.toplevel_ns[t]);
    w.read_bytes[t] += d(a.read_bytes[t], b.read_bytes[t]);
    w.send_bytes[t] += d(a.send_bytes[t], b.send_bytes[t]);
    for (int k = 0; k < kKinds; ++k) {
      w.count[t][k] += d(a.count[t][k], b.count[t][k]);
      w.total_ns[t][k] += d(a.total_ns[t][k], b.total_ns[t][k]);
      w.self_ns[t][k] += d(a.self_ns[t][k], b.self_ns[t][k]);
    }
  }
  w.ops += d(a.ops, b.ops);
  w.bytes += d(a.bytes, b.bytes);
  w.c2s_records += d(a.c2s_records, b.c2s_records);
  w.c2s_bytes += d(a.c2s_bytes, b.c2s_bytes);
  w.s2c_records += d(a.s2c_records, b.s2c_records);
  w.s2c_bytes += d(a.s2c_bytes, b.s2c_bytes);
  w.mbox_records += d(a.mbox_records, b.mbox_records);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double busiest_cpu_ns(const Window& w) {
  return *std::max_element(w.cpu_ns.begin(), w.cpu_ns.end());
}

// ---------------------------------------------------------------- ceilings

/// Same-host AEAD ceiling: ns for one tls::HopChannel seal_into plus
/// open_in_place of a `size`-byte record, median of five timed batches.
double seal_open_ns(std::size_t size, std::size_t key_len) {
  Rng rng(0xce11 + size);
  const tls::DirectionKeys keys{rng.bytes(key_len), rng.bytes(4)};
  tls::HopChannel sealer(keys), opener(keys);
  const Bytes payload = rng.bytes(size);
  Bytes wire;
  const auto once = [&] {
    wire.clear();
    sealer.seal_into(tls::ContentType::kApplicationData, payload, wire);
    const MutableByteView body(wire.data() + tls::kRecordHeaderSize,
                               wire.size() - tls::kRecordHeaderSize);
    if (!opener.open_in_place(tls::ContentType::kApplicationData, body))
      throw std::runtime_error("ceiling: open_in_place rejected its own record");
  };
  std::size_t iters = 16;
  for (;;) {  // calibrate one batch to ~5 ms
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) once();
    if (now_ns() - t0 > 5'000'000 || iters > (1u << 22)) break;
    iters *= 2;
  }
  std::vector<double> per_op;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) once();
    per_op.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(iters));
  }
  return median(per_op);
}

struct Ceilings {
  std::vector<std::pair<std::size_t, double>> points;  // size -> ns
  double a = 0, b = 0;                                 // least-squares ns = a + b * size

  double ns(double records, double bytes) const { return a * records + b * bytes; }
};

Ceilings measure_ceilings(std::size_t key_len) {
  Ceilings c;
  for (const std::size_t size : {64, 256, 1024, 4096, 16384})
    c.points.emplace_back(size, seal_open_ns(size, key_len));
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(c.points.size());
  for (const auto& [x, y] : c.points) {
    sx += static_cast<double>(x);
    sy += y;
    sxx += static_cast<double>(x) * static_cast<double>(x);
    sxy += static_cast<double>(x) * y;
  }
  c.b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  c.a = (sy - c.b * sx) / n;
  return c;
}

// ------------------------------------------------------------------ output

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + buf +
             ", \"unit\": \"" + unit + "\"}";
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_host(const Config& cfg) {
  utsname u{};
  uname(&u);
  rlimit lim{};
  getrlimit(RLIMIT_NOFILE, &lim);
  bench::Json host = bench::Json::object();
  host.add("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .add("cpu_model", cpu_model())
      .add("kernel", std::string(u.release))
      .add("rlimit_nofile", static_cast<double>(lim.rlim_cur))
      .add("seed", std::to_string(cfg.seed))
      .add("git_commit", cfg.commit)
      .add("workload", cfg.workload_name)
      .add("trace", cfg.trace ? 1.0 : 0.0);
  bench::add_backend_fields(host);
  std::printf("host %s\n", host.str().c_str());
}

// ---------------------------------------------------------------- the run

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  Metrics metrics;
};

void write_trace(const std::string& path, const Rig& rig, std::uint64_t t0_ns) {
  std::ofstream f(path);
  f << "{\"traceEvents\":[";
  bool first = true;
  for (int t = 0; t < kTiers; ++t) {
    const Tracer* tr = rig.tracer(static_cast<Tier>(t));
    if (!tr) continue;
    for (const SpanRecord& s : tr->retained) {
      f << (first ? "" : ",\n") << "{\"name\":\"" << kKindName[s.kind] << "\",\"cat\":\""
        << kTierName[t] << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t
        << ",\"ts\":" << static_cast<double>(s.start_ns - t0_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3 << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"session\":" << s.session << "}}";
      first = false;
    }
  }
  f << "]}\n";
}

/// Per-layer metrics from the traced slices `w`, the session records and
/// the same-host ceilings.
void per_layer(Result& res, Rig& rig, const Window& w, const Ceilings& ceil, Workload workload,
               double overhead_pct, double rss_kb_per_session) {
  Metrics& m = res.metrics;
  const auto self = [&](Tier t, Kind k) { return w.self_ns[t][k]; };
  const double ops = w.ops;
  const double records[kTiers] = {w.c2s_records, w.c2s_records + w.s2c_records, w.s2c_records};
  for (int t = 0; t < kTiers; ++t) {
    const std::string tier = kTierName[t];
    m.add("net.posix.loop_ns_per_byte." + tier, ratio(w.cpu_ns[t], w.bytes), "ns/B");
    m.add("net.posix.self_ns_per_byte." + tier, ratio(w.cpu_ns[t] - w.toplevel_ns[t], w.bytes),
          "ns/B");
    m.add("net.posix.send_ns_per_record." + tier,
          ratio(w.total_ns[t][kSend], records[t]), "ns");
  }
  const double mbox_reads = w.count[kMboxTier][kOnData] + w.count[kMboxTier][kOnDataUp];
  m.add("net.posix.reads_per_record.mbox", ratio(mbox_reads, w.mbox_records), "count");
  m.add("net.posix.sends_per_record.mbox", ratio(w.count[kMboxTier][kSend], w.mbox_records),
        "count");
  for (int t = 0; t < kTiers; ++t)
    m.add(std::string("net.posix.rounds_per_op.") + kTierName[t], ratio(w.rounds[t], ops), "count");
  for (int t = 0; t < kTiers; ++t)
    m.add(std::string("net.posix.writable_edges_per_s.") + kTierName[t],
          ratio(w.count[t][kOnWritable], w.seconds), "1/s");
  std::vector<double> connects;
  for (int t = 0; t < kTiers; ++t)
    for (const double c : rig.tracer(static_cast<Tier>(t))->connect_ms) connects.push_back(c);
  m.add("net.posix.tcp_connect_ms.p50", median(connects), "ms");
  m.add("net.posix.busiest_loop_busy_share", ratio(busiest_cpu_ns(w), w.seconds * 1e9), "ratio");
  m.add("net.posix.session_fairness", rig.fairness(), "ratio");

  const double c2s_handle = self(kMboxTier, kOnData);
  const double s2c_handle = self(kMboxTier, kOnDataUp);
  m.add("mbtls.middlebox.handle_ns_per_record.c2s", ratio(c2s_handle, w.c2s_records), "ns");
  m.add("mbtls.middlebox.handle_ns_per_record.s2c", ratio(s2c_handle, w.s2c_records), "ns");
  m.add("mbtls.middlebox.bytes_per_read", ratio(w.read_bytes[kMboxTier], mbox_reads), "B");
  const double aead_ns =
      ceil.ns(w.c2s_records, w.c2s_bytes) + ceil.ns(w.s2c_records, w.s2c_bytes);
  m.add("mbtls.middlebox.aead_share", ratio(aead_ns, c2s_handle + s2c_handle), "ratio");

  // Handshake self time per party, and the churn wait: connect latency minus
  // the three parties' summed self time for that session.
  const std::vector<SessionRecord> client = rig.records(kClientTier);
  std::map<std::uint64_t, SessionRecord> by_key[kTiers];
  for (int t = kMboxTier; t <= kServerTier; ++t)
    for (const SessionRecord& r : rig.records(static_cast<Tier>(t))) by_key[t][r.key] = r;
  std::vector<double> hs[kTiers][2], wait;
  std::size_t offered = 0, resumed_all = 0;
  for (const SessionRecord& c : client) {
    const auto mi = by_key[kMboxTier].find(c.key);
    const auto si = by_key[kServerTier].find(c.key);
    const bool joined = mi != by_key[kMboxTier].end() && si != by_key[kServerTier].end();
    if (c.measured && c.offered) {
      ++offered;
      if (joined && c.resumed && mi->second.resumed && si->second.resumed) ++resumed_all;
    }
    if (!joined || !c.traced || !mi->second.traced || !si->second.traced) continue;
    hs[kClientTier][c.resumed].push_back(c.self_ms);
    hs[kMboxTier][mi->second.resumed].push_back(mi->second.self_ms);
    hs[kServerTier][si->second.resumed].push_back(si->second.self_ms);
    wait.push_back(c.connect_ms - c.self_ms - mi->second.self_ms - si->second.self_ms);
  }
  const char* party[kTiers] = {"mbtls.client", "mbtls.middlebox", "mbtls.server"};
  for (int t = 0; t < kTiers; ++t) {
    m.add(std::string(party[t]) + ".handshake_ms.full", median(hs[t][0]), "ms");
    m.add(std::string(party[t]) + ".handshake_ms.resumed", median(hs[t][1]), "ms");
  }
  m.add("mbtls.middlebox.auth_failures", static_cast<double>(rig.auth_failures()), "count");

  m.add("mbtls.client.send_ns_per_record", ratio(self(kClientTier, kSessionSend),
                                                 w.count[kClientTier][kSessionSend]), "ns");
  m.add("mbtls.client.flush_ns_per_record", ratio(self(kClientTier, kFlush), w.c2s_records), "ns");
  m.add("mbtls.client.handle_ns_per_record", ratio(self(kClientTier, kOnData), w.s2c_records),
        "ns");
  m.add("mbtls.server.handle_ns_per_record", ratio(self(kServerTier, kOnData), w.c2s_records),
        "ns");
  m.add("mbtls.server.reply_ns_per_record",
        ratio(self(kServerTier, kSessionSend) + self(kServerTier, kFlush), w.s2c_records), "ns");

  for (int t = 0; t < kTiers; ++t)
    m.add(std::string("mbtls.cache.session_hit_rate.") + kTierName[t],
          rig.cache_stats(static_cast<Tier>(t)).hit_rate(), "ratio");
  m.add("mbtls.cache.cert_pool_hit_rate", rig.cert_pool_stats().hit_rate(), "ratio");
  m.add("mbtls.cache.resumed_fraction", ratio(static_cast<double>(resumed_all),
                                              static_cast<double>(offered)), "ratio");
  for (const auto& [size, ns] : ceil.points)
    m.add("tls.record_seal_open_ns." + std::to_string(size), ns, "ns");
  m.add("churn.wait_ms.p50", percentile(wait, 0.5), "ms");
  m.add("churn.wait_ms.p99", percentile(wait, tail_quantile(wait.size())), "ms");
  m.add("mem.rss_kb_per_session", rss_kb_per_session, "kB");
  m.add("trace.overhead_pct", overhead_pct, "%");

  // The acceptance checks that only the traced run can see.
  std::size_t measured_dials = 0;
  for (const SessionRecord& c : client) measured_dials += c.measured ? 1 : 0;
  if (workload == Workload::kChurn && measured_dials > 0) {
    const double offer_share = static_cast<double>(offered) / static_cast<double>(measured_dials);
    const double resumed_share =
        static_cast<double>(resumed_all) / static_cast<double>(measured_dials);
    std::printf("churn: %zu dials, offered %.3f, resumed at all three parties %.3f, "
                "server cache hits %llu\n",
                measured_dials, offer_share, resumed_share,
                static_cast<unsigned long long>(rig.cache_stats(kServerTier).hits));
    if (std::fabs(resumed_share - offer_share) > 0.05 || rig.cache_stats(kServerTier).hits == 0) {
      std::fprintf(stderr, "perfbench: resumption fell back to full handshakes\n");
      res.correct = false;
    }
  }
}

int run(const Config& cfg) {
  print_host(cfg);
  (void)bench::ca();  // the process-wide CA, created once
  const Inputs in = make_inputs(cfg.seed);
  std::atomic<bool> tracing{false}, measuring{false};
  const std::uint64_t t0 = now_ns();

  Ceilings ceil;
  if (cfg.trace) ceil = measure_ceilings(32);

  // Set-up, repeated: identities, caches, loop groups, listeners, threads,
  // and for bulk/rpc the four established sessions. The last one stays up.
  // setup_s is the process CPU time a set-up takes, over all threads: the
  // work a change could move into set-up. Its wall time is printed too, but
  // on a shared VM one 10 ms steal of a vCPU is most of a set-up's wall time,
  // while thread CPU clocks do not count stolen time.
  std::vector<double> setup_cpu_s, setup_wall_s;
  std::unique_ptr<Rig> rig;
  std::uint64_t rss_before = 0;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    tracing.store(cfg.trace);  // handshake spans of the bulk/rpc sessions
    rss_before = rss_kb();
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t s0 = now_ns();
    rig = std::make_unique<Rig>(cfg, in, tracing, measuring);
    rig->start();
    if (!rig->establish(30)) {
      std::fprintf(stderr, "perfbench: set-up did not establish %zu sessions\n", kSessions);
      return 1;
    }
    setup_wall_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    setup_cpu_s.push_back(process_cpu_seconds() - cpu0);
  }
  tracing.store(false);
  if (cfg.trace && rig->key_len() != 0 && rig->key_len() != 32) ceil = measure_ceilings(rig->key_len());

  const double warmup_s = std::min(0.5, cfg.seconds / 4);
  rig->go();
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));

  // Measured window. Untraced: half-second sub-windows whose medians are the
  // reported rates, so one transient stall of the shared host does not move
  // them. Traced: four alternating slices (untraced, traced, untraced,
  // traced), so the tracing overhead is measured within the same run.
  const int slices =
      cfg.trace ? 4 : std::max(1, static_cast<int>(std::lround(cfg.seconds / 0.5)));
  Window plain, traced;
  struct Sub {
    std::uint64_t t0, t1;
    double steal_share, goodput, capacity, ops;
  };
  std::vector<Sub> subs;
  const double ncpu = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  bool runaway = false;
  measuring.store(true);
  for (int i = 0; i < slices && !runaway; ++i) {
    const bool traced_slice = cfg.trace && i % 2 == 1;
    tracing.store(traced_slice);
    const double steal0 = steal_seconds();
    const Snapshot a = Snapshot::take(*rig);
    const std::uint64_t end = a.t_ns + static_cast<std::uint64_t>(cfg.seconds / slices * 1e9);
    while (now_ns() < end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (rss_kb() > kRssLimitKb) {
        std::fprintf(stderr, "perfbench: RSS passed %llu kB: unbounded buffering\n",
                     static_cast<unsigned long long>(kRssLimitKb));
        runaway = true;
        break;
      }
    }
    const Snapshot b = Snapshot::take(*rig);
    accumulate(traced_slice ? traced : plain, a, b);
    Window sub;
    accumulate(sub, a, b);
    subs.push_back({a.t_ns, b.t_ns, ratio(steal_seconds() - steal0, sub.seconds * ncpu),
                    ratio(sub.bytes * 8, sub.seconds) / 1e9,
                    ratio(sub.bytes * 8, busiest_cpu_ns(sub) / 1e9) / 1e9,
                    ratio(sub.ops, sub.seconds)});
  }
  measuring.store(false);
  tracing.store(false);
  rig->stop();
  const std::uint64_t timeouts = rig->timeouts();

  Result res;
  const std::uint64_t auth = rig->auth_failures();
  res.failed = rig->shared().failed.load() + timeouts + auth + (runaway ? 1 : 0);
  res.attempted = static_cast<std::uint64_t>(plain.ops + traced.ops) + res.failed;
  res.correct = res.failed == 0;
  const std::uint64_t rss_after = rss_kb();
  const double rss_per_session =
      static_cast<double>(rss_after > rss_before ? rss_after - rss_before : 0) /
      static_cast<double>(std::max<std::uint64_t>(1, rig->sessions_established()));

  // Medians over the sub-windows the host left alone, and over the latency
  // blocks that ended in them.
  std::size_t clean = 0;
  double steal = 0;
  for (const Sub& w : subs) {
    clean += w.steal_share <= kStealLimit ? 1 : 0;
    steal += w.steal_share / static_cast<double>(subs.size());
  }
  const bool filter = clean > 0 && clean * 4 >= subs.size();
  const auto counted = [&](const Sub& w) { return !filter || w.steal_share <= kStealLimit; };
  std::vector<double> sub_goodput, sub_capacity, sub_ops;
  for (const Sub& w : subs) {
    if (!counted(w)) continue;
    sub_goodput.push_back(w.goodput);
    sub_capacity.push_back(w.capacity);
    sub_ops.push_back(w.ops);
  }
  const Latencies& lat = rig->latencies_us();
  std::vector<double> block_p50, block_p99;
  for (const Latencies::Block& b : lat.blocks()) {
    const bool in_counted = std::any_of(subs.begin(), subs.end(), [&](const Sub& w) {
      return counted(w) && b.end_ns >= w.t0 && b.end_ns < w.t1;
    });
    if (!in_counted) continue;
    block_p50.push_back(b.p50);
    block_p99.push_back(b.p99);
  }
  const double lat_p50 = block_p50.empty() ? lat.partial(false) : median(block_p50);
  const double lat_tail = block_p99.empty() ? lat.partial(true) : median(block_p99);
  const double tail_q = block_p99.empty() ? tail_quantile(lat.count()) : 0.99;
  const double goodput = median(sub_goodput);
  const double capacity = median(sub_capacity);
  const double ops_per_s = median(sub_ops);
  const double busy = ratio(busiest_cpu_ns(plain), plain.seconds * 1e9);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_peak_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::printf("%s: %.0f ops in %.3f s (median %.1f/s over %zu sub-windows), %.0f verified "
              "bytes, %zu latency samples, percentiles over %zu blocks (tail = p%.2f), busiest "
              "loop %.1f%% busy\n",
              cfg.workload_name.c_str(), plain.ops, plain.seconds, ops_per_s, sub_ops.size(),
              plain.bytes, lat.count(), block_p99.size(), tail_q * 100, busy * 100);
  std::printf("host: %.2f%% of CPU time stolen by the hypervisor; %zu of %zu sub-windows under "
              "%.0f%%%s\n",
              steal * 100, clean, subs.size(), kStealLimit * 100,
              filter ? ", medians over those" : ", medians over all");
  std::printf("set-up: median %.6f s of CPU time, %.6f s wall, over %d set-ups\n",
              median(setup_cpu_s), median(setup_wall_s), kSetups);
  if (!sub_ops.empty())
    std::printf("ops/s over sub-windows: min %.1f, median %.1f, max %.1f\n",
                *std::min_element(sub_ops.begin(), sub_ops.end()), ops_per_s,
                *std::max_element(sub_ops.begin(), sub_ops.end()));
  switch (cfg.workload) {
    case Workload::kBulk:
      std::printf("bulk: goodput_gbps %.4f capacity_gbps %.4f\n", goodput, capacity);
      break;
    case Workload::kRpc:
      std::printf("rpc: rpc_per_s %.1f rpc_p50_us %.1f rpc_p99_us %.1f\n", ops_per_s, lat_p50,
                  lat_tail);
      break;
    case Workload::kChurn:
      std::printf("churn: handshakes_per_s %.1f connect_p50_ms %.3f connect_p99_ms %.3f\n",
                  ops_per_s, lat_p50 / 1e3, lat_tail / 1e3);
      break;
  }
  std::printf("fail_ratio %.6f (%llu failed of %llu attempted, %llu middlebox auth failures)\n",
              ratio(static_cast<double>(res.failed), static_cast<double>(res.attempted)),
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(auth));

  if (!cfg.trace) {
    if (cfg.workload == Workload::kBulk && busy < 0.9)
      std::printf("warning: busiest loop only %.1f%% busy; goodput is not loop-bound\n",
                  busy * 100);
    res.metrics.add("goodput_gbps", goodput, "Gbit/s");
    res.metrics.add("capacity_gbps", capacity, "Gbit/s");
    res.metrics.add("ops_per_s", ops_per_s, "1/s");
    res.metrics.add("latency_p50_us", lat_p50, "us");
    res.metrics.add("latency_p99_us", lat_tail, "us");
    res.metrics.add("setup_s", median(setup_cpu_s), "s");
    res.metrics.add("rss_peak_mb", rss_peak_mb, "MiB");
  } else {
    const double rate_plain = ratio(plain.ops, plain.seconds);
    const double rate_traced = ratio(traced.ops, traced.seconds);
    const double overhead = rate_plain > 0 ? (rate_plain - rate_traced) / rate_plain * 100 : 0;
    std::printf("tracing overhead: %.2f%% (%.1f ops/s untraced, %.1f ops/s traced)\n", overhead,
                rate_plain, rate_traced);
    per_layer(res, *rig, traced, ceil, cfg.workload, overhead, rss_per_session);
    if (!cfg.trace_out.empty()) write_trace(cfg.trace_out, *rig, t0);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), res.metrics.json().c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: mbtls_perfbench --workload bulk|rpc|churn --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--commit SHA]\n");
  return 2;
}

}  // namespace
}  // namespace mbtls::perfbench

int main(int argc, char** argv) {
  using namespace mbtls::perfbench;
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload_name = value;
      if (value == "bulk") cfg.workload = Workload::kBulk;
      else if (value == "rpc") cfg.workload = Workload::kRpc;
      else if (value == "churn") cfg.workload = Workload::kChurn;
      else return usage();
    } else if (flag == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else if (flag == "--commit") {
      cfg.commit = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || cfg.seconds <= 0) return usage();

  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
