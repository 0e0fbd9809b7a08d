// Span tracing for the end-to-end benchmark, recorded entirely in the
// benchmark's own code around its calls into the program's layers.
//
// One Tracer per tier (client, middlebox, server). Each tier runs on exactly
// one loop thread, so a tracer's span stack and retained spans are touched by
// that thread only; its counters are single-writer relaxed atomics so the
// main thread can snapshot them at measurement-slice edges while the loop
// runs.
//
// A span's self time is its duration minus the time covered by its child
// spans. TracedStream is a thin net::Stream decorator handed to the bindings
// in place of the raw posix stream: it times send() and the on_data /
// on_writable / on_connect / on_close callbacks, so a callback's self time is
// the binding-plus-session work of that event with nested sends excluded.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "net/transport.h"

namespace mbtls::perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

enum Tier : std::uint8_t { kClientTier, kMboxTier, kServerTier, kTiers };
inline constexpr const char* kTierName[kTiers] = {"client", "mbox", "server"};

enum Kind : std::uint8_t {
  kOnData,       // stream on_data (middlebox: the downstream, client -> server side)
  kOnDataUp,     // middlebox upstream on_data (server -> client side)
  kOnWritable,   // stream on_writable
  kOnConnect,    // stream on_connect
  kOnClose,      // stream on_close
  kSend,         // net::Stream::send
  kAccept,       // listener accept handler: session + binding construction
  kDial,         // dial + session + binding construction
  kSessionSend,  // ClientSession::send / ServerSession::send
  kFlush,        // SocketBinding::flush called by the benchmark
  kBench,        // the benchmark's own payload generation and byte checks
  kTick,         // the per-round LoopGroup tick
  kKinds
};
inline constexpr const char* kKindName[kKinds] = {
    "on_data", "on_data.up", "on_writable", "on_connect", "on_close", "send",
    "accept",  "dial",       "session_send", "flush",     "bench",    "tick"};

/// A counter with one writing thread and any number of readers.
class Counter {
 public:
  void add(std::uint64_t v) { v_.store(v_.load(std::memory_order_relaxed) + v, std::memory_order_relaxed); }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Per-session handshake accounting on one tier: the layer self time of
/// every span that began before the session came up.
struct SessionAcct {
  std::uint64_t key = 0;      // first 8 bytes of the ClientHello random
  std::uint64_t self_ns = 0;  // layer self time until established / joined
  bool keyed = false;
  bool established = false;
  bool resumed = false;
  bool traced = false;  // tracing was on when the session started and when it came up
};

struct SpanRecord {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint64_t session;
  Kind kind;
};

class Tracer {
 public:
  explicit Tracer(const std::atomic<bool>& enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return enabled_.load(std::memory_order_relaxed); }

  void begin(Kind kind, SessionAcct* acct) {
    Frame& f = stack_[depth_++];
    f.kind = kind;
    f.id = next_id_++;
    f.child_ns = 0;
    // Work that starts after the session is up is data plane, not handshake.
    f.acct = (acct && !acct->established) ? acct : nullptr;
    f.start_ns = now_ns();
  }

  void end() {
    const std::uint64_t t = now_ns();
    const Frame f = stack_[--depth_];
    const std::uint64_t dur = t - f.start_ns;
    const std::uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
    count[f.kind].add(1);
    total_ns[f.kind].add(dur);
    self_ns[f.kind].add(self);
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
    } else {
      toplevel_ns.add(dur);
    }
    if (f.acct && f.kind != kSend && f.kind != kBench) f.acct->self_ns += self;
    if (retained.size() < kRetainedCap) {
      retained.push_back({f.id, depth_ > 0 ? stack_[depth_ - 1].id : 0, f.start_ns, dur,
                          f.acct ? f.acct->key : 0, f.kind});
    }
  }

  static constexpr std::size_t kRetainedCap = 10000;

  std::array<Counter, kKinds> count, total_ns, self_ns;
  Counter toplevel_ns;  // time inside top-level spans: callbacks, posted dials, tick
  Counter read_bytes;   // bytes delivered to on_data
  Counter send_bytes;   // bytes passed to send()
  std::vector<SpanRecord> retained;  // the first kRetainedCap spans, for the trace file
  std::vector<double> connect_ms;    // dial -> on_connect of traced dials

 private:
  struct Frame {
    Kind kind;
    std::uint64_t id;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    SessionAcct* acct;
  };
  const std::atomic<bool>& enabled_;
  std::array<Frame, 32> stack_{};
  std::size_t depth_ = 0;
  std::uint64_t next_id_ = 1;
};

/// RAII span; a no-op when the tracer is absent (untraced run) or disabled.
class Scope {
 public:
  Scope(Tracer* tracer, Kind kind, SessionAcct* acct = nullptr)
      : t_(tracer && tracer->on() ? tracer : nullptr) {
    if (t_) t_->begin(kind, acct);
  }
  ~Scope() {
    if (t_) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  bool active() const { return t_ != nullptr; }

 private:
  Tracer* t_;
};

/// Timing decorator over a backend stream. Owned by the benchmark; the
/// wrapped stream is owned by its loop and outlives this object, and a
/// decorator is only destroyed after its stream has closed (a closed posix
/// stream fires no further callbacks).
class TracedStream final : public net::Stream {
 public:
  TracedStream(net::Stream& inner, Tracer& tracer, SessionAcct& acct, Kind data_kind)
      : inner_(inner), tracer_(tracer), acct_(acct), created_ns_(now_ns()) {
    inner_.on_data = [this, data_kind](ByteView d) {
      const Scope s(&tracer_, data_kind, &acct_);
      if (s.active()) tracer_.read_bytes.add(d.size());
      if (on_data) on_data(d);
    };
    inner_.on_writable = [this] {
      const Scope s(&tracer_, kOnWritable, &acct_);
      if (on_writable) on_writable();
    };
    inner_.on_connect = [this] {
      const Scope s(&tracer_, kOnConnect, &acct_);
      if (s.active()) tracer_.connect_ms.push_back(static_cast<double>(now_ns() - created_ns_) / 1e6);
      if (on_connect) on_connect();
    };
    inner_.on_close = [this] {
      const Scope s(&tracer_, kOnClose, &acct_);
      if (on_close) on_close();
    };
    inner_.on_error = [this](net::SocketError e) {
      if (on_error) on_error(e);
    };
  }
  TracedStream(const TracedStream&) = delete;
  TracedStream& operator=(const TracedStream&) = delete;

  void send(ByteView data) override {
    const Scope s(&tracer_, kSend, &acct_);
    if (s.active()) tracer_.send_bytes.add(data.size());
    inner_.send(data);
  }
  void close() override { inner_.close(); }
  void reset() override { inner_.reset(); }
  bool established() const override { return inner_.established(); }
  bool closed() const override { return inner_.closed(); }
  bool writable() const override { return inner_.writable(); }
  net::SocketError error() const override { return inner_.error(); }

 private:
  net::Stream& inner_;
  Tracer& tracer_;
  SessionAcct& acct_;
  std::uint64_t created_ns_;
};

}  // namespace mbtls::perfbench
