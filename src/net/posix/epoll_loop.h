// Production transport backend: an epoll(7) event loop with non-blocking TCP
// sockets, edge-triggered readiness, and a hierarchical timer wheel — the
// second implementation of the transport seam (net/transport.h) next to the
// discrete-event simulator.
//
// Design decisions, chosen to keep the two backends observably identical to
// the bindings above the seam:
//
//  * One loop == one thread. All calls into a loop and all its callbacks
//    happen on the thread that drives run()/poll_once(); loops share nothing,
//    so a client / middlebox / server process triple is three loops on three
//    threads talking only through the kernel (tests/test_posix_loopback.cpp).
//  * Streams are owned by the loop. A stream nobody released is never freed
//    before the loop (pointers from dial()/accept stay valid; a closed
//    stream is inert), mirroring Host/Socket lifetime rules. At the end of
//    the dispatch round in which a stream closed, the loop trims it: it
//    drops its five callbacks (and whatever they captured); its send
//    backlog's capacity goes at close. A stream that is closed and
//    released (Stream::release(), which the mbTLS bindings call on
//    destruction) is freed at that same end-of-round trim, or at the next
//    one if it is released later: a churning loop holds only its live and
//    unreleased streams. A held stream still unreleased when the loop dies
//    is left to its holder's release(), so a binding may outlive its loop.
//  * Edge-triggered EPOLLIN|EPOLLOUT: reads drain until EAGAIN, each into
//    the loop's one 256 KiB read buffer, so a read carries many records.
//    Writes go kernel-first and spill into an internal backlog on short
//    writes, drained on the next EPOLLOUT edge. writable() reports false
//    above a backlog high-water mark and on_writable fires when the backlog
//    fully drains — this is the short-write backpressure that makes the
//    bindings' symmetric pending buffers load-bearing rather than
//    theoretical.
//  * The clock is CLOCK_MONOTONIC microseconds since loop construction, so
//    deadlines arm with the same small numbers as on the simulator.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/posix/timer_wheel.h"
#include "net/transport.h"

namespace mbtls::net::posix {

class EpollLoop;

/// One non-blocking TCP connection (see net/transport.h for the contract).
class TcpStream final : public Stream {
 public:
  ~TcpStream() override;

  void send(ByteView data) override;
  void close() override;
  void reset() override;

  bool established() const override { return state_ == State::kEstablished; }
  bool closed() const override { return state_ == State::kClosed; }
  bool writable() const override {
    return state_ != State::kClosed && !fin_queued_ && backlog() < kHighWater;
  }
  SocketError error() const override { return error_; }
  void hold() override { held_ = true; }
  void release() override;

  /// Unwritten bytes queued behind a short write (0 in steady state).
  std::size_t backlog() const { return out_.size() - out_off_; }

  static constexpr std::size_t kHighWater = 256 * 1024;

 private:
  friend class EpollLoop;

  enum class State { kConnecting, kEstablished, kFinWait, kClosed };

  TcpStream(EpollLoop& loop, int fd, State state) : loop_(loop), fd_(fd), state_(state) {}

  void handle_events(std::uint32_t events);
  void handle_readable();
  void complete_connect();
  void try_flush_out();
  void fail(SocketError err);
  void become_closed();
  void queue_trim();
  void drop_callbacks();

  EpollLoop& loop_;
  int fd_;
  State state_;
  std::size_t slot_ = 0;      // index in the loop's streams_
  bool held_ = false;         // a release() will come
  bool released_ = false;     // ... and it came: free once closed
  bool queued_ = false;       // in the loop's closed_ list
  bool orphaned_ = false;     // the loop died while held: release() frees
  Bytes out_;                 // backlog after short writes
  std::size_t out_off_ = 0;   // consumed prefix of out_
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool had_backlog_ = false;  // a drain-to-empty should fire on_writable
  SocketError error_ = SocketError::kNone;
};

/// The epoll Transport/Scheduler backend. Single-threaded; see file header.
class EpollLoop final : public Transport, public Scheduler {
 public:
  EpollLoop();
  ~EpollLoop() override;
  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  // Transport seam. `Endpoint::address` (default "127.0.0.1") + port address
  // the peer; `Endpoint::node` is ignored on this backend. listen_stream(0)
  // binds an ephemeral port and returns it.
  Stream& dial(const Endpoint& remote) override;
  Port listen_stream(Port port, StreamHandler on_accept) override {
    return listen_stream(port, std::move(on_accept), /*reuse_port=*/false);
  }
  Scheduler& scheduler() override { return *this; }

  /// Listener with SO_REUSEPORT: several loops (one per thread) bind the
  /// same port and the kernel shards incoming connections across them by
  /// 4-tuple hash — no user-space handoff, no shared accept lock. This is
  /// how LoopGroup scales accepts across cores.
  Port listen_stream(Port port, StreamHandler on_accept, bool reuse_port);

  /// Thread-safe: run `fn` on this loop's thread during its next dispatch
  /// round, waking the loop via eventfd if it is blocked in epoll_wait.
  /// The only EpollLoop entry point that may be called from another thread
  /// (everything else — dial, listen, send — stays loop-thread-only).
  /// Posted work counts against idle(): a loop with queued posts is not
  /// drained.
  void post(std::function<void()> fn);

  // Scheduler seam: CLOCK_MONOTONIC microseconds since construction.
  Time now() const override;
  void schedule(Time delay, std::function<void()> fn) override;

  /// Run until every stream is closed and every timer fired (listeners do
  /// not keep the loop alive), or `max_rounds` dispatch rounds elapse.
  RunStatus run(std::size_t max_rounds = 10'000'000);

  /// Run until `deadline` on this loop's clock (or idle / budget).
  RunStatus run_until(Time deadline, std::size_t max_rounds = 10'000'000);

  /// One dispatch round: advance timers, wait up to `max_wait` for socket
  /// readiness, dispatch, advance timers again. Returns true if any timer
  /// fired or event dispatched. `max_wait == 0` polls without blocking —
  /// how a driver interleaves several loops on one thread.
  bool poll_once(Time max_wait = 0);

  /// No open streams, no pending timers, no queued posts.
  bool idle() const;

  /// Size of the loop's one read buffer: every stream's recv() lands there,
  /// and on_data views it only for the duration of the callback. As large
  /// as the write high-water mark, so one read carries many records.
  static constexpr std::size_t kReadBufferSize = TcpStream::kHighWater;

  /// Currently open (not yet closed) streams. Safe from any thread: backed
  /// by a relaxed atomic kept by adopt()/become_closed(), which is what lets
  /// LoopGroup's least-sessions dial policy read sibling loops' load.
  std::size_t open_streams() const { return open_count_.load(std::memory_order_relaxed); }

  /// Streams the loop still owns: the open ones plus the closed ones nobody
  /// released. Loop thread only.
  std::size_t stream_count() const { return streams_.size(); }

 private:
  friend class TcpStream;

  struct Listener {
    EpollLoop* loop = nullptr;
    int fd = -1;
    Port port = 0;
    StreamHandler on_accept;
  };

  TcpStream& adopt(int fd, TcpStream::State state);
  void handle_accept(Listener& listener);
  void deregister(int fd);
  void drain_posted();
  void trim_closed();

  int epfd_ = -1;
  int wake_fd_ = -1;  // eventfd; written by post(), drained by poll_once()
  std::uint64_t t0_ns_ = 0;
  TimerWheel wheel_;
  // Not zero-filled: pages no read has touched cost no memory.
  std::unique_ptr<std::uint8_t[]> read_buf_;
  std::vector<std::unique_ptr<TcpStream>> streams_;
  // Closed (or released after closing) since the last trim_closed(); a
  // callback may be running when its stream closes, so its callbacks are
  // dropped, and a released stream freed, only at the round's end.
  std::vector<TcpStream*> closed_;
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::atomic<std::size_t> open_count_{0};

  // Cross-thread post queue. The mutex guards only the vector swap; posted
  // callbacks run unlocked on the loop thread.
  mutable std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_;
  std::atomic<std::size_t> posted_pending_{0};
};

}  // namespace mbtls::net::posix
