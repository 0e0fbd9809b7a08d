#include "net/posix/epoll_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>

namespace mbtls::net::posix {

namespace {

std::uint64_t monotonic_nanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

SocketError map_connect_errno(int err) {
  switch (err) {
    case ETIMEDOUT:
    case EHOSTUNREACH:
    case ENETUNREACH:
      return SocketError::kRetransmitExhausted;  // peer unreachable, as in the sim
    default:
      return SocketError::kPeerReset;  // ECONNREFUSED, ECONNRESET, ...
  }
}

// Listeners and streams share one epoll instance; the low pointer bit tags
// which kind a ready event belongs to (both are heap objects, so bit 0 of
// the pointer is always free). The wakeup eventfd registers with a bare
// sentinel value no heap pointer can collide with.
constexpr std::uint64_t kListenerTag = 1;
constexpr std::uint64_t kWakeupTag = 2;

}  // namespace

// ---------------------------------------------------------------- TcpStream

TcpStream::~TcpStream() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpStream::send(ByteView data) {
  if (state_ == State::kClosed || fin_queued_)
    throw std::logic_error("TcpStream::send on closed stream");
  std::size_t off = 0;
  // Kernel-first: only a short write spills into the backlog, which the next
  // EPOLLOUT edge drains.
  if (state_ == State::kEstablished && backlog() == 0) {
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0 || errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      fail(SocketError::kPeerReset);
      return;
    }
  }
  if (off < data.size()) {
    append(out_, ByteView(data.data() + off, data.size() - off));
    had_backlog_ = true;
  }
}

void TcpStream::close() {
  if (state_ == State::kClosed || fin_queued_) return;
  fin_queued_ = true;
  if (state_ == State::kEstablished && backlog() == 0) {
    ::shutdown(fd_, SHUT_WR);
    fin_sent_ = true;
    state_ = State::kFinWait;  // keep reading until the peer's FIN
  }
  // Otherwise the FIN follows the drained backlog (try_flush_out) or the
  // completed connect.
}

void TcpStream::reset() {
  if (state_ == State::kClosed) return;
  // SO_LINGER(0) turns the close into an RST, matching the simulator's
  // Socket::reset() (on_close fires locally, error stays kNone).
  linger lin{1, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
  become_closed();
}

void TcpStream::complete_connect() {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0) err = errno;
  if (err != 0) {
    fail(map_connect_errno(err));
    return;
  }
  state_ = State::kEstablished;
  if (on_connect) on_connect();
  if (state_ != State::kClosed) try_flush_out();  // bytes queued pre-connect, or a FIN
}

void TcpStream::try_flush_out() {
  while (backlog() > 0) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_, backlog(), MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0 || errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    fail(SocketError::kPeerReset);
    return;
  }
  out_.clear();
  out_off_ = 0;
  if (fin_queued_ && !fin_sent_) {
    ::shutdown(fd_, SHUT_WR);
    fin_sent_ = true;
    if (state_ == State::kEstablished) state_ = State::kFinWait;
  }
  if (had_backlog_) {
    had_backlog_ = false;
    if (on_writable && state_ != State::kClosed && !fin_queued_) on_writable();
  }
}

void TcpStream::handle_readable() {
  // One loop-wide buffer: a read can carry many records, and the callbacks
  // of one loop never nest, so its streams can share it.
  std::uint8_t* const buf = loop_.read_buf_.get();
  while (state_ != State::kClosed) {
    const ssize_t n = ::recv(fd_, buf, EpollLoop::kReadBufferSize, 0);
    if (n > 0) {
      if (on_data) on_data(ByteView(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {  // peer FIN: clean teardown, like the simulator's FIN path
      become_closed();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    fail(SocketError::kPeerReset);
    return;
  }
}

void TcpStream::handle_events(std::uint32_t events) {
  if (state_ == State::kClosed) return;  // stale event from this dispatch batch
  if (events & EPOLLERR) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    fail(state_ == State::kConnecting ? map_connect_errno(err) : SocketError::kPeerReset);
    return;
  }
  if (state_ == State::kConnecting) {
    if (events & (EPOLLOUT | EPOLLHUP)) complete_connect();
    if (state_ == State::kClosed || state_ == State::kConnecting) return;
  }
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) handle_readable();
  if (state_ == State::kClosed) return;
  if (events & EPOLLOUT) try_flush_out();
}

void TcpStream::fail(SocketError err) {
  if (state_ == State::kClosed) return;
  error_ = err;
  if (on_error) {
    auto cb = std::move(on_error);
    on_error = nullptr;
    cb(err);
  }
  become_closed();
}

void TcpStream::become_closed() {
  if (state_ == State::kClosed) return;  // on_close fires exactly once
  state_ = State::kClosed;
  loop_.open_count_.fetch_sub(1, std::memory_order_relaxed);
  loop_.deregister(fd_);
  ::close(fd_);
  fd_ = -1;
  Bytes().swap(out_);
  out_off_ = 0;
  queue_trim();
  if (on_close) {
    auto cb = on_close;
    on_close = nullptr;
    cb();
  }
}

void TcpStream::queue_trim() {
  if (queued_) return;
  queued_ = true;
  loop_.closed_.push_back(this);
}

void TcpStream::release() {
  if (orphaned_) {  // the loop is gone and left this stream to us
    delete this;
    return;
  }
  released_ = true;
  if (state_ == State::kClosed) queue_trim();  // already trimmed: free next round
}

void TcpStream::drop_callbacks() {
  on_connect = nullptr;
  on_data = nullptr;
  on_close = nullptr;
  on_error = nullptr;
  on_writable = nullptr;
}

// ---------------------------------------------------------------- EpollLoop

EpollLoop::EpollLoop()
    : t0_ns_(monotonic_nanos()),
      read_buf_(std::make_unique_for_overwrite<std::uint8_t[]>(kReadBufferSize)) {
  epfd_ = ::epoll_create1(0);
  if (epfd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: poll_once drains the counter
  ev.data.u64 = kWakeupTag;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) throw_errno("epoll_ctl(wakeup)");
}

EpollLoop::~EpollLoop() {
  for (auto& l : listeners_)
    if (l->fd >= 0) ::close(l->fd);
  // Callbacks go first, while every stream is alive: what they captured
  // (a binding, say) may release streams as it is destroyed.
  for (auto& s : streams_) s->drop_callbacks();
  // A held stream outlives the loop until its holder's release(); the rest
  // go now. TcpStream dtors close their fds.
  for (auto& s : streams_) {
    if (!s->held_ || s->released_) continue;
    s->orphaned_ = true;
    if (s->fd_ >= 0) ::close(s->fd_);
    s->fd_ = -1;
    (void)s.release();  // unique_ptr: ownership passes to TcpStream::release()
  }
  streams_.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epfd_ >= 0) ::close(epfd_);
}

Time EpollLoop::now() const { return (monotonic_nanos() - t0_ns_) / 1000; }

void EpollLoop::schedule(Time delay, std::function<void()> fn) {
  wheel_.schedule(now(), delay, std::move(fn));
}

void EpollLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    posted_.push_back(std::move(fn));
    posted_pending_.store(posted_.size(), std::memory_order_release);
  }
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; nothing to retry.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EpollLoop::drain_posted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    batch.swap(posted_);
    posted_pending_.store(0, std::memory_order_release);
  }
  for (auto& fn : batch) fn();
}

TcpStream& EpollLoop::adopt(int fd, TcpStream::State state) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  streams_.push_back(std::unique_ptr<TcpStream>(new TcpStream(*this, fd, state)));
  open_count_.fetch_add(1, std::memory_order_relaxed);
  TcpStream& s = *streams_.back();
  s.slot_ = streams_.size() - 1;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.ptr = &s;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) throw_errno("epoll_ctl(stream)");
  return s;
}

void EpollLoop::deregister(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

Stream& EpollLoop::dial(const Endpoint& remote) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(remote.port);
  const std::string& host = remote.address.empty() ? std::string("127.0.0.1") : remote.address;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("EpollLoop::dial: bad address " + host);
  }
  // Even an immediately successful connect completes through the add-time
  // EPOLLOUT edge, so on_connect always fires after the caller had a chance
  // to install it.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    throw_errno("connect");
  }
  return adopt(fd, TcpStream::State::kConnecting);
}

Port EpollLoop::listen_stream(Port port, StreamHandler on_accept, bool reuse_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("bind");
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    throw_errno("listen");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  listeners_.push_back(std::make_unique<Listener>());
  Listener& l = *listeners_.back();
  l.loop = this;
  l.fd = fd;
  l.port = ntohs(addr.sin_port);
  l.on_accept = std::move(on_accept);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = reinterpret_cast<std::uintptr_t>(&l) | kListenerTag;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) throw_errno("epoll_ctl(listener)");
  return l.port;
}

void EpollLoop::handle_accept(Listener& listener) {
  while (true) {
    const int fd = ::accept4(listener.fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained this edge
    }
    TcpStream& s = adopt(fd, TcpStream::State::kEstablished);
    if (listener.on_accept) listener.on_accept(s);
  }
}

bool EpollLoop::poll_once(Time max_wait) {
  bool did_work = wheel_.advance(now()) > 0;
  // Don't block while cross-thread posts are queued: run them this round.
  const Time cap = posted_pending_.load(std::memory_order_acquire) > 0 ? 0 : max_wait;
  const Time wait = wheel_.time_until_next(now(), cap);
  epoll_event evs[64];
  const int timeout_ms =
      wait == 0 ? 0 : static_cast<int>(std::max<Time>(1, wait / kMillisecond));
  const int n = ::epoll_wait(epfd_, evs, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    if (evs[i].data.u64 == kWakeupTag) {  // posts drain below, every round
      std::uint64_t counter = 0;
      [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &counter, sizeof(counter));
      continue;
    }
    did_work = true;
    if (evs[i].data.u64 & kListenerTag) {
      handle_accept(*reinterpret_cast<Listener*>(evs[i].data.u64 & ~kListenerTag));
    } else {
      static_cast<TcpStream*>(evs[i].data.ptr)->handle_events(evs[i].events);
    }
  }
  // Unconditional: a post can land between the queue push and the eventfd
  // write becoming visible, and coalesced wakeups must not strand tasks.
  if (posted_pending_.load(std::memory_order_acquire) > 0) {
    drain_posted();
    did_work = true;
  }
  did_work |= wheel_.advance(now()) > 0;
  trim_closed();
  return did_work;
}

void EpollLoop::trim_closed() {
  // Dropping a callback destroys what it captured, which may close or
  // release further streams (or release this one: it is still marked
  // queued, so it is not listed twice); those join the list and go in the
  // same pass. A released stream is freed by swap-and-pop.
  while (!closed_.empty()) {
    TcpStream* s = closed_.back();
    closed_.pop_back();
    s->drop_callbacks();
    s->queued_ = false;
    if (!s->released_) continue;
    const std::size_t slot = s->slot_;
    if (slot + 1 != streams_.size()) {
      streams_[slot] = std::move(streams_.back());
      streams_[slot]->slot_ = slot;
    }
    streams_.pop_back();
  }
}

bool EpollLoop::idle() const {
  return wheel_.pending() == 0 && open_streams() == 0 &&
         posted_pending_.load(std::memory_order_acquire) == 0;
}

RunStatus EpollLoop::run(std::size_t max_rounds) {
  for (std::size_t round = 0; round < max_rounds; ++round) {
    if (idle()) return RunStatus::kDrained;
    poll_once(10 * kMillisecond);
  }
  return RunStatus::kBudgetExhausted;
}

RunStatus EpollLoop::run_until(Time deadline, std::size_t max_rounds) {
  for (std::size_t round = 0; round < max_rounds; ++round) {
    if (idle()) return RunStatus::kDrained;
    const Time t = now();
    if (t >= deadline) return RunStatus::kDeadlineReached;
    poll_once(std::min<Time>(10 * kMillisecond, deadline - t));
  }
  return RunStatus::kBudgetExhausted;
}

}  // namespace mbtls::net::posix
