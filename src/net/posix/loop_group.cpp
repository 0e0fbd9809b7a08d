#include "net/posix/loop_group.h"

#include <algorithm>
#include <ctime>
#include <stdexcept>

namespace mbtls::net::posix {

namespace {
// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID). Unlike
// wall time it measures only the work this thread performed, however the OS
// timeslices it against other threads.
std::uint64_t thread_cpu_nanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

LoopGroup::LoopGroup() : LoopGroup(Options{}) {}

LoopGroup::LoopGroup(Options options) : dial_policy_(options.dial_policy) {
  const std::size_t n = std::max<std::size_t>(1, options.loops);
  loops_.reserve(n);
  accepted_.reserve(n);
  cpu_nanos_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<EpollLoop>());
    accepted_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    cpu_nanos_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
}

LoopGroup::~LoopGroup() {
  if (running()) stop();
}

Port LoopGroup::listen(Port port, GroupAcceptHandler on_accept) {
  if (running()) throw std::logic_error("LoopGroup::listen after start()");
  Port bound = 0;
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    auto wrapped = [this, i, on_accept](Stream& s) {
      accepted_[i]->fetch_add(1, std::memory_order_relaxed);
      if (on_accept) on_accept(i, s);
    };
    // Loop 0 may bind an ephemeral port; every sibling then joins that
    // exact port through its own SO_REUSEPORT socket.
    const Port want = (i == 0) ? port : bound;
    bound = loops_[i]->listen_stream(want, std::move(wrapped), /*reuse_port=*/true);
  }
  return bound;
}

std::size_t LoopGroup::pick_loop() {
  if (dial_policy_ == DialPolicy::kLeastSessions) {
    std::size_t best = 0;
    std::size_t best_open = loops_[0]->open_streams();
    for (std::size_t i = 1; i < loops_.size(); ++i) {
      const std::size_t open = loops_[i]->open_streams();
      if (open < best_open) {
        best = i;
        best_open = open;
      }
    }
    return best;
  }
  return next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
}

void LoopGroup::post(std::size_t i, std::function<void()> fn) {
  loops_[i]->post(std::move(fn));
}

std::size_t LoopGroup::post_dial(std::function<void(EpollLoop&, std::size_t)> fn) {
  const std::size_t i = pick_loop();
  EpollLoop& loop = *loops_[i];
  loop.post([&loop, i, fn = std::move(fn)] { fn(loop, i); });
  return i;
}

void LoopGroup::drive(std::size_t i, const std::function<void(std::size_t)>& tick) {
  EpollLoop& loop = *loops_[i];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    loop.poll_once(kMillisecond);
    if (tick) tick(i);
    cpu_nanos_[i]->store(thread_cpu_nanos(), std::memory_order_relaxed);
  }
  // Drain phase: give in-flight sessions up to the budget to reach closed()
  // before the loop is torn down under them.
  const Time deadline = loop.now() + drain_budget_.load(std::memory_order_acquire);
  while (!loop.idle() && loop.now() < deadline) {
    loop.poll_once(kMillisecond);
    if (tick) tick(i);
  }
  cpu_nanos_[i]->store(thread_cpu_nanos(), std::memory_order_relaxed);
}

void LoopGroup::start(std::function<void(std::size_t)> tick) {
  if (running()) throw std::logic_error("LoopGroup::start called twice");
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  threads_.reserve(loops_.size());
  for (std::size_t i = 0; i < loops_.size(); ++i)
    threads_.emplace_back([this, i, tick] { drive(i, tick); });
}

void LoopGroup::stop(Time drain_budget) {
  if (!running()) return;
  drain_budget_.store(drain_budget, std::memory_order_release);
  stop_requested_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop->post([] {});  // kick epoll_wait awake
  for (auto& t : threads_) t.join();
  threads_.clear();
  running_.store(false, std::memory_order_release);
}

std::vector<std::uint64_t> LoopGroup::accept_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(accepted_.size());
  for (const auto& a : accepted_) counts.push_back(a->load(std::memory_order_relaxed));
  return counts;
}

}  // namespace mbtls::net::posix
