// Unit tests for the posix transport backend: the hierarchical timer wheel
// in isolation, then the epoll loop against real loopback sockets (single
// thread — loops are driven explicitly with poll_once / run).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/posix/epoll_loop.h"
#include "net/posix/loop_group.h"
#include "net/posix/timer_wheel.h"

namespace mbtls::net::posix {
namespace {

// ----------------------------------------------------------------- TimerWheel
// A 1 µs tick makes ticks == microseconds, so the level boundaries sit at
// 64, 4096, and 262144 exactly.

TEST(TimerWheel, FiresInExpiryOrder) {
  TimerWheel wheel(1);
  std::vector<int> order;
  wheel.schedule(0, 5, [&] { order.push_back(5); });
  wheel.schedule(0, 2, [&] { order.push_back(2); });
  wheel.schedule(0, 9, [&] { order.push_back(9); });
  EXPECT_EQ(wheel.pending(), 3u);
  EXPECT_EQ(wheel.advance(10), 3u);
  EXPECT_EQ(order, (std::vector<int>{2, 5, 9}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, ZeroDelayFiresOnNextAdvanceNotReentrantly) {
  TimerWheel wheel(1);
  bool fired = false;
  wheel.schedule(0, 0, [&] { fired = true; });
  EXPECT_EQ(wheel.advance(0), 0u);  // not the same instant
  EXPECT_FALSE(fired);
  EXPECT_EQ(wheel.advance(1), 1u);
  EXPECT_TRUE(fired);
}

TEST(TimerWheel, FifoWithinOneTick) {
  TimerWheel wheel(1);
  std::vector<int> order;
  wheel.schedule(0, 3, [&] { order.push_back(1); });
  wheel.schedule(0, 3, [&] { order.push_back(2); });
  wheel.advance(3);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, CascadesAcrossLevelBoundaries) {
  // 100 ticks lands in level 1, 5000 in level 2: both must cascade down and
  // fire at exactly their expiry, not at a level-granularity approximation.
  TimerWheel wheel(1);
  std::vector<int> order;
  wheel.schedule(0, 100, [&] { order.push_back(100); });
  wheel.schedule(0, 5000, [&] { order.push_back(5000); });
  EXPECT_EQ(wheel.advance(99), 0u);
  EXPECT_EQ(wheel.advance(100), 1u);
  EXPECT_EQ(wheel.advance(4999), 0u);
  EXPECT_EQ(wheel.advance(5000), 1u);
  EXPECT_EQ(order, (std::vector<int>{100, 5000}));
}

TEST(TimerWheel, DeepLevelSurvivesBigIdleJump) {
  // A timer three levels deep plus a jump that crosses many cascade
  // boundaries at once: tick-by-tick advance must still land it exactly.
  TimerWheel wheel(1);
  Time fired_at = 0;
  wheel.schedule(0, 300'000, [&] { fired_at = 300'000; });
  EXPECT_EQ(wheel.advance(299'999), 0u);
  EXPECT_EQ(wheel.advance(300'000), 1u);
  EXPECT_EQ(fired_at, 300'000u);
  // And with nothing pending, a huge jump is O(1), not 4.6 hours of ticks.
  wheel.advance(16'000'000'000ull);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, CallbackMaySchedule) {
  // Re-arming from inside a callback fires on a later advance, never the
  // same round (the slot is swapped out before firing).
  TimerWheel wheel(1);
  int fires = 0;
  std::function<void()> rearm = [&] {
    if (++fires < 3) wheel.schedule(fires, 1, rearm);
  };
  wheel.schedule(0, 1, rearm);
  EXPECT_EQ(wheel.advance(1), 1u);
  EXPECT_EQ(fires, 1);
  wheel.advance(10);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, TimeUntilNextBoundsThePollTimeout) {
  TimerWheel wheel(kMillisecond);
  EXPECT_EQ(wheel.time_until_next(0, 10 * kMillisecond), 10 * kMillisecond);  // empty: cap
  wheel.schedule(0, 5 * kMillisecond, [] {});
  EXPECT_EQ(wheel.time_until_next(0, 10 * kMillisecond), 5 * kMillisecond);
  EXPECT_EQ(wheel.time_until_next(4 * kMillisecond, 10 * kMillisecond), kMillisecond);
  wheel.advance(5 * kMillisecond);
  // A far-away timer (not yet in level 0) falls back to the cap, which is
  // fine: the poll wakes early and re-evaluates.
  wheel.schedule(5 * kMillisecond, 500 * kMillisecond, [] {});
  EXPECT_EQ(wheel.time_until_next(5 * kMillisecond, 10 * kMillisecond), 10 * kMillisecond);
}

// ------------------------------------------------------------------ EpollLoop

TEST(EpollLoop, ClockStartsNearZero) {
  EpollLoop loop;
  EXPECT_LT(loop.now(), kSecond);  // monotonic-since-construction, not epoch
}

TEST(EpollLoop, EchoRoundTripAndCleanTeardown) {
  EpollLoop loop;
  std::string server_got, client_got;
  const Port port = loop.listen_stream(0, [&](Stream& s) {
    s.on_data = [&s, &server_got](ByteView data) {
      server_got.append(reinterpret_cast<const char*>(data.data()), data.size());
      s.send(data);  // echo
    };
  });
  ASSERT_NE(port, 0);

  Stream& client = loop.dial({0, port, "127.0.0.1"});
  bool connected = false;
  int client_closes = 0;
  client.on_connect = [&] {
    connected = true;
    client.send(to_bytes(std::string_view("ping")));
  };
  client.on_data = [&](ByteView data) {
    client_got.append(reinterpret_cast<const char*>(data.data()), data.size());
    if (client_got.size() == 4) client.close();  // FIN; echo side closes in turn
  };
  client.on_close = [&] { ++client_closes; };

  EXPECT_EQ(loop.run(), RunStatus::kDrained);
  EXPECT_TRUE(connected);
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "ping");
  EXPECT_EQ(client_closes, 1);  // exactly once
  EXPECT_EQ(client.error(), SocketError::kNone);
  EXPECT_EQ(loop.open_streams(), 0u);
}

TEST(EpollLoop, SendBeforeEstablishmentIsBuffered) {
  // The contract allows send() on a still-connecting stream; bytes go out on
  // establishment (the simulator behaves the same way).
  EpollLoop loop;
  std::string got;
  const Port port = loop.listen_stream(0, [&](Stream& s) {
    s.on_data = [&got, &s](ByteView data) {
      got.append(reinterpret_cast<const char*>(data.data()), data.size());
      s.close();
    };
  });
  Stream& client = loop.dial({0, port, "127.0.0.1"});
  EXPECT_FALSE(client.established());
  client.send(to_bytes(std::string_view("early")));
  client.on_close = [&] {};
  EXPECT_EQ(loop.run(), RunStatus::kDrained);
  EXPECT_EQ(got, "early");
}

TEST(EpollLoop, ConnectRefusedReportsErrorBeforeClose) {
  // Reserve a loopback port the kernel will refuse: bind+listen, read the
  // port, close the listener, dial it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const Port dead_port = ntohs(addr.sin_port);
  ::close(probe);

  EpollLoop loop;
  Stream& client = loop.dial({0, dead_port, "127.0.0.1"});
  std::vector<std::string> events;
  client.on_connect = [&] { events.push_back("connect"); };
  client.on_error = [&](SocketError e) {
    events.push_back(e == SocketError::kPeerReset ? "error:reset" : "error:other");
  };
  client.on_close = [&] { events.push_back("close"); };
  EXPECT_EQ(loop.run(), RunStatus::kDrained);
  EXPECT_EQ(events, (std::vector<std::string>{"error:reset", "close"}));
  EXPECT_FALSE(client.established());
  EXPECT_TRUE(client.closed());
  EXPECT_EQ(client.error(), SocketError::kPeerReset);
}

TEST(EpollLoop, PeerResetSurfacesAsError) {
  EpollLoop loop;
  const Port port = loop.listen_stream(0, [](Stream& s) { s.reset(); });
  Stream& client = loop.dial({0, port, "127.0.0.1"});
  std::vector<std::string> events;
  client.on_error = [&](SocketError e) {
    events.push_back(e == SocketError::kPeerReset ? "error:reset" : "error:other");
  };
  client.on_close = [&] { events.push_back("close"); };
  EXPECT_EQ(loop.run(), RunStatus::kDrained);
  EXPECT_EQ(events, (std::vector<std::string>{"error:reset", "close"}));
  EXPECT_EQ(client.error(), SocketError::kPeerReset);
}

TEST(EpollLoop, ClosedStreamDropsItsCallbacksAtTheEndOfTheRound) {
  // A closed stream stays (Stream& holders remain valid) but lets go of its
  // callbacks once the round in which it closed is over, so whatever they
  // captured does not live as long as the loop.
  EpollLoop loop;
  const Port port = loop.listen_stream(0, [](Stream&) {});
  Stream& client = loop.dial({0, port, "127.0.0.1"});
  auto token = std::make_shared<int>(0);
  client.on_connect = [&client, token] { client.reset(); };  // closes mid-round
  client.on_data = [token](ByteView) {};
  client.on_close = [token] {};
  client.on_error = [token](SocketError) {};
  client.on_writable = [token] {};
  EXPECT_EQ(token.use_count(), 6);
  for (int round = 0; round < 1000 && !client.closed(); ++round) loop.poll_once(kMillisecond);
  ASSERT_TRUE(client.closed());
  EXPECT_EQ(token.use_count(), 1);
  loop.poll_once();
  EXPECT_TRUE(client.closed());
  EXPECT_EQ(client.error(), SocketError::kNone);
}

TEST(EpollLoop, BackpressureSpillsThenSignalsWritable) {
  // Two loops so the receiver can be wedged: the sender's kernel buffers
  // fill, send() spills into the stream backlog, writable() goes false, and
  // once the receiver drains, on_writable fires with the backlog empty.
  EpollLoop sender_loop, receiver_loop;
  std::size_t received = 0;
  const Port port = receiver_loop.listen_stream(0, [&](Stream& s) {
    s.on_data = [&received](ByteView data) { received += data.size(); };
  });

  Stream& out = sender_loop.dial({0, port, "127.0.0.1"});
  bool writable_fired = false;
  out.on_writable = [&] { writable_fired = true; };
  bool connected = false;
  out.on_connect = [&] { connected = true; };
  for (int i = 0; i < 2000 && !connected; ++i) {
    sender_loop.poll_once(kMillisecond);
    receiver_loop.poll_once(0);
  }
  ASSERT_TRUE(connected);

  // Wedge the receiver (stop polling it) and pump until backpressure.
  const Bytes chunk(64 * 1024, std::uint8_t{0xAB});
  std::size_t sent = 0;
  for (int i = 0; i < 4096 && out.writable(); ++i) {
    out.send(chunk);
    sent += chunk.size();
    sender_loop.poll_once(0);
  }
  ASSERT_FALSE(out.writable()) << "never hit backpressure after " << sent << " bytes";
  auto& tcp = static_cast<TcpStream&>(out);
  EXPECT_GE(tcp.backlog(), TcpStream::kHighWater);

  // Un-wedge: drain both sides until the backlog clears.
  for (int i = 0; i < 20000 && tcp.backlog() > 0; ++i) {
    receiver_loop.poll_once(0);
    sender_loop.poll_once(kMillisecond);
  }
  EXPECT_EQ(tcp.backlog(), 0u);
  EXPECT_TRUE(writable_fired);
  EXPECT_TRUE(out.writable());

  out.close();
  for (int i = 0; i < 2000 && !(out.closed() && receiver_loop.open_streams() == 0); ++i) {
    receiver_loop.poll_once(0);
    sender_loop.poll_once(kMillisecond);
  }
  EXPECT_EQ(received, sent);  // byte-exact despite the spill
}

TEST(EpollLoop, TimersFireOnTheLoopClock) {
  EpollLoop loop;
  std::vector<int> order;
  Time t_short = 0, t_long = 0;
  loop.schedule(20 * kMillisecond, [&] {
    order.push_back(20);
    t_long = loop.now();
  });
  loop.schedule(5 * kMillisecond, [&] {
    order.push_back(5);
    t_short = loop.now();
  });
  EXPECT_EQ(loop.run(), RunStatus::kDrained);  // timers alone keep the loop alive
  EXPECT_EQ(order, (std::vector<int>{5, 20}));
  EXPECT_GE(t_short, 5 * kMillisecond);
  EXPECT_GE(t_long, 20 * kMillisecond);
  EXPECT_LT(t_long, kSecond);  // sanity: not stuck a full epoll_wait cap
}

TEST(EpollLoop, RunUntilRespectsDeadline) {
  EpollLoop loop;
  bool fired = false;
  loop.schedule(kSecond, [&] { fired = true; });
  EXPECT_EQ(loop.run_until(20 * kMillisecond), RunStatus::kDeadlineReached);
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.run(), RunStatus::kDrained);
  EXPECT_TRUE(fired);
}

// ----------------------------------------------------------- posts + wakeup

TEST(EpollLoop, PostedWorkRunsOnNextRoundAndCountsAgainstIdle) {
  EpollLoop loop;
  bool ran = false;
  loop.post([&] { ran = true; });
  EXPECT_FALSE(loop.idle());  // a queued post is pending work
  loop.poll_once(0);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(loop.idle());
}

TEST(EpollLoop, PendingPostShortCircuitsTheWait) {
  // A post already queued must not sit behind a long epoll_wait timeout —
  // the loop polls without blocking and runs it this round.
  EpollLoop loop;
  bool ran = false;
  loop.post([&] { ran = true; });
  const auto t0 = std::chrono::steady_clock::now();
  loop.poll_once(5 * kSecond);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(ran);
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0);
}

TEST(EpollLoop, CrossThreadPostWakesABlockedLoop) {
  // The loop blocks in epoll_wait with a multi-second budget; a post from
  // another thread must cut the wait short via the eventfd, not ride it out.
  EpollLoop loop;
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    loop.post([&] { ran.store(true, std::memory_order_release); });
  });
  const auto t0 = std::chrono::steady_clock::now();
  while (!ran.load(std::memory_order_acquire)) loop.poll_once(10 * kSecond);
  const auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0);
  poster.join();
  EXPECT_LT(elapsed.count(), 5.0);  // woke on the eventfd, not the timeout
}

// ------------------------------------------------------------------ LoopGroup
// Single-threaded LoopGroup semantics: loops are driven manually with
// poll_once (start() never called), which pins down the sharding and
// placement logic without any interleaving nondeterminism. The threaded
// lifecycle runs in tests/test_posix_loopback.cpp.

void poll_group(LoopGroup& group, int rounds = 50) {
  for (int r = 0; r < rounds; ++r)
    for (std::size_t i = 0; i < group.size(); ++i) group.loop(i).poll_once(0);
}

TEST(LoopGroup, ReuseportListenersShareOnePortAndShardAccepts) {
  LoopGroup group({4, LoopGroup::DialPolicy::kRoundRobin});
  std::vector<std::size_t> accept_loops;
  const Port port = group.listen(0, [&](std::size_t li, Stream& s) {
    accept_loops.push_back(li);
    (void)s;
  });
  ASSERT_NE(port, 0);

  EpollLoop dialer;
  constexpr int kDials = 16;
  for (int i = 0; i < kDials; ++i) dialer.dial({0, port, "127.0.0.1"});
  for (int r = 0; r < 100 && accept_loops.size() < kDials; ++r) {
    dialer.poll_once(kMillisecond);
    poll_group(group, 1);
  }

  // Every connection landed on exactly one loop, and the per-loop counters
  // account for all of them.
  EXPECT_EQ(accept_loops.size(), static_cast<std::size_t>(kDials));
  const auto counts = group.accept_counts();
  ASSERT_EQ(counts.size(), 4u);
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kDials));
}

TEST(LoopGroup, RoundRobinCyclesThroughLoops) {
  LoopGroup group({3, LoopGroup::DialPolicy::kRoundRobin});
  EXPECT_EQ(group.pick_loop(), 0u);
  EXPECT_EQ(group.pick_loop(), 1u);
  EXPECT_EQ(group.pick_loop(), 2u);
  EXPECT_EQ(group.pick_loop(), 0u);
}

TEST(LoopGroup, LeastSessionsAvoidsTheLoadedLoop) {
  LoopGroup group({2, LoopGroup::DialPolicy::kLeastSessions});
  const Port port = group.loop(0).listen_stream(0, [](Stream&) {});
  group.loop(0).dial({0, port, "127.0.0.1"});  // loop 0 now carries streams
  poll_group(group);
  ASSERT_GT(group.loop(0).open_streams(), 0u);
  EXPECT_EQ(group.pick_loop(), 1u);
}

TEST(LoopGroup, PostDialRunsOnTheChosenLoopThread) {
  LoopGroup group({2, LoopGroup::DialPolicy::kRoundRobin});
  group.start();
  std::atomic<bool> ran{false};
  std::atomic<std::size_t> seen_index{99};
  const std::size_t chosen = group.post_dial([&](EpollLoop& loop, std::size_t i) {
    (void)loop;
    seen_index.store(i, std::memory_order_relaxed);
    ran.store(true, std::memory_order_release);
  });
  for (int waited = 0; waited < 2000 && !ran.load(std::memory_order_acquire); ++waited)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  group.stop();
  ASSERT_TRUE(ran.load());
  EXPECT_EQ(seen_index.load(), chosen);
}

TEST(LoopGroup, StopJoinsAndCanBeCalledIdempotently) {
  LoopGroup group({2, LoopGroup::DialPolicy::kRoundRobin});
  EXPECT_FALSE(group.running());
  group.start();
  EXPECT_TRUE(group.running());
  group.stop();
  EXPECT_FALSE(group.running());
  group.stop();  // second stop is a no-op, not a crash
  EXPECT_FALSE(group.running());
}

}  // namespace
}  // namespace mbtls::net::posix
