// Glue between the sans-IO mbTLS components and a transport backend. Each
// binder wires a component's input to stream data events and flushes its
// pending output back to the stream after every event.
//
// The bindings are backend-agnostic: they talk to net::Stream /
// net::Scheduler / net::Transport (net/transport.h), so the same glue runs
// on the discrete-event simulator (net::Host + net::Socket, virtual time)
// and on the posix epoll loop (net::posix::EpollLoop, real sockets, real
// time). tests/test_transport_conformance.cpp holds them to identical
// behaviour.
//
// The bindings also own the failure surface the sans-IO cores cannot see:
// handshake deadlines (sessions have no clock), propagation of abnormal TCP
// teardown into explicit session errors, backpressure buffering (a record
// taken from a session or middlebox is never dropped just because the
// destination cannot accept it *yet*), and the P5 degradation path
// (FallbackClient) that redials the origin directly when the middlebox path
// dies mid-handshake.
#pragma once

#include <memory>

#include "mbtls/client.h"
#include "mbtls/middlebox.h"
#include "mbtls/server.h"
#include "net/tcp.h"  // the default (simulator) backend
#include "net/transport.h"
#include "tls/engine.h"
#include "tls/ticket.h"

namespace mbtls::mb {

/// Shared output rule for all bindings: output of a sans-IO core waits in
/// `pending` and is drained only when the destination can take it — on
/// flush, on connect, and on the backend's writability edge. Only a *closed*
/// destination discards (the bytes are undeliverable); "not yet established"
/// and "backpressured" both buffer. Losing already-taken records on a
/// transient !writable() was the transport-glue bug the simulator's lockstep
/// delivery used to hide. A drained `pending` is clear()ed, keeping its
/// capacity for the next read's output.
inline void drain_or_buffer(net::Stream& stream, Bytes& pending) {
  if (pending.empty()) return;
  if (stream.closed()) {  // teardown raced the output: nowhere to go
    pending.clear();
    return;
  }
  if (!stream.established() || !stream.writable()) return;  // retried on connect/writable
  stream.send(pending);
  pending.clear();
}

/// Binds anything with feed()/take_output() (ClientSession, ServerSession,
/// tls::Engine) to one stream. The binding holds the stream and releases it
/// on destruction (net::Stream::release): the caller must not use the stream
/// after destroying its binding.
template <typename Session>
class SocketBinding {
 public:
  SocketBinding(Session& session, net::Stream& socket) : session_(session), socket_(socket) {
    socket_.hold();
    socket_.on_data = [this](ByteView data) {
      session_.feed(data);
      flush();
    };
    socket_.on_close = [this] {
      // Abnormal or premature teardown must surface as a session error, not
      // a hang (sessions that already saw close_notify ignore this).
      if constexpr (requires { session_.transport_closed(); }) {
        session_.transport_closed();
      }
    };
    // The pending-drain hook is installed exactly once, here, and *chains*
    // any previously installed connect handler (e.g. one that calls
    // session.start() then flush()). flush() used to reassign on_connect on
    // every pre-establishment call, silently clobbering such handlers.
    socket_.on_connect = [this, prior = std::move(socket_.on_connect)] {
      if (prior) prior();
      flush();
    };
    socket_.on_writable = [this] { flush(); };
  }
  ~SocketBinding() { socket_.release(); }
  SocketBinding(const SocketBinding&) = delete;
  SocketBinding& operator=(const SocketBinding&) = delete;

  /// Push any pending output (call after start() or send()). With nothing
  /// pending the session's output buffer is adopted, not copied.
  void flush() {
    if (pending_.empty()) {
      pending_ = session_.take_output();
    } else {
      append(pending_, session_.take_output());
    }
    drain_or_buffer(socket_, pending_);
  }

  /// Enforce the session's handshake deadline: one event `timeout` from now
  /// on the backend's clock; if the session is still handshaking it emits
  /// its fatal alert (flushed here) and the stream is torn down. The timer
  /// holds only a weak liveness token: a binding destroyed first (the
  /// FallbackClient redial pattern) leaves the callback a no-op, not a
  /// dangling `this`.
  void arm_handshake_deadline(net::Scheduler& sched, net::Time timeout) {
    if (timeout == 0) return;
    sched.schedule(timeout, [this, alive = std::weak_ptr<const bool>(alive_)] {
      if (alive.expired()) return;
      if (session_.handshake_expired()) {
        flush();
        if (socket_.established()) {
          socket_.close();  // FIN after the alert drains
        } else {
          socket_.reset();
        }
      }
    });
  }

  net::Stream& socket() { return socket_; }

 private:
  Session& session_;
  net::Stream& socket_;
  Bytes pending_;
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

/// Binds a Middlebox between two streams (downstream toward the client,
/// upstream toward the server). Holds both streams and releases them on
/// destruction, like SocketBinding.
class MiddleboxBinding {
 public:
  MiddleboxBinding(Middlebox& mbox, net::Stream& downstream, net::Stream& upstream)
      : mbox_(mbox), down_(downstream), up_(upstream) {
    down_.hold();
    up_.hold();
    down_.on_data = [this](ByteView data) {
      mbox_.feed_from_client(data);
      flush();
    };
    up_.on_data = [this](ByteView data) {
      mbox_.feed_from_server(data);
      flush();
    };
    down_.on_connect = [this] { flush(); };
    up_.on_connect = [this] { flush(); };
    down_.on_writable = [this] { flush(); };
    up_.on_writable = [this] { flush(); };
    // A dead segment on one side must kill the other, so neither endpoint is
    // left talking to a silently absent peer.
    down_.on_close = [this] {
      if (!up_.closed()) up_.close();
    };
    up_.on_close = [this] {
      if (!down_.closed()) down_.close();
    };
  }
  ~MiddleboxBinding() {
    down_.release();
    up_.release();
  }
  MiddleboxBinding(const MiddleboxBinding&) = delete;
  MiddleboxBinding& operator=(const MiddleboxBinding&) = delete;

  /// Push whatever the middlebox produced toward both peers, straight from
  /// its own output buffers. Symmetric buffering: output stays in those
  /// buffers, per direction, whenever the destination is not established or
  /// not writable, and is drained on the connect/writable edges — never
  /// silently discarded. (flush() used to drop take_to_server()/
  /// take_to_client() output on !writable(), and buffered only the upstream
  /// pre-connect case; real-socket short-write backpressure makes that loss
  /// deterministic.)
  void flush() {
    drain_or_buffer(up_, mbox_.output_to_server());
    drain_or_buffer(down_, mbox_.output_to_client());
  }

  /// Enforce the middlebox's join deadline (demote-to-relay on expiry).
  /// Weak-liveness-guarded like arm_handshake_deadline.
  void arm_join_deadline(net::Scheduler& sched, net::Time timeout) {
    if (timeout == 0) return;
    sched.schedule(timeout, [this, alive = std::weak_ptr<const bool>(alive_)] {
      if (alive.expired()) return;
      if (mbox_.handshake_expired()) flush();
    });
  }

 private:
  Middlebox& mbox_;
  net::Stream& down_;
  net::Stream& up_;
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

/// Periodic ticket-key rotation driven by the owning loop's scheduler: the
/// control plane's fleet-wide rotation becomes a timer-wheel event instead
/// of an operator calling TicketKeyManager::rotate() by hand. One rotator
/// per process (the manager itself is shared by every server engine); it
/// lives on one loop — rotate() is internally locked, so which loop fires
/// it does not matter. The deliberately-uncancellable timer carries the
/// same weak liveness token as every other binding timer: destroy the
/// rotator and the armed callback degrades to a no-op.
class TicketRotator {
 public:
  /// Arms immediately: the first rotation fires `interval` from now, then
  /// every `interval` after that. A zero interval arms nothing.
  TicketRotator(net::Scheduler& sched, tls::TicketKeyManager& keys, net::Time interval)
      : sched_(sched), keys_(keys), interval_(interval) {
    if (interval_ != 0) rearm();
  }

  /// Rotations fired by this rotator (not the manager's total generation,
  /// which manual rotate() calls also advance).
  std::uint64_t rotations() const { return *count_; }

 private:
  void rearm() {
    sched_.schedule(interval_, [this, alive = std::weak_ptr<std::uint64_t>(count_)] {
      if (alive.expired()) return;
      keys_.rotate();
      ++*count_;
      rearm();
    });
  }

  net::Scheduler& sched_;
  tls::TicketKeyManager& keys_;
  net::Time interval_;
  // Doubles as the liveness token the armed callback holds weakly.
  std::shared_ptr<std::uint64_t> count_ = std::make_shared<std::uint64_t>(0);
};

/// The paper's P5 degradation path as a transport-level policy: dial the
/// middlebox path first; if that mbTLS handshake misses its deadline or its
/// transport dies, tear it down (fatal alert + reset) and redial the origin
/// directly with a fresh end-to-end TLS session that does not announce
/// mbTLS. One fallback attempt — a failed direct dial is a hard failure.
class FallbackClient {
 public:
  struct Config {
    net::Endpoint proxy;   // TCP-level middlebox to dial first
    net::Endpoint origin;  // direct-redial target
    ClientSession::Options options;  // options.handshake_timeout paces both dials
  };

  FallbackClient(net::Transport& transport, Config config)
      : transport_(transport), config_(std::move(config)) {}

  /// Drop every callback that captured `this` on the active stream and
  /// release it (the deadline timer guards itself via the weak token).
  ~FallbackClient() { unhook(); }

  /// Dial the middlebox path and arm the deadline.
  void start() { dial(config_.proxy, /*announce=*/true); }

  /// The currently active session (the direct one after a fallback).
  ClientSession& session() { return *session_; }
  const ClientSession& session() const { return *session_; }
  bool fell_back() const { return fell_back_; }
  net::Stream& socket() { return *socket_; }

  /// Push pending session output to the active stream (call after send()).
  void flush() {
    if (binding_) binding_->flush();
  }

 private:
  void unhook() {
    // Unhook the previous attempt before tearing it down so stale stream
    // events cannot reach a destroyed binding or session. The binding goes
    // last: it releases the stream, which may free it.
    if (socket_) {
      socket_->on_connect = nullptr;
      socket_->on_data = nullptr;
      socket_->on_close = nullptr;
      socket_->on_error = nullptr;
      socket_->on_writable = nullptr;
    }
    binding_.reset();
  }

  void dial(const net::Endpoint& target, bool announce) {
    const std::uint64_t attempt = ++attempt_;
    unhook();
    ClientSession::Options opts = config_.options;
    opts.announce_mbtls = announce;
    if (!announce) opts.tls.rng_label += "/fallback";  // fresh randomness on redial
    session_ = std::make_unique<ClientSession>(std::move(opts));
    socket_ = &transport_.dial(target);
    // The start hook goes in *before* the binding so the binding's
    // constructor chains it ahead of its own pending-drain hook.
    socket_->on_connect = [this] {
      session_->start();
      binding_->flush();
    };
    binding_ = std::make_unique<SocketBinding<ClientSession>>(*session_, *socket_);
    socket_->on_close = [this, attempt] {
      if (attempt != attempt_) return;
      session_->transport_closed();
      maybe_fall_back();
    };
    if (config_.options.handshake_timeout != 0) {
      transport_.scheduler().schedule(
          config_.options.handshake_timeout,
          [this, attempt, alive = std::weak_ptr<const bool>(alive_)] {
            if (alive.expired()) return;  // client destroyed before the deadline
            if (attempt != attempt_) return;
            if (session_->handshake_expired()) {
              binding_->flush();
              if (socket_->established()) {
                socket_->close();
              } else {
                socket_->reset();
              }
              maybe_fall_back();
            }
          });
    }
  }

  void maybe_fall_back() {
    if (fell_back_ || !session_->failed() || !config_.options.fallback_to_direct_tls) return;
    fell_back_ = true;
    const trace::Emitter em(config_.options.trace_sink, config_.options.trace_actor);
    em.instant("mbtls", "fallback.redial", {{"attempt", attempt_ + 1}});
    dial(config_.origin, /*announce=*/false);
  }

  net::Transport& transport_;
  Config config_;
  std::unique_ptr<ClientSession> session_;
  std::unique_ptr<SocketBinding<ClientSession>> binding_;
  net::Stream* socket_ = nullptr;
  std::uint64_t attempt_ = 0;
  bool fell_back_ = false;
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace mbtls::mb
