// The transport seam: backend-agnostic byte-stream and dialing interfaces.
//
// The sans-IO mbTLS engines never perform I/O themselves; the bindings in
// mbtls/transport.h glue them to a `Stream` and arm deadlines on a
// `Scheduler`. Two backends implement this seam:
//
//   * the discrete-event simulator (net::Host + net::Socket over the
//     simulated network, virtual time) — deterministic, used by every
//     experiment and the chaos suite;
//   * the posix epoll loop (net::posix::EpollLoop + net::posix::TcpStream,
//     non-blocking real TCP over the kernel stack, monotonic time) — the
//     production path.
//
// tests/test_transport_conformance.cpp runs the same handshake / data /
// teardown / deadline scenarios against both, which is what keeps the seam
// honest.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/clock.h"
#include "util/bytes.h"

namespace mbtls::net {

using NodeId = std::uint32_t;  // simulator addressing
using Port = std::uint16_t;

/// Why a stream reached closed(). Anything but kNone is an abnormal teardown
/// the application must treat as an error, not a clean shutdown.
enum class SocketError : std::uint8_t {
  kNone,                 // still open, or clean FIN teardown
  kPeerReset,            // peer aborted (RST / ECONNRESET / ECONNREFUSED)
  kRetransmitExhausted,  // peer unreachable: backoff rounds / connect timed out
};

/// A reliable byte-stream endpoint. Obtained from Transport::dial or a
/// listener accept callback; owned by the backend. Lifetime:
///  * by default a stream stays valid for the backend's lifetime (a closed
///    stream is inert, not freed);
///  * a holder that will be done with it first calls hold() and later
///    release(). After release() the holder must not touch the stream
///    again: the posix backend frees it once it is also closed, at the end
///    of a dispatch round (and a held stream still unreleased when its loop
///    dies lives on until release(), which then frees it). The simulator
///    keeps every stream to the end, released or not. The bindings in
///    mbtls/transport.h hold their streams and release them on destruction;
///    that is what keeps a churning posix loop's memory flat.
/// The posix backend trims a closed stream at the end of the dispatch round
/// in which it closed: it drops the stream's callbacks, and with them
/// whatever they captured, so a holder must not expect a callback installed
/// before the close to survive it.
///
/// Callback contract, identical across backends:
///  * on_connect fires once when an outbound dial completes (never for
///    accepted streams — the accept handler already runs post-establishment
///    on posix, pre-establishment on the simulator where it fires nothing);
///  * on_data fires per delivered in-order chunk. The view is valid only
///    during the callback: posix passes its loop's one read buffer, which
///    the next read of any stream on that loop overwrites, so a handler
///    copies whatever must outlive the call;
///  * on_error (abnormal cause) fires at most once, before on_close;
///  * on_close fires exactly once when the stream reaches closed();
///  * on_writable fires when backend write backpressure clears — only the
///    posix backend ever fires it (the simulator's send() never backpressures)
///    but bindings must drain their pending output on it to be correct over
///    real sockets.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Queue bytes for transmission. Illegal once !writable() from teardown
  /// (closed or FIN queued); legal while still connecting (bytes are sent on
  /// establishment).
  virtual void send(ByteView data) = 0;

  /// Half-close: FIN after all queued data; the stream stays readable until
  /// the peer closes.
  virtual void close() = 0;

  /// Abort: RST and drop all state.
  virtual void reset() = 0;

  virtual bool established() const = 0;
  virtual bool closed() const = 0;

  /// send() is currently legal *and advisable*: not closed, no FIN queued,
  /// and (posix) the unwritten backlog is below the backpressure high-water
  /// mark. Callers that see false must buffer and retry on on_writable /
  /// on_connect rather than drop — see MiddleboxBinding::flush.
  virtual bool writable() const = 0;

  /// Terminal error cause; valid once closed() (kNone = clean teardown).
  virtual SocketError error() const = 0;

  /// Announce a release(): until it comes, the stream outlives even its
  /// backend. No-op by default (the simulator, wrappers).
  virtual void hold() {}
  /// The holder is done: the backend may free the stream once it is closed
  /// (see the lifetime rules above). No-op by default.
  virtual void release() {}

  // Application callbacks (see the contract above).
  std::function<void()> on_connect;
  std::function<void(ByteView)> on_data;
  std::function<void()> on_close;
  std::function<void(SocketError)> on_error;
  std::function<void()> on_writable;
};

/// Where to dial. The simulator backend uses {node, port}; the posix backend
/// uses {address, port} (e.g. "127.0.0.1"). Backends ignore the fields that
/// are not theirs, so one Endpoint can describe both.
struct Endpoint {
  NodeId node = 0;
  Port port = 0;
  std::string address;
};

using StreamHandler = std::function<void(Stream&)>;

/// A transport backend: dials and accepts streams, and owns the scheduler
/// whose clock paces every deadline above it. Implemented by net::Host
/// (simulator) and net::posix::EpollLoop (real sockets).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Open a connection; returns immediately, on_connect fires when the
  /// handshake completes.
  virtual Stream& dial(const Endpoint& remote) = 0;

  /// Accept connections on `port` (0 = backend-chosen ephemeral port on
  /// posix). Returns the actually bound port. The handler runs before any
  /// data is delivered, so it can wire callbacks.
  virtual Port listen_stream(Port port, StreamHandler on_accept) = 0;

  virtual Scheduler& scheduler() = 0;
};

}  // namespace mbtls::net
