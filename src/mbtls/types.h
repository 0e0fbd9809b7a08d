// Shared mbTLS session types: hop data paths, per-hop key generation, and
// middlebox descriptors.
//
// Terminology follows the paper (Figure 4): a session is a chain
//   Client — C_k — ... — C_1 — [bridge] — S_1 — ... — S_n — Server
// where C_* are client-side middleboxes (added & keyed by the client), S_*
// are server-side middleboxes (added & keyed by the server), and the bridge
// hop carries the primary TLS session keys, which is what lets an mbTLS
// endpoint interoperate with a legacy TLS peer (P5).
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "tls/engine.h"
#include "tls/messages.h"
#include "tls/record.h"

namespace mbtls::mb {

/// What an endpoint learns about a middlebox in its session.
struct MiddleboxDescriptor {
  std::uint8_t subchannel = 0;
  std::string certificate_cn;
  bool attested = false;
  Bytes measurement;
  bool discovered = false;  // on-path discovery vs pre-configured
};

/// Bidirectional AEAD channel for one hop, as seen from one node. "c2s" is
/// the client-to-server data direction regardless of which side we are.
class HopDuplex {
 public:
  HopDuplex(const tls::HopKeys& keys, std::size_t key_len);

  /// The two directions themselves: an endpoint takes its inbound and
  /// outbound channel from here at key distribution, and a middlebox opens
  /// and seals on them directly.
  tls::HopChannel& c2s() { return c2s_; }
  tls::HopChannel& s2c() { return s2c_; }

  /// Attach tracing to both directions ("<actor>/c2s" and "<actor>/s2c").
  void set_trace(const trace::Emitter& em) {
    c2s_.set_trace(em.sub("c2s"));
    s2c_.set_trace(em.sub("s2c"));
  }

 private:
  tls::HopChannel c2s_;
  tls::HopChannel s2c_;
};

/// Fresh random per-hop key material for the negotiated suite.
tls::HopKeys generate_hop_keys(std::size_t key_len, crypto::Drbg& rng);

/// The bridge hop keys: the primary session's key block + live sequence
/// numbers, in HopKeys form.
tls::HopKeys bridge_hop_keys(const tls::ConnectionKeys& primary);

/// Approval callback: endpoints veto middleboxes here (paper §3.5 "Trust").
using ApprovalCallback = std::function<bool(const MiddleboxDescriptor&)>;

/// Terminal session status.
enum class SessionStatus { kHandshaking, kEstablished, kClosed, kFailed };

/// A decoded two-byte TLS alert body.
struct Alert {
  tls::AlertLevel level;
  tls::AlertDescription description;
  bool is_close_notify() const {
    return description == tls::AlertDescription::kCloseNotify;
  }
};

/// Strict alert decoding: exactly two bytes and a valid level byte, or
/// nullopt. A truncated one-byte alert must never be indexed past its end or
/// misread as close_notify — callers treat nullopt as a protocol error.
std::optional<Alert> parse_alert(ByteView body);

}  // namespace mbtls::mb
