// Session resumption state (§3.5 of the paper): ID-based resumption caches
// plus the mbTLS twist that an endpoint's session carries its secondary
// (middlebox) sessions.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tls/common.h"
#include "util/bytes.h"

namespace mbtls::tls {

/// The sub-handshake an mbTLS endpoint ran with the middlebox on
/// `subchannel`. It lives only inside its primary's SessionState, which
/// wipes it, and never goes into tickets.
struct SecondarySession {
  std::uint8_t subchannel = 0;
  CipherSuite suite{};
  Bytes master_secret;  // lint: secret
};

struct SessionState {
  Bytes session_id;
  CipherSuite suite{};
  Bytes master_secret;  // lint: secret
  // For mbTLS middlebox resumption: the per-hop key material that was
  // distributed last time (empty for plain TLS sessions).
  Bytes mbtls_key_material;  // lint: secret
  // Client side: the opaque ticket the server issued (RFC 5077), offered in
  // the SessionTicket extension on the next connection. Never serialized
  // into tickets themselves.
  Bytes ticket;
  // mbTLS endpoints: one secondary session per subchannel, cached with the
  // primary as one entry so no resumption pairs two sessions' keys.
  std::vector<SecondarySession> secondaries;

  SessionState() = default;
  SessionState(const SessionState&) = default;
  SessionState(SessionState&&) = default;
  SessionState& operator=(const SessionState&) = default;
  SessionState& operator=(SessionState&&) = default;
  // Cached sessions hold live key material; scrub it whenever an entry dies
  // (cache eviction, ticket decode temporaries, engine teardown).
  ~SessionState() {
    secure_wipe(master_secret);
    secure_wipe(mbtls_key_material);
    for (auto& sec : secondaries) secure_wipe(sec.master_secret);
  }

  /// What the secondary engine on `subchannel` resumes from, if anything.
  std::optional<SessionState> secondary(std::uint8_t subchannel) const;
};

/// Seal a SessionState into an opaque ticket (RFC 5077 style). `sealer`
/// wraps whatever key protects tickets — a rotating ticket key manager, or
/// an SGX enclave's sealing key for mbTLS middleboxes (§3.5: "only the
/// enclave knows the key needed to decrypt the session ticket").
Bytes encode_ticket_state(const SessionState& state);
std::optional<SessionState> decode_ticket_state(ByteView data);

/// The engine's resumption cache hook, implemented by the sharded, bounded,
/// thread-safe mb::ShardedSessionCache (src/mbtls/cache.h). Servers key by
/// session ID, clients by peer name.
class SessionCache {
 public:
  virtual ~SessionCache() = default;

  virtual void store_by_id(const SessionState& state) = 0;
  virtual std::optional<SessionState> lookup_by_id(ByteView session_id) const = 0;

  virtual void store_by_peer(const std::string& peer, const SessionState& state) = 0;
  virtual std::optional<SessionState> lookup_by_peer(const std::string& peer) const = 0;
};

}  // namespace mbtls::tls
