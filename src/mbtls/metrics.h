// Session metrics derived from traces (the analysis half of the tracing
// layer; src/util/trace.h is the emission half).
//
// summarize() & friends reduce a Recorder's event list offline into the
// session-level numbers the paper's evaluation cares about: handshake
// flights (P7), per-hop keylog fingerprints (P4), record and segment totals,
// middlebox join/demote/fallback outcomes.
#pragma once

#include "util/trace.h"

namespace mbtls::mb {

/// Session-level reduction of a recorded trace.
struct SessionMetrics {
  std::uint64_t records_sealed = 0;
  std::uint64_t records_opened = 0;
  std::uint64_t record_auth_failures = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t taps_fired = 0;
  std::uint64_t losses = 0;
  std::uint64_t handshakes_established = 0;
  std::uint64_t sessions_established = 0;  // mbtls-level "established" events
  std::uint64_t middleboxes_joined = 0;
  std::uint64_t demotions = 0;
  std::uint64_t fallback_redials = 0;
  std::uint64_t failures = 0;
  double reprotected_records = 0;
  double reprotected_bytes = 0;

  /// Flat `key value` lines, sorted, deterministic.
  std::string dump() const;
};

SessionMetrics summarize(const std::vector<trace::Event>& events);

/// Number of handshake flights an actor saw before establishment: the count
/// of "tls"/"flight" events whose actor starts with `actor_prefix`. The
/// paper's P7 invariant is that this matches plain TLS (4 full / 3 resumed).
int flight_count(const std::vector<trace::Event>& events, std::string_view actor_prefix);

/// One hop's key fingerprints from an mbtls "keylog.hop" event.
struct HopKeylog {
  std::string actor;
  std::uint64_t hop = 0;
  std::string c2s;  ///< tls::key_fingerprint of the client→server key
  std::string s2c;
};

/// All keylog.hop events whose actor starts with `actor_prefix`, in emission
/// order. P4 holds iff the fingerprints are pairwise distinct across hops.
std::vector<HopKeylog> hop_keylogs(const std::vector<trace::Event>& events,
                                   std::string_view actor_prefix);

}  // namespace mbtls::mb
