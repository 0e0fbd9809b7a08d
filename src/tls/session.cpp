#include "tls/session.h"

#include "util/reader.h"
#include "util/writer.h"

namespace mbtls::tls {

Bytes encode_ticket_state(const SessionState& state) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(state.suite));
  w.vec8(state.session_id);
  w.vec8(state.master_secret);
  return w.take();
}

std::optional<SessionState> decode_ticket_state(ByteView data) {
  try {
    Reader r(data);
    SessionState state;
    state.suite = static_cast<CipherSuite>(r.u16());
    state.session_id = to_bytes(r.vec8());
    state.master_secret = to_bytes(r.vec8());
    r.expect_end();
    return state;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::optional<SessionState> SessionState::secondary(std::uint8_t subchannel) const {
  for (const auto& sec : secondaries) {
    if (sec.subchannel != subchannel) continue;
    SessionState state;
    state.suite = sec.suite;
    state.master_secret = sec.master_secret;
    return state;
  }
  return std::nullopt;
}

}  // namespace mbtls::tls
