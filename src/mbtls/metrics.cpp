#include "mbtls/metrics.h"

#include <cstdlib>
#include <sstream>

namespace mbtls::mb {

namespace {
void dump_line(std::ostringstream& out, std::string_view key, double v) {
  out << key << ' ' << trace::format_number(v) << '\n';
}
}  // namespace

SessionMetrics summarize(const std::vector<trace::Event>& events) {
  SessionMetrics m;
  for (const auto& e : events) {
    if (e.phase == trace::Phase::kCounter) {
      if (e.name == "reprotect.records") m.reprotected_records += e.delta;
      if (e.name == "reprotect.bytes") m.reprotected_bytes += e.delta;
      continue;
    }
    if (e.category == "tls") {
      if (e.name == "record.seal") ++m.records_sealed;
      else if (e.name == "record.open") ++m.records_opened;
      else if (e.name == "record.auth_fail") ++m.record_auth_failures;
      else if (e.name == "established") ++m.handshakes_established;
      else if (e.name == "fail") ++m.failures;
    } else if (e.category == "net") {
      if (e.name == "seg.send") ++m.segments_sent;
      else if (e.name == "retransmit") ++m.retransmits;
      else if (e.name == "tap") ++m.taps_fired;
      else if (e.name == "loss") ++m.losses;
    } else if (e.category == "mbtls") {
      if (e.name == "established") ++m.sessions_established;
      else if (e.name == "joined") ++m.middleboxes_joined;
      else if (e.name == "demote.relay") ++m.demotions;
      else if (e.name == "fallback.redial") ++m.fallback_redials;
      else if (e.name == "fail") ++m.failures;
    }
  }
  return m;
}

std::string SessionMetrics::dump() const {
  std::ostringstream out;
  dump_line(out, "demotions", static_cast<double>(demotions));
  dump_line(out, "failures", static_cast<double>(failures));
  dump_line(out, "fallback_redials", static_cast<double>(fallback_redials));
  dump_line(out, "handshakes_established", static_cast<double>(handshakes_established));
  dump_line(out, "losses", static_cast<double>(losses));
  dump_line(out, "middleboxes_joined", static_cast<double>(middleboxes_joined));
  dump_line(out, "record_auth_failures", static_cast<double>(record_auth_failures));
  dump_line(out, "records_opened", static_cast<double>(records_opened));
  dump_line(out, "records_sealed", static_cast<double>(records_sealed));
  dump_line(out, "reprotected_bytes", reprotected_bytes);
  dump_line(out, "reprotected_records", reprotected_records);
  dump_line(out, "retransmits", static_cast<double>(retransmits));
  dump_line(out, "segments_sent", static_cast<double>(segments_sent));
  dump_line(out, "sessions_established", static_cast<double>(sessions_established));
  dump_line(out, "taps_fired", static_cast<double>(taps_fired));
  return out.str();
}

int flight_count(const std::vector<trace::Event>& events, std::string_view actor_prefix) {
  int count = 0;
  for (const auto& e : events) {
    if (e.category == "tls" && e.name == "flight" &&
        e.actor.compare(0, actor_prefix.size(), actor_prefix) == 0) {
      ++count;
    }
  }
  return count;
}

std::vector<HopKeylog> hop_keylogs(const std::vector<trace::Event>& events,
                                   std::string_view actor_prefix) {
  std::vector<HopKeylog> out;
  for (const auto& e : events) {
    if (e.category != "mbtls" || e.name != "keylog.hop") continue;
    if (e.actor.compare(0, actor_prefix.size(), actor_prefix) != 0) continue;
    HopKeylog k;
    k.actor = e.actor;
    for (const auto& a : e.args) {
      if (a.name == "hop") k.hop = std::strtoull(a.value.c_str(), nullptr, 10);
      else if (a.name == "c2s") k.c2s = a.value;
      else if (a.name == "s2c") k.s2c = a.value;
    }
    out.push_back(std::move(k));
  }
  return out;
}

}  // namespace mbtls::mb
