#include "mbtls/client.h"

namespace mbtls::mb {

namespace {
tls::Config make_primary_config(ClientSession::Options& options) {
  tls::Config cfg = options.tls;
  cfg.is_client = true;
  cfg.trace_sink = options.trace_sink;
  cfg.trace_actor = options.trace_actor + "/primary";
  if (options.announce_mbtls) {
    tls::MiddleboxSupportExtension ext;
    ext.known_middleboxes = options.known_middleboxes;
    cfg.extra_extensions.push_back({tls::kExtMiddleboxSupport, ext.encode()});
  }
  if (options.require_middlebox_attestation) {
    // Signals on-path middleboxes to include quotes in their secondary
    // handshakes. The origin server simply ignores the unknown extension.
    cfg.extra_extensions.push_back({tls::kExtAttestationRequest, {}});
  }
  return cfg;
}
}  // namespace

ClientSession::ClientSession(Options options)
    : options_(std::move(options)),
      trace_(options_.trace_sink, options_.trace_actor),
      primary_(make_primary_config(options_)),
      hop_rng_(options_.tls.rng_label + "/hop-keys", options_.tls.rng_seed) {}

void ClientSession::start() {
  primary_.start();
  drain_primary();
}

void ClientSession::fail(const std::string& message) {
  if (status_ == SessionStatus::kFailed) return;
  status_ = SessionStatus::kFailed;
  error_ = message;
  trace_.instant("mbtls", "fail", {{"reason", message}});
}

void ClientSession::emit_fatal_alert(tls::AlertDescription description) {
  const Bytes body{static_cast<std::uint8_t>(tls::AlertLevel::kFatal),
                   static_cast<std::uint8_t>(description)};
  if (data_path_) {
    data_path_->seal_c2s_into(tls::ContentType::kAlert, body, out_);
  } else {
    // No keys yet: the alert goes out in the clear, like TLS handshake
    // alerts do. Middleboxes relay unrecognized plaintext alerts verbatim.
    append(out_, tls::frame_plaintext_record(tls::ContentType::kAlert, body));
  }
}

bool ClientSession::handshake_expired() {
  if (status_ != SessionStatus::kHandshaking) return false;
  emit_fatal_alert(tls::AlertDescription::kHandshakeFailure);
  fallback_wanted_ = options_.fallback_to_direct_tls;
  trace_.instant("mbtls", "deadline.expired",
                 {{"fallback", fallback_wanted_ ? 1 : 0}});
  fail("handshake deadline exceeded");
  return true;
}

void ClientSession::abort(const std::string& reason) {
  if (status_ == SessionStatus::kFailed || status_ == SessionStatus::kClosed) return;
  emit_fatal_alert(tls::AlertDescription::kInternalError);
  fail(reason);
}

void ClientSession::transport_closed() {
  if (status_ == SessionStatus::kClosed || status_ == SessionStatus::kFailed) return;
  fail(status_ == SessionStatus::kHandshaking
           ? "transport closed during handshake"
           : "transport closed without close_notify");
}

void ClientSession::drain_primary() {
  append(out_, primary_.take_output());
  if (primary_.failed()) fail("primary handshake: " + primary_.error_message());
}

Bytes ClientSession::take_output() { return std::move(out_); }

void ClientSession::feed(ByteView transport_bytes) {
  if (status_ == SessionStatus::kFailed) return;
  try {
    reader_.feed(transport_bytes);
    while (const auto rec = reader_.next_view()) {
      handle_record(rec->type, rec->body());
      if (status_ == SessionStatus::kFailed) return;
    }
  } catch (const tls::ProtocolError& e) {
    fail(e.what());
  } catch (const DecodeError& e) {
    fail(e.what());
  }
}

// `body` lies in reader_'s buffer until the next feed(): data records are
// opened there in place; handshake records are copied into a tls::Record.
void ClientSession::handle_record(tls::ContentType type, MutableByteView body) {
  if (type == tls::ContentType::kMbtlsEncapsulated) {
    handle_encapsulated(body);
    return;
  }
  if (type == tls::ContentType::kMbtlsMiddleboxAnnouncement) {
    // Announcements target servers; a client can safely ignore one.
    return;
  }
  if (status_ == SessionStatus::kEstablished || status_ == SessionStatus::kClosed) {
    handle_data_record(type, body);
    return;
  }
  primary_.feed_record(tls::Record{type, to_bytes(body)});
  drain_primary();
  maybe_finish_setup();
}

void ClientSession::handle_encapsulated(ByteView payload) {
  const auto enc = tls::EncapsulatedRecord::parse(payload);
  if (!enc) {
    fail("malformed Encapsulated record");
    return;
  }
  auto it = secondaries_.find(enc->subchannel);
  if (it == secondaries_.end()) {
    if (status_ != SessionStatus::kHandshaking) return;  // late announcement: ignore
    // A middlebox announcing itself: spin up a secondary engine that has
    // "already sent" the primary ClientHello.
    tls::Config cfg = options_.tls;
    cfg.is_client = true;
    cfg.server_name.clear();  // middlebox identity approved via callback
    cfg.request_attestation = options_.require_middlebox_attestation;
    cfg.expected_measurement = options_.expected_middlebox_measurement;
    cfg.rng_label = options_.tls.rng_label + "/secondary" + std::to_string(enc->subchannel);
    cfg.extra_extensions.clear();
    cfg.trace_sink = options_.trace_sink;
    cfg.trace_actor = options_.trace_actor + "/sec" + std::to_string(enc->subchannel);
    trace_.instant("mbtls", "secondary.open", {{"subchannel", static_cast<int>(enc->subchannel)}});
    // Secondary sessions resume keyed by subchannel (§3.5): the shared
    // ClientHello carries only the primary session ID, which each middlebox
    // also uses as its cache key.
    cfg.resumption_cache_key = "mbtls-secondary-" + std::to_string(enc->subchannel);
    Secondary sec;
    sec.engine = std::make_unique<tls::Engine>(std::move(cfg));
    sec.engine->start_with_preset_hello(*primary_.received_client_hello(),
                                        primary_.client_hello_raw());
    sec.descriptor.subchannel = enc->subchannel;
    sec.descriptor.discovered = true;
    it = secondaries_.emplace(enc->subchannel, std::move(sec)).first;
  }
  tls::RecordReader inner_reader;
  inner_reader.feed(it->second.engine ? ByteView(enc->inner_record) : ByteView{});
  while (auto inner = inner_reader.next()) {
    it->second.engine->feed_record(*inner);
  }
  pump_secondary(it->first, it->second);
  maybe_finish_setup();
}

void ClientSession::pump_secondary(std::uint8_t sub, Secondary& sec) {
  for (auto& record : sec.engine->take_output_records()) {
    tls::EncapsulatedRecord enc;
    enc.subchannel = sub;
    enc.inner_record = std::move(record);
    append(out_, tls::frame_plaintext_record(tls::ContentType::kMbtlsEncapsulated, enc.encode()));
  }
  if (sec.engine->failed()) {
    fail("middlebox handshake (subchannel " + std::to_string(sub) +
         "): " + sec.engine->error_message());
  }
}

void ClientSession::maybe_finish_setup() {
  if (status_ != SessionStatus::kHandshaking) return;
  if (!primary_.handshake_done()) return;
  for (auto& [sub, sec] : secondaries_) {
    if (!sec.engine->handshake_done()) return;
  }
  // Approve every middlebox before keying it into the session.
  for (auto& [sub, sec] : secondaries_) {
    if (sec.approved) continue;
    if (sec.engine->peer_certificate())
      sec.descriptor.certificate_cn = sec.engine->peer_certificate()->info().subject_cn;
    sec.descriptor.attested = sec.engine->peer_attested();
    sec.descriptor.measurement = sec.engine->peer_measurement();
    if (options_.approve && !options_.approve(sec.descriptor)) {
      fail("middlebox " + sec.descriptor.certificate_cn + " rejected by policy");
      return;
    }
    sec.approved = true;
    trace_.instant("mbtls", "mbox.approved",
                   {{"subchannel", static_cast<int>(sub)},
                    {"cn", sec.descriptor.certificate_cn},
                    {"attested", sec.descriptor.attested ? 1 : 0}});
  }
  distribute_keys();
}

void ClientSession::distribute_keys() {
  const auto primary_keys = primary_.connection_keys();
  const std::size_t key_len = primary_.suite().key_len;

  // Path order: ascending subchannel = closest-to-server first (the paper's
  // assignment scheme numbers from the far end; see §3.4 "Middlebox
  // Discovery"). hops[0] is the bridge; hops[i] joins mbox i and mbox i+1;
  // the last hop joins the nearest middlebox and the client.
  std::vector<tls::HopKeys> hops;
  hops.push_back(bridge_hop_keys(primary_keys));
  for (std::size_t i = 0; i < secondaries_.size(); ++i)
    hops.push_back(generate_hop_keys(key_len, hop_rng_));

  if (trace_.on()) {
    // Keylog-style events (one per hop, hop 0 = bridge): fingerprints only,
    // never raw key bytes (tools/mbtls-lint: trace-no-secret). Tests assert
    // the paper's P4 (pairwise-unique hop keys) from these alone.
    for (std::size_t i = 0; i < hops.size(); ++i) {
      trace_.instant("mbtls", "keylog.hop",
                     {{"hop", static_cast<std::uint64_t>(i)},
                      {"c2s", tls::key_fingerprint(hops[i].client_to_server_key)},
                      {"s2c", tls::key_fingerprint(hops[i].server_to_client_key)}});
    }
  }

  std::size_t index = 1;
  for (auto& [sub, sec] : secondaries_) {  // std::map iterates ascending
    tls::KeyMaterialMsg msg;
    msg.cipher_suite = static_cast<std::uint16_t>(primary_keys.suite);
    msg.toward_server = hops[index - 1];
    msg.toward_client = hops[index];
    sec.engine->send_typed(tls::ContentType::kMbtlsKeyMaterial, msg.encode());
    pump_secondary(sub, sec);
    ++index;
  }

  data_path_.emplace(hops.back(), key_len);
  if (trace_.on()) data_path_->set_trace(trace_.sub("data"));
  status_ = SessionStatus::kEstablished;
  trace_.instant("mbtls", "established",
                 {{"middleboxes", static_cast<std::uint64_t>(secondaries_.size())},
                  {"flights", primary_.flights()},
                  {"resumed", primary_.resumed() ? 1 : 0}});
}

void ClientSession::handle_data_record(tls::ContentType type, MutableByteView body) {
  if (!data_path_) return;
  switch (type) {
    case tls::ContentType::kApplicationData: {
      const auto opened = data_path_->open_s2c_in_place(type, body);
      if (!opened) {
        fail("data record authentication failed");
        return;
      }
      append(app_in_, *opened);
      break;
    }
    case tls::ContentType::kAlert: {
      const auto opened = data_path_->open_s2c_in_place(type, body);
      if (!opened) {
        fail("alert authentication failed");
        return;
      }
      const auto alert = parse_alert(*opened);
      if (!alert) {
        // Truncated or garbled alert bodies are protocol errors; indexing
        // into them blindly would misread (or overrun) a 1-byte record.
        fail("malformed alert record");
        return;
      }
      if (alert->is_close_notify()) {
        status_ = SessionStatus::kClosed;
      } else if (alert->level == tls::AlertLevel::kFatal) {
        fail(std::string("peer alert: ") + tls::to_string(alert->description));
      }
      break;
    }
    default:
      break;  // renegotiation & friends: not supported, ignored
  }
}

void ClientSession::send(ByteView application_data) {
  if (status_ != SessionStatus::kEstablished)
    throw std::logic_error("ClientSession::send before establishment");
  std::size_t off = 0;
  while (off < application_data.size()) {
    const std::size_t n = std::min(tls::kMaxRecordPayload, application_data.size() - off);
    data_path_->seal_c2s_into(tls::ContentType::kApplicationData,
                              application_data.subspan(off, n), out_);
    off += n;
  }
}

Bytes ClientSession::take_app_data() { return std::move(app_in_); }

void ClientSession::close() {
  if (status_ != SessionStatus::kEstablished) return;
  Bytes body{static_cast<std::uint8_t>(tls::AlertLevel::kWarning),
             static_cast<std::uint8_t>(tls::AlertDescription::kCloseNotify)};
  data_path_->seal_c2s_into(tls::ContentType::kAlert, body, out_);
  status_ = SessionStatus::kClosed;
}

std::vector<MiddleboxDescriptor> ClientSession::middleboxes() const {
  std::vector<MiddleboxDescriptor> out;
  for (const auto& [sub, sec] : secondaries_) out.push_back(sec.descriptor);
  return out;
}

}  // namespace mbtls::mb
