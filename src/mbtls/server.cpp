#include "mbtls/server.h"

namespace mbtls::mb {

namespace {
tls::Config make_primary_config(ServerSession::Options& options) {
  tls::Config cfg = options.tls;
  cfg.is_client = false;
  cfg.trace_sink = options.trace_sink;
  cfg.trace_actor = options.trace_actor + "/primary";
  return cfg;
}
}  // namespace

ServerSession::ServerSession(Options options)
    : options_(std::move(options)),
      trace_(options_.trace_sink, options_.trace_actor),
      primary_(make_primary_config(options_)),
      hop_rng_(options_.tls.rng_label + "/hop-keys", options_.tls.rng_seed) {}

void ServerSession::fail(const std::string& message) {
  if (status_ == SessionStatus::kFailed) return;
  status_ = SessionStatus::kFailed;
  error_ = message;
  trace_.instant("mbtls", "fail", {{"reason", message}});
}

void ServerSession::emit_fatal_alert(tls::AlertDescription description) {
  const Bytes body{static_cast<std::uint8_t>(tls::AlertLevel::kFatal),
                   static_cast<std::uint8_t>(description)};
  if (data_path_) {
    data_path_->seal_s2c_into(tls::ContentType::kAlert, body, out_);
  } else {
    append(out_, tls::frame_plaintext_record(tls::ContentType::kAlert, body));
  }
}

bool ServerSession::handshake_expired() {
  if (status_ != SessionStatus::kHandshaking) return false;
  emit_fatal_alert(tls::AlertDescription::kHandshakeFailure);
  trace_.instant("mbtls", "deadline.expired", {{"fallback", 0}});
  fail("handshake deadline exceeded");
  return true;
}

void ServerSession::abort(const std::string& reason) {
  if (status_ == SessionStatus::kFailed || status_ == SessionStatus::kClosed) return;
  emit_fatal_alert(tls::AlertDescription::kInternalError);
  fail(reason);
}

void ServerSession::transport_closed() {
  if (status_ == SessionStatus::kClosed || status_ == SessionStatus::kFailed) return;
  fail(status_ == SessionStatus::kHandshaking
           ? "transport closed during handshake"
           : "transport closed without close_notify");
}

void ServerSession::drain_primary() {
  append(out_, primary_.take_output());
  if (primary_.failed()) fail("primary handshake: " + primary_.error_message());
}

Bytes ServerSession::take_output() { return std::move(out_); }

void ServerSession::feed(ByteView transport_bytes) {
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
void ServerSession::handle_record(tls::ContentType type, MutableByteView body) {
  if (type == tls::ContentType::kMbtlsMiddleboxAnnouncement) {
    ++announcements_;
    trace_.instant("mbtls", "announce.seen",
                   {{"count", static_cast<std::uint64_t>(announcements_)}});
    return;
  }
  if (type == tls::ContentType::kMbtlsEncapsulated) {
    handle_encapsulated(body);
    return;
  }
  if (status_ == SessionStatus::kEstablished || status_ == SessionStatus::kClosed) {
    handle_data_record(type, body);
    return;
  }
  primary_.feed_record(tls::Record{type, to_bytes(body)});
  drain_primary();
  start_pending_secondaries();
  maybe_finish_setup();
}

ServerSession::Secondary& ServerSession::ensure_secondary(std::uint8_t sub) {
  auto it = secondaries_.find(sub);
  if (it != secondaries_.end()) return it->second;
  Secondary sec;
  sec.descriptor.subchannel = sub;
  sec.descriptor.discovered = true;
  return secondaries_.emplace(sub, std::move(sec)).first->second;
}

void ServerSession::handle_encapsulated(ByteView payload) {
  const auto enc = tls::EncapsulatedRecord::parse(payload);
  if (!enc) {
    fail("malformed Encapsulated record");
    return;
  }
  if (status_ != SessionStatus::kHandshaking) return;
  Secondary& sec = ensure_secondary(enc->subchannel);
  sec.pending_inner.push_back(enc->inner_record);
  start_pending_secondaries();
  maybe_finish_setup();
}

void ServerSession::start_pending_secondaries() {
  // Secondary engines need the primary ClientHello; until it has arrived,
  // inner records stay buffered.
  if (!primary_.received_client_hello()) return;
  for (auto& [sub, sec] : secondaries_) {
    if (!sec.engine) {
      tls::Config cfg;
      cfg.is_client = true;
      cfg.cipher_suites = options_.tls.cipher_suites;
      cfg.trust_anchors = options_.middlebox_trust_anchors.empty()
                              ? options_.tls.trust_anchors
                              : options_.middlebox_trust_anchors;
      cfg.verify_peer_certificate = true;
      cfg.now = options_.tls.now;
      cfg.request_attestation = options_.require_middlebox_attestation;
      cfg.expected_measurement = options_.expected_middlebox_measurement;
      cfg.rng_label = options_.tls.rng_label + "/secondary" + std::to_string(sub);
      cfg.rng_seed = options_.tls.rng_seed;
      cfg.session_cache = options_.tls.session_cache;
      cfg.cert_pool = options_.tls.cert_pool;
      cfg.quote_verifier = options_.tls.quote_verifier;
      cfg.resumption_cache_key = "mbtls-secondary-" + std::to_string(sub);
      cfg.secret_store = options_.tls.secret_store;
      cfg.secret_prefix = options_.tls.secret_prefix + "mbox" + std::to_string(sub) + "/";
      cfg.trace_sink = options_.trace_sink;
      cfg.trace_actor = options_.trace_actor + "/sec" + std::to_string(sub);
      trace_.instant("mbtls", "secondary.open", {{"subchannel", static_cast<int>(sub)}});
      sec.engine = std::make_unique<tls::Engine>(std::move(cfg));
      sec.engine->start_with_preset_hello(*primary_.received_client_hello(),
                                          primary_.client_hello_raw());
    }
    if (!sec.pending_inner.empty()) {
      for (auto& raw : sec.pending_inner) {
        tls::RecordReader inner_reader;
        inner_reader.feed(raw);
        while (auto inner = inner_reader.next()) sec.engine->feed_record(*inner);
      }
      sec.pending_inner.clear();
    }
    pump_secondary(sub, sec);
  }
}

void ServerSession::pump_secondary(std::uint8_t sub, Secondary& sec) {
  if (!sec.engine) return;
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

void ServerSession::maybe_finish_setup() {
  if (status_ != SessionStatus::kHandshaking) return;
  if (!primary_.handshake_done()) return;
  for (auto& [sub, sec] : secondaries_) {
    if (!sec.engine || !sec.engine->handshake_done()) return;
  }
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

void ServerSession::distribute_keys() {
  const auto primary_keys = primary_.connection_keys();
  const std::size_t key_len = primary_.suite().key_len;

  // Path order: ascending subchannel = closest-to-client first (server-side
  // middleboxes claim IDs in announcement order along the ClientHello's
  // path). hops[0] is the bridge next to mbox 1; the last hop joins the
  // nearest middlebox and the server.
  std::vector<tls::HopKeys> hops;
  hops.push_back(bridge_hop_keys(primary_keys));
  for (std::size_t i = 0; i < secondaries_.size(); ++i)
    hops.push_back(generate_hop_keys(key_len, hop_rng_));

  if (trace_.on()) {
    // Keylog-style events, hop 0 = bridge (fingerprints only; see
    // ClientSession::distribute_keys and lint rule trace-no-secret).
    for (std::size_t i = 0; i < hops.size(); ++i) {
      trace_.instant("mbtls", "keylog.hop",
                     {{"hop", static_cast<std::uint64_t>(i)},
                      {"c2s", tls::key_fingerprint(hops[i].client_to_server_key)},
                      {"s2c", tls::key_fingerprint(hops[i].server_to_client_key)}});
    }
  }

  std::size_t index = 1;
  for (auto& [sub, sec] : secondaries_) {
    tls::KeyMaterialMsg msg;
    msg.cipher_suite = static_cast<std::uint16_t>(primary_keys.suite);
    msg.toward_client = hops[index - 1];
    msg.toward_server = hops[index];
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

void ServerSession::handle_data_record(tls::ContentType type, MutableByteView body) {
  if (!data_path_) return;
  switch (type) {
    case tls::ContentType::kApplicationData: {
      const auto opened = data_path_->open_c2s_in_place(type, body);
      if (!opened) {
        fail("data record authentication failed");
        return;
      }
      append(app_in_, *opened);
      break;
    }
    case tls::ContentType::kAlert: {
      const auto opened = data_path_->open_c2s_in_place(type, body);
      if (!opened) {
        fail("alert authentication failed");
        return;
      }
      const auto alert = parse_alert(*opened);
      if (!alert) {
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
      break;
  }
}

void ServerSession::send(ByteView application_data) {
  if (status_ != SessionStatus::kEstablished)
    throw std::logic_error("ServerSession::send before establishment");
  std::size_t off = 0;
  while (off < application_data.size()) {
    const std::size_t n = std::min(tls::kMaxRecordPayload, application_data.size() - off);
    data_path_->seal_s2c_into(tls::ContentType::kApplicationData,
                              application_data.subspan(off, n), out_);
    off += n;
  }
}

Bytes ServerSession::take_app_data() { return std::move(app_in_); }

void ServerSession::close() {
  if (status_ != SessionStatus::kEstablished) return;
  Bytes body{static_cast<std::uint8_t>(tls::AlertLevel::kWarning),
             static_cast<std::uint8_t>(tls::AlertDescription::kCloseNotify)};
  data_path_->seal_s2c_into(tls::ContentType::kAlert, body, out_);
  status_ = SessionStatus::kClosed;
}

std::vector<MiddleboxDescriptor> ServerSession::middleboxes() const {
  std::vector<MiddleboxDescriptor> out;
  for (const auto& [sub, sec] : secondaries_) out.push_back(sec.descriptor);
  return out;
}

}  // namespace mbtls::mb
