#include "mbtls/endpoint.h"

namespace mbtls::mb {

EndpointCore::EndpointCore(Setup setup)
    : trace_(setup.trace_sink, setup.trace_actor),
      primary_([&] {
        tls::Config cfg = std::move(setup.primary);
        cfg.is_client = setup.is_client;
        cfg.store_sessions = false;  // maybe_finish_setup() stores the whole entry
        cfg.trace_sink = setup.trace_sink;
        cfg.trace_actor = setup.trace_actor + "/primary";
        return cfg;
      }()),
      is_client_(setup.is_client),
      fallback_to_direct_tls_(setup.fallback_to_direct_tls),
      require_middlebox_attestation_(setup.require_middlebox_attestation),
      expected_middlebox_measurement_(std::move(setup.expected_middlebox_measurement)),
      approve_(std::move(setup.approve)),
      hop_rng_(primary_.config().rng_label + "/hop-keys", primary_.config().rng_seed) {}

void EndpointCore::fail(const std::string& message) {
  if (status_ == SessionStatus::kFailed) return;
  status_ = SessionStatus::kFailed;
  error_ = message;
  trace_.instant("mbtls", "fail", {{"reason", message}});
}

void EndpointCore::emit_fatal_alert(tls::AlertDescription description) {
  const Bytes body{static_cast<std::uint8_t>(tls::AlertLevel::kFatal),
                   static_cast<std::uint8_t>(description)};
  if (outbound_) {
    outbound_->seal_into(tls::ContentType::kAlert, body, out_);
  } else {
    // No keys yet: the alert goes out in the clear, like TLS handshake
    // alerts do. Middleboxes relay unrecognized plaintext alerts verbatim.
    append(out_, tls::frame_plaintext_record(tls::ContentType::kAlert, body));
  }
}

bool EndpointCore::handshake_expired() {
  if (status_ != SessionStatus::kHandshaking) return false;
  emit_fatal_alert(tls::AlertDescription::kHandshakeFailure);
  fallback_wanted_ = fallback_to_direct_tls_;
  trace_.instant("mbtls", "deadline.expired", {{"fallback", fallback_wanted_ ? 1 : 0}});
  fail("handshake deadline exceeded");
  return true;
}

void EndpointCore::abort(const std::string& reason) {
  if (status_ == SessionStatus::kFailed || status_ == SessionStatus::kClosed) return;
  emit_fatal_alert(tls::AlertDescription::kInternalError);
  fail(reason);
}

void EndpointCore::transport_closed() {
  if (status_ == SessionStatus::kClosed || status_ == SessionStatus::kFailed) return;
  fail(status_ == SessionStatus::kHandshaking
           ? "transport closed during handshake"
           : "transport closed without close_notify");
}

void EndpointCore::drain_primary() {
  append(out_, primary_.take_output());
  if (primary_.failed()) fail("primary handshake: " + primary_.error_message());
}

Bytes EndpointCore::take_output() { return std::move(out_); }

void EndpointCore::feed(ByteView transport_bytes) {
  if (status_ == SessionStatus::kFailed) return;
  try {
    reader_.consume(transport_bytes, [&](tls::RecordView rec) {
      handle_record(rec.type, rec.body());
      return status_ != SessionStatus::kFailed;
    });
  } catch (const tls::ProtocolError& e) {
    fail(e.what());
  } catch (const DecodeError& e) {
    fail(e.what());
  }
}

// `body` lies in the read that carried it (or in reader_'s buffer, for a
// record a read boundary cut) and is read only during the call: data records
// are opened straight onto app_in_, handshake records fed to the engine.
void EndpointCore::handle_record(tls::ContentType type, ByteView body) {
  if (type == tls::ContentType::kMbtlsMiddleboxAnnouncement) {
    on_announcement();
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
  primary_.feed_record(type, body);
  drain_primary();
  start_pending_secondaries();
  maybe_finish_setup();
}

void EndpointCore::handle_encapsulated(ByteView payload) {
  auto enc = tls::EncapsulatedRecord::parse(payload);
  if (!enc) {
    fail("malformed Encapsulated record");
    return;
  }
  // Secondary handshakes end at establishment: a late announcement or a
  // stray record on a known subchannel is dropped.
  if (status_ != SessionStatus::kHandshaking) return;
  auto it = secondaries_.find(enc->subchannel);
  if (it == secondaries_.end()) {
    // A middlebox announcing itself on a new subchannel.
    Secondary sec;
    sec.descriptor.subchannel = enc->subchannel;
    sec.descriptor.discovered = true;
    it = secondaries_.emplace(enc->subchannel, std::move(sec)).first;
  }
  it->second.pending_inner.push_back(std::move(enc->inner_record));
  start_pending_secondaries();
  maybe_finish_setup();
}

void EndpointCore::start_pending_secondaries() {
  // A secondary engine "has already sent" the primary ClientHello: until
  // that hello has arrived (a server waits for it; a client has it from
  // start()), inner records stay buffered.
  if (!primary_.received_client_hello()) return;
  for (auto& [sub, sec] : secondaries_) {
    if (!sec.engine) {
      tls::Config cfg = secondary_config(sub);
      cfg.is_client = true;
      cfg.request_attestation = require_middlebox_attestation_;
      cfg.expected_measurement = expected_middlebox_measurement_;
      cfg.rng_label = primary_.config().rng_label + "/secondary" + std::to_string(sub);
      cfg.rng_seed = primary_.config().rng_seed;
      // Secondaries resume from the primary's cache entry (§3.5), never from
      // the cache: each middlebox cached its side under the primary's ID.
      cfg.session_cache = nullptr;
      cfg.trace_sink = trace_.sink();
      cfg.trace_actor = trace_.actor() + "/sec" + std::to_string(sub);
      trace_.instant("mbtls", "secondary.open", {{"subchannel", static_cast<int>(sub)}});
      sec.engine = std::make_unique<tls::Engine>(std::move(cfg));
      const auto& entry = primary_.offered_session();
      sec.engine->start_with_preset_hello(*primary_.received_client_hello(),
                                          primary_.client_hello_raw(),
                                          entry ? entry->secondary(sub) : std::nullopt);
    }
    for (const Bytes& raw : sec.pending_inner) {
      ByteView rest = raw;
      tls::RecordReader().consume(rest, [&](tls::RecordView inner) {
        sec.engine->feed_record(inner.type, inner.body());
        return true;
      });
    }
    sec.pending_inner.clear();
    pump_secondary(sub, sec);
  }
}

void EndpointCore::pump_secondary(std::uint8_t sub, Secondary& sec) {
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

void EndpointCore::maybe_finish_setup() {
  if (status_ != SessionStatus::kHandshaking) return;
  if (!primary_.handshake_done()) return;
  for (auto& [sub, sec] : secondaries_) {
    if (!sec.engine || !sec.engine->handshake_done()) return;
  }
  // Approve every middlebox before keying it into the session.
  for (auto& [sub, sec] : secondaries_) {
    if (sec.approved) continue;
    if (sec.engine->peer_certificate())
      sec.descriptor.certificate_cn = sec.engine->peer_certificate()->info().subject_cn;
    sec.descriptor.attested = sec.engine->peer_attested();
    sec.descriptor.measurement = sec.engine->peer_measurement();
    if (approve_ && !approve_(sec.descriptor)) {
      fail("middlebox " + sec.descriptor.certificate_cn + " rejected by policy");
      return;
    }
    sec.approved = true;
    trace_.instant("mbtls", "mbox.approved",
                   {{"subchannel", static_cast<int>(sub)},
                    {"cn", sec.descriptor.certificate_cn},
                    {"attested", sec.descriptor.attested ? 1 : 0}});
  }
  // One cache entry per primary session (§3.5), so a resumption offers each
  // middlebox the sub-session it ran under that same primary.
  std::vector<tls::SecondarySession> sessions;
  for (const auto& [sub, sec] : secondaries_)
    sessions.push_back({sub, sec.engine->suite().id, sec.engine->master_secret()});
  primary_.store_session(std::move(sessions));
  distribute_keys();
}

void EndpointCore::distribute_keys() {
  const auto primary_keys = primary_.connection_keys();
  const std::size_t key_len = primary_.suite().key_len;

  // Path order: ascending subchannel = nearest the bridge first. Client-side
  // middleboxes number themselves from the server end (§3.4 "Middlebox
  // Discovery"); server-side ones claim IDs in announcement order along the
  // ClientHello's path. hops[0] is the bridge; hops[i] joins mbox i and mbox
  // i+1; the last hop joins this endpoint and the middlebox next to it.
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
    // The hop nearer the bridge lies toward the far endpoint.
    (is_client_ ? msg.toward_server : msg.toward_client) = hops[index - 1];
    (is_client_ ? msg.toward_client : msg.toward_server) = hops[index];
    sec.engine->send_typed(tls::ContentType::kMbtlsKeyMaterial, msg.encode());
    pump_secondary(sub, sec);
    ++index;
  }

  // The data plane picks its direction once, here: the record path below
  // runs on two plain channels with no role branch.
  HopDuplex data_path(hops.back(), key_len);
  if (trace_.on()) data_path.set_trace(trace_.sub("data"));
  inbound_.emplace(std::move(is_client_ ? data_path.s2c() : data_path.c2s()));
  outbound_.emplace(std::move(is_client_ ? data_path.c2s() : data_path.s2c()));
  status_ = SessionStatus::kEstablished;
  trace_.instant("mbtls", "established",
                 {{"middleboxes", static_cast<std::uint64_t>(secondaries_.size())},
                  {"flights", primary_.flights()},
                  {"resumed", primary_.resumed() ? 1 : 0}});
}

void EndpointCore::handle_data_record(tls::ContentType type, ByteView body) {
  if (!inbound_) return;
  switch (type) {
    case tls::ContentType::kApplicationData:
      if (!inbound_->open_into(type, body, app_in_)) fail("data record authentication failed");
      break;
    case tls::ContentType::kAlert: {
      Bytes opened;
      if (!inbound_->open_into(type, body, opened)) {
        fail("alert authentication failed");
        return;
      }
      const auto alert = parse_alert(opened);
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

void EndpointCore::send(ByteView application_data) {
  if (status_ != SessionStatus::kEstablished)
    throw std::logic_error("mbTLS send before establishment");
  std::size_t off = 0;
  while (off < application_data.size()) {
    const std::size_t n = std::min(tls::kMaxRecordPayload, application_data.size() - off);
    outbound_->seal_into(tls::ContentType::kApplicationData, application_data.subspan(off, n),
                         out_);
    off += n;
  }
}

Bytes EndpointCore::take_app_data() { return std::move(app_in_); }

void EndpointCore::close() {
  if (status_ != SessionStatus::kEstablished) return;
  const Bytes body{static_cast<std::uint8_t>(tls::AlertLevel::kWarning),
                   static_cast<std::uint8_t>(tls::AlertDescription::kCloseNotify)};
  outbound_->seal_into(tls::ContentType::kAlert, body, out_);
  status_ = SessionStatus::kClosed;
}

std::vector<MiddleboxDescriptor> EndpointCore::middleboxes() const {
  std::vector<MiddleboxDescriptor> out;
  for (const auto& [sub, sec] : secondaries_) out.push_back(sec.descriptor);
  return out;
}

}  // namespace mbtls::mb
