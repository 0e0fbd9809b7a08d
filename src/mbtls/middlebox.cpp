#include "mbtls/middlebox.h"

#include "crypto/sha2.h"
#include "tls/prf.h"
#include "util/hex.h"

namespace mbtls::mb {

namespace {
// A raw wire record (header included) is handled as a view into the read
// that carried it (or its reader's buffer); a parsed tls::Record (which
// copies the payload) is built only on control-plane branches that need one.
ByteView record_body(ByteView raw) { return raw.subspan(tls::kRecordHeaderSize); }

tls::Record parse_record(ByteView raw) {
  return tls::Record{static_cast<tls::ContentType>(raw[0]),
                     to_bytes(raw.subspan(tls::kRecordHeaderSize))};
}

std::optional<tls::HandshakeType> first_handshake_type(tls::ContentType type, ByteView body) {
  if (type != tls::ContentType::kHandshake || body.empty()) return std::nullopt;
  return static_cast<tls::HandshakeType>(body[0]);
}
}  // namespace

Middlebox::Middlebox(Options options)
    : options_(std::move(options)),
      trace_(options_.trace_sink, options_.trace_actor.empty()
                                      ? "mbox:" + options_.name
                                      : options_.trace_actor) {}

sgx::MemoryStore* Middlebox::key_store() {
  if (options_.enclave) return &options_.enclave->memory();
  return options_.untrusted_store;
}

void Middlebox::feed_from_client(ByteView data) { feed(data, /*from_client=*/true); }

void Middlebox::feed_from_server(ByteView data) { feed(data, /*from_client=*/false); }

void Middlebox::feed(ByteView data, bool from_client) {
  tls::RecordReader& reader = from_client ? down_reader_ : up_reader_;
  if (mode_ != Mode::kRelay) {
    // With an enclave, the record loop of the whole read runs inside one
    // ECALL: the boundary is crossed once per read, not once per record.
    if (options_.enclave) {
      options_.enclave->ecall_batch([&] { return drain_records(reader, data, from_client); });
    } else {
      drain_records(reader, data, from_client);
    }
    if (mode_ != Mode::kRelay) return;
  }
  // A relay bypasses the reader: whatever it still holds (a partial record,
  // or everything from a parse error on) goes out once, ahead of the rest of
  // the chunk.
  Bytes& out = from_client ? to_server_ : to_client_;
  if (!reader.buffer_empty()) append(out, reader.take_unconsumed());
  append(out, data);
}

std::size_t Middlebox::drain_records(tls::RecordReader& reader, ByteView& data,
                                     bool from_client) {
  // A middlebox must never take a session down because *it* failed to make
  // sense of the stream: on any parse error it becomes a transparent relay
  // and forwards every byte it has not forwarded yet (the endpoints' own
  // MACs and state machines remain the arbiters of validity). The catch
  // sits inside the enclave crossing, so every enter has its leave.
  std::size_t records = 0;
  while (mode_ != Mode::kRelay) {
    ByteView raw;
    try {
      if (!reader.buffer_empty()) {
        // The last read cut a record off: feed the reader just the rest of
        // it (its header first) and handle it from there.
        const std::size_t take = std::min(reader.missing(), data.size());
        reader.feed(data.first(take));
        data = data.subspan(take);
        const auto rec = reader.next_view();
        if (!rec) {
          if (data.empty()) break;
          continue;  // its header is whole now: feed the body
        }
        raw = rec->raw;
      } else {
        // Whole records are handled where the read put them, uncopied; a
        // partial one left at the end waits in the reader.
        const auto size = tls::complete_record_size(data);
        if (!size) {
          reader.feed(data);
          data = {};
          break;
        }
        raw = data.first(*size);
        data = data.subspan(*size);
      }
      raw_in_hand_ = true;
      if (from_client)
        handle_downstream_record(raw);
      else
        handle_upstream_record(raw);
      raw_in_hand_ = false;
      ++records;
    } catch (const std::exception&) {
      demote_to_relay(from_client ? "downstream parse error" : "upstream parse error");
      if (raw_in_hand_) append(from_client ? to_server_ : to_client_, raw);
      raw_in_hand_ = false;
    }
  }
  return records;
}

// ------------------------------------------------------------- discovery

void Middlebox::on_client_hello(const tls::Record& record, ByteView raw) {
  saw_client_hello_ = true;
  tls::HandshakeReassembler reasm;
  reasm.feed(record.payload);
  const auto msg = reasm.next();
  if (!msg || msg->type != tls::HandshakeType::kClientHello) {
    demote_to_relay("malformed ClientHello");
    append(to_server_, raw);
    return;
  }
  const tls::ClientHello hello = tls::ClientHello::parse(msg->body);

  if (options_.side == Side::kClientSide) {
    // Join only when the client advertises mbTLS support.
    if (!hello.find_extension(tls::kExtMiddleboxSupport) || options_.peer_known_legacy) {
      if (!hello.find_extension(tls::kExtMiddleboxSupport)) observed_legacy_peer_ = true;
      demote_to_relay("legacy client");
      append(to_server_, raw);
      return;
    }
    mode_ = Mode::kJoining;
    trace_.instant("mbtls", "join.begin", {{"side", "client"}});
    create_secondary(record, msg->raw);
    // Secondary output (our ServerHello flight) is buffered until the
    // primary ServerHello passes and we claim a subchannel.
    append(to_server_, raw);
    return;
  }

  // Server side: announce, forward the hello, claim the next subchannel
  // (one per announcement seen so far), and inject our flight toward the
  // server immediately (its secondary ClientHello is the primary one).
  if (options_.peer_known_legacy) {
    demote_to_relay("peer known legacy");
    append(to_server_, raw);
    return;
  }
  mode_ = Mode::kJoining;
  trace_.instant("mbtls", "join.begin", {{"side", "server"}});
  append(to_server_, tls::frame_plaintext_record(
                         tls::ContentType::kMbtlsMiddleboxAnnouncement, {}));
  trace_.instant("mbtls", "announce.sent", {});
  append(to_server_, raw);
  subchannel_ = static_cast<std::uint8_t>(announcements_seen_downstream_ + 1);
  subchannel_assigned_ = true;
  trace_.instant("mbtls", "subchannel.claimed",
                 {{"subchannel", static_cast<int>(subchannel_)}});
  create_secondary(record, msg->raw);
  drain_secondary();
}

void Middlebox::create_secondary(const tls::Record& client_hello_record,
                                 ByteView client_hello_raw) {
  tls::Config cfg;
  cfg.is_client = false;
  if (!options_.cipher_suites.empty()) cfg.cipher_suites = options_.cipher_suites;
  cfg.private_key = options_.private_key;
  cfg.certificate_chain = options_.certificate_chain;
  cfg.enclave = options_.enclave;
  cfg.attest_unsolicited = options_.enclave != nullptr;
  cfg.secret_store = key_store();
  cfg.secret_prefix = options_.name + "/secondary/";
  cfg.now = options_.now;
  // One DRBG stream per ClientHello: a stream shared by every secondary
  // would repeat its ServerHello random, ECDHE key and ECDSA nonce, and two
  // signatures over different messages under one nonce give away the
  // middlebox's private key. The whole hello (its random included) goes into
  // the seed, so a peer that replays a random with other offers (another
  // suite, so another signature hash) still gets a fresh stream. A replay of
  // the whole hello reproduces this secondary's ServerHello and ECDHE key:
  // the stream is fresh per ClientHello, not per connection.
  cfg.rng_label =
      options_.name + "/secondary/" + hex_encode(crypto::Sha256::digest(client_hello_raw));
  cfg.session_cache = options_.session_cache;
  cfg.store_sessions = false;  // maybe_cache_session() is the only writer
  cfg.trace_sink = options_.trace_sink;
  cfg.trace_actor = trace_.actor() + "/sec";
  secondary_ = std::make_unique<tls::Engine>(std::move(cfg));
  secondary_->on_typed_record = [this](tls::ContentType type, ByteView plaintext) {
    if (type != tls::ContentType::kMbtlsKeyMaterial) return;
    const auto msg = tls::KeyMaterialMsg::parse(plaintext);
    if (msg) install_keys(*msg);
  };
  secondary_->feed_record(client_hello_record);
}

void Middlebox::feed_secondary(ByteView inner_record_bytes) {
  if (!secondary_) return;
  tls::RecordReader inner;
  inner.feed(inner_record_bytes);
  while (auto rec = inner.next()) secondary_->feed_record(*rec);
  drain_secondary();
  maybe_cache_session();
}

void Middlebox::maybe_cache_session() {
  // §3.5: remember this secondary session under the *primary* session's ID
  // so a future ClientHello offering that ID resumes every sub-handshake.
  if (session_cached_ || !options_.session_cache || !secondary_ ||
      !secondary_->handshake_done() || primary_session_id_.empty()) {
    return;
  }
  tls::SessionState state;
  state.session_id = primary_session_id_;
  state.suite = secondary_->suite().id;
  state.master_secret = secondary_->master_secret();
  options_.session_cache->store_by_id(state);
  session_cached_ = true;
}

void Middlebox::drain_secondary() {
  if (!secondary_) return;
  for (auto& record : secondary_->take_output_records()) {
    tls::EncapsulatedRecord enc;
    enc.subchannel = subchannel_;
    enc.inner_record = std::move(record);
    const Bytes framed =
        tls::frame_plaintext_record(tls::ContentType::kMbtlsEncapsulated, enc.encode());
    if (subchannel_assigned_) {
      append(endpoint_out(), framed);
    } else {
      secondary_out_buffer_.push_back(framed);
    }
  }
  if (secondary_->failed())
    demote_to_relay("secondary handshake failed: " + secondary_->error_message());
}

void Middlebox::install_keys(const tls::KeyMaterialMsg& msg) {
  const auto info = tls::suite_info(msg.cipher_suite);
  if (!info) {
    demote_to_relay("unknown cipher suite in key material");
    return;
  }
  toward_client_.emplace(msg.toward_client, info->key_len);
  toward_server_.emplace(msg.toward_server, info->key_len);
  joined_ = true;
  if (trace_.on()) {
    toward_client_->set_trace(trace_.sub("hop_c"));
    toward_server_->set_trace(trace_.sub("hop_s"));
    // Fingerprints only — raw hop keys must never reach a trace sink (lint
    // rule trace-no-secret).
    trace_.instant(
        "mbtls", "joined",
        {{"subchannel", static_cast<int>(subchannel_)},
         {"hop_c_c2s", tls::key_fingerprint(msg.toward_client.client_to_server_key)},
         {"hop_c_s2c", tls::key_fingerprint(msg.toward_client.server_to_client_key)},
         {"hop_s_c2s", tls::key_fingerprint(msg.toward_server.client_to_server_key)},
         {"hop_s_s2c", tls::key_fingerprint(msg.toward_server.server_to_client_key)}});
  }
  if (auto* store = key_store()) {
    store->put(options_.name + "/hop_toward_client_c2s", msg.toward_client.client_to_server_key);
    store->put(options_.name + "/hop_toward_client_s2c", msg.toward_client.server_to_client_key);
    store->put(options_.name + "/hop_toward_server_c2s", msg.toward_server.client_to_server_key);
    store->put(options_.name + "/hop_toward_server_s2c", msg.toward_server.server_to_client_key);
  }
  flush_buffered();
}

bool Middlebox::handshake_expired() {
  if (joined_ || mode_ == Mode::kRelay) return false;
  // Half-joined past the deadline (secondary handshake or key material
  // stalled): step out of the way. Buffered records are forwarded verbatim;
  // the endpoints' MACs and deadlines arbitrate from here.
  demote_to_relay("join deadline exceeded");
  return true;
}

void Middlebox::note_alert(ByteView plaintext, bool client_to_server) {
  const auto alert = parse_alert(plaintext);
  if (alert && alert->is_close_notify()) {
    (client_to_server ? close_seen_c2s_ : close_seen_s2c_) = true;
  }
}

void Middlebox::demote_to_relay(const std::string& reason) {
  if (mode_ != Mode::kRelay) trace_.instant("mbtls", "demote.relay", {{"reason", reason}});
  mode_ = Mode::kRelay;
  secondary_.reset();
  // Our own secondary flight was never sent and is dropped; buffered peer
  // records are forwarded verbatim.
  secondary_out_buffer_.clear();
  for (auto& b : buffered_data_) {
    append(b.from_client ? to_server_ : to_client_, b.raw);
  }
  buffered_data_.clear();
}

void Middlebox::flush_buffered() {
  while (!buffered_data_.empty()) {
    Buffered b = std::move(buffered_data_.front());
    buffered_data_.pop_front();
    reprotect(b.from_client, static_cast<tls::ContentType>(b.raw[0]), record_body(b.raw));
  }
}

// ------------------------------------------------------------ re-protection

// The forward path is zero-copy and zero-allocation: the feed loop views each
// record where the read put it, and the outbound record is sealed directly
// into the accumulating output buffer (whose capacity the binding keeps
// across reads). ApplicationData with no application processor takes one
// fused pass (HopChannel::reprotect_into) that reads the record and writes
// only the output. Alerts, and data for a processor, are copied into
// opened_, decrypted there, handled, then sealed; only a processor — which
// by contract returns a fresh payload — adds an allocation.

void Middlebox::reprotect(bool from_client, tls::ContentType type, ByteView body) {
  raw_in_hand_ = false;  // re-sealed onward or dropped here: never forwarded raw
  tls::HopChannel& in = from_client ? toward_client_->c2s() : toward_server_->s2c();
  tls::HopChannel& onward = from_client ? toward_server_->c2s() : toward_client_->s2c();
  Bytes& out = from_client ? to_server_ : to_client_;
  const auto count = [&](std::size_t len) {
    bytes_processed_ += len;
    ++records_reprotected_;
    if (trace_.on()) {
      trace_.counter("reprotect.records", 1);
      trace_.counter("reprotect.bytes", static_cast<double>(len));
    }
  };
  // P2/P4: an unauthenticated or out-of-path record is discarded, counted.
  const auto reject = [&] {
    ++auth_failures_;
    trace_.instant("mbtls", "reprotect.auth_fail", {{"dir", from_client ? "c2s" : "s2c"}});
  };

  if (type == tls::ContentType::kApplicationData && !options_.processor) {
    if (!in.reprotect_into(onward, type, body, out, count)) reject();
    return;
  }
  opened_.assign(body.begin(), body.end());  // the record's bytes are read-only
  const auto opened = in.open_in_place(type, opened_);
  if (!opened) {
    reject();
    return;
  }
  ByteView payload = *opened;
  Bytes processed;
  if (type == tls::ContentType::kApplicationData) {
    processed = options_.processor(from_client, payload);
    payload = processed;
  } else if (type == tls::ContentType::kAlert) {
    note_alert(payload, from_client);
  }
  count(payload.size());
  onward.seal_into(type, payload, out);
}

// ApplicationData and Alert records from either side.
void Middlebox::handle_data_record(bool from_client, ByteView raw) {
  const auto type = static_cast<tls::ContentType>(raw[0]);
  if (joined_) {
    reprotect(from_client, type, record_body(raw));
    return;
  }
  if (mode_ == Mode::kJoining && secondary_ && secondary_->handshake_done()) {
    // Data (False-Start-like, §3.5) or a hop-sealed alert (e.g. close_notify
    // right after such data) racing our key material: hold it in order —
    // relaying it raw would reach the next hop under the wrong keys.
    buffered_data_.push_back({from_client, to_bytes(raw)});
    return;
  }
  if (type == tls::ContentType::kApplicationData) {
    // The session went to data phase without us: the peer is legacy.
    observed_legacy_peer_ = options_.side == Side::kServerSide;
    demote_to_relay("data phase reached before join");
  } else if (!from_client && options_.side == Side::kServerSide && mode_ == Mode::kJoining) {
    // A fatal alert during the handshake may mean a strict legacy server
    // choked on our announcement (§3.4): remember that.
    observed_legacy_peer_ = true;
  }
  append(from_client ? to_server_ : to_client_, raw);
}

// ------------------------------------------------------------ record loops

// `raw` is valid only for the call; branches that keep the record beyond it
// (buffering, hello parsing) copy what they need — all of those are
// control-plane paths.

void Middlebox::handle_downstream_record(ByteView raw) {
  const auto type = static_cast<tls::ContentType>(raw[0]);

  if (!saw_client_hello_) {
    if (first_handshake_type(type, record_body(raw)) == tls::HandshakeType::kClientHello) {
      on_client_hello(parse_record(raw), raw);
      return;
    }
    if (type == tls::ContentType::kMbtlsMiddleboxAnnouncement) {
      // Another middlebox (closer to the client) claiming a server-side slot.
      ++announcements_seen_downstream_;
      append(to_server_, raw);
      return;
    }
    // Unknown pre-hello traffic: relay.
    append(to_server_, raw);
    return;
  }

  switch (type) {
    case tls::ContentType::kMbtlsEncapsulated: {
      const auto enc = tls::EncapsulatedRecord::parse(record_body(raw));
      if (enc && options_.side == Side::kClientSide && subchannel_assigned_ &&
          enc->subchannel == subchannel_) {
        feed_secondary(enc->inner_record);
        return;
      }
      append(to_server_, raw);
      return;
    }
    case tls::ContentType::kMbtlsMiddleboxAnnouncement:
      ++announcements_seen_downstream_;
      append(to_server_, raw);
      return;
    case tls::ContentType::kApplicationData:
    case tls::ContentType::kAlert:
      handle_data_record(/*from_client=*/true, raw);
      return;
    default:
      // Primary handshake traffic: cut-through forward.
      append(to_server_, raw);
      return;
  }
}

void Middlebox::handle_upstream_record(ByteView raw) {
  const auto type = static_cast<tls::ContentType>(raw[0]);

  switch (type) {
    case tls::ContentType::kMbtlsEncapsulated: {
      const auto enc = tls::EncapsulatedRecord::parse(record_body(raw));
      if (enc && options_.side == Side::kServerSide && subchannel_assigned_ &&
          enc->subchannel == subchannel_) {
        feed_secondary(enc->inner_record);
        return;
      }
      if (enc && options_.side == Side::kClientSide) {
        max_subchannel_seen_upstream_ = std::max(max_subchannel_seen_upstream_, enc->subchannel);
      }
      append(to_client_, raw);
      return;
    }
    case tls::ContentType::kHandshake: {
      // Observe the primary ServerHello: remember the primary session ID
      // (the resumption cache key, §3.5) and — on the client side — claim a
      // subchannel, injecting our secondary ServerHello ahead of it so the
      // next middlebox toward the client numbers itself after us (§3.4).
      const ByteView body = record_body(raw);
      if (mode_ == Mode::kJoining && primary_session_id_.empty() &&
          first_handshake_type(type, body) == tls::HandshakeType::kServerHello) {
        tls::HandshakeReassembler reasm;
        reasm.feed(body);
        if (const auto msg = reasm.next()) {
          try {
            primary_session_id_ = tls::ServerHello::parse(msg->body).session_id;
            maybe_cache_session();
          } catch (const tls::ProtocolError&) {
          }
        }
      }
      if (options_.side == Side::kClientSide && mode_ == Mode::kJoining &&
          !subchannel_assigned_ &&
          first_handshake_type(type, body) == tls::HandshakeType::kServerHello) {
        subchannel_ = static_cast<std::uint8_t>(max_subchannel_seen_upstream_ + 1);
        subchannel_assigned_ = true;
        trace_.instant("mbtls", "subchannel.claimed",
                       {{"subchannel", static_cast<int>(subchannel_)}});
        // Inject our secondary ServerHello *before* forwarding the primary
        // one, so the next middlebox toward the client sees our subchannel
        // claim first and numbers itself after us (paper §3.4).
        for (auto& framed : secondary_out_buffer_) append(to_client_, framed);
        secondary_out_buffer_.clear();
        drain_secondary();
        append(to_client_, raw);
        return;
      }
      append(to_client_, raw);
      return;
    }
    case tls::ContentType::kApplicationData:
    case tls::ContentType::kAlert:
      handle_data_record(/*from_client=*/false, raw);
      return;
    default:
      append(to_client_, raw);
      return;
  }
}

}  // namespace mbtls::mb
