#include "tls/engine.h"

#include "crypto/sha2.h"
#include "tls/ticket.h"
#include "ec/ecdh.h"
#include "util/ct.h"
#include "util/hex.h"
#include "util/writer.h"

namespace mbtls::tls {

namespace {

constexpr std::uint8_t kSigAlgoRsa = 1;
constexpr std::uint8_t kSigAlgoEcdsa = 3;

std::uint8_t hash_registry_value(crypto::HashAlgo h) { return static_cast<std::uint8_t>(h); }

crypto::HashAlgo hash_from_registry(std::uint8_t v) {
  switch (v) {
    case 4: return crypto::HashAlgo::kSha256;
    case 5: return crypto::HashAlgo::kSha384;
    case 6: return crypto::HashAlgo::kSha512;
  }
  throw ProtocolError(AlertDescription::kIllegalParameter, "unsupported signature hash");
}

}  // namespace

Engine::Engine(Config config)
    : config_(std::move(config)),
      rng_(config_.rng_label, config_.rng_seed),
      trace_(config_.trace_sink, config_.trace_actor) {
  state_ = config_.is_client ? EngineState::kIdle : EngineState::kAwaitClientHello;
}

Engine::~Engine() {
  secure_wipe(pre_master_secret_);
  secure_wipe(master_secret_);
  // key_block_, offered_session_ and the hop channels wipe themselves
  // (DirectionKeys / SessionState / AesGcm destructors).
}

// ------------------------------------------------------------------ egress

void Engine::emit_record(ContentType type, ByteView payload) {
  if (write_channel_) {
    append(output_, write_channel_->seal(type, payload));
  } else {
    append(output_, frame_plaintext_record(type, payload));
  }
}

void Engine::emit_handshake(HandshakeType type, ByteView body) {
  note_flight(true);
  if (trace_.on()) {
    trace_.instant("tls", "hs.out",
                   {{"msg", to_string(type)},
                    {"len", static_cast<std::uint64_t>(body.size())}});
  }
  const Bytes msg = wrap_handshake(type, body);
  append_transcript(msg);
  emit_record(ContentType::kHandshake, msg);
}

void Engine::note_flight(bool outbound) {
  if (state_ == EngineState::kEstablished) return;
  const int dir = outbound ? 1 : 2;
  if (dir == last_flight_dir_) return;
  last_flight_dir_ = dir;
  ++flight_;
  if (trace_.on()) {
    trace_.instant("tls", "flight",
                   {{"index", flight_}, {"dir", outbound ? "out" : "in"}});
  }
}

Bytes Engine::take_output() { return std::move(output_); }

std::vector<Bytes> Engine::take_output_records() {
  std::vector<Bytes> records;
  RecordReader splitter;
  splitter.feed(output_);
  output_.clear();
  while (auto raw = splitter.take_raw()) records.push_back(std::move(*raw));
  return records;
}

// -------------------------------------------------------------- transcript

void Engine::start_transcript() {
  transcript_.emplace(suite_->prf_hash);
  transcript_->update(client_hello_raw_);
}

void Engine::append_transcript(ByteView raw_message) {
  // Before the suite fixes the hash the only message is the ClientHello,
  // which start_transcript() feeds from client_hello_raw_.
  if (transcript_) transcript_->update(raw_message);
}

Bytes Engine::transcript_hash() const { return crypto::Hasher(transcript_.value()).finish(); }

// ------------------------------------------------------------------ errors

void Engine::fail(AlertDescription alert, const std::string& message) {
  if (state_ == EngineState::kError) return;
  last_alert_ = alert;
  error_message_ = message;
  trace_.instant("tls", "fail", {{"alert", to_string(alert)}, {"reason", message}});
  // Best effort fatal alert to the peer.
  Bytes body;
  put_u8(body, static_cast<std::uint8_t>(AlertLevel::kFatal));
  put_u8(body, static_cast<std::uint8_t>(alert));
  try {
    emit_record(ContentType::kAlert, body);
  } catch (...) {
  }
  state_ = EngineState::kError;
}

// ------------------------------------------------------------------ ingest

void Engine::feed(ByteView transport_bytes) {
  if (state_ == EngineState::kError) return;
  try {
    reader_.consume(transport_bytes, [&](RecordView rec) {
      feed_record(rec.type, rec.body());
      return state_ != EngineState::kError;
    });
  } catch (const ProtocolError& e) {
    fail(e.alert(), e.what());
  } catch (const DecodeError& e) {
    fail(AlertDescription::kDecodeError, e.what());
  }
}

bool Engine::read_into(ContentType type, ByteView body, Bytes& out) {
  if (!read_protected_) {
    append(out, body);
    return true;
  }
  if (read_channel_->open_into(type, body, out)) return true;
  fail(AlertDescription::kBadRecordMac, "record authentication failed");
  return false;
}

void Engine::feed_record(ContentType type, ByteView body) {
  if (state_ == EngineState::kError || state_ == EngineState::kClosed) return;
  try {
    // Plaintext lands where it is consumed: handshake bytes in the
    // reassembler, application data in plaintext_in_.
    switch (type) {
      case ContentType::kChangeCipherSpec:
        handle_change_cipher_spec(body);
        return;
      case ContentType::kHandshake:
        if (!read_into(type, body, reassembler_.input())) return;
        while (auto msg = reassembler_.next()) {
          handle_handshake_message(*msg);
          if (state_ == EngineState::kError) return;
        }
        return;
      case ContentType::kApplicationData: {
        const std::size_t base = plaintext_in_.size();
        if (!read_into(type, body, plaintext_in_)) return;
        if (state_ != EngineState::kEstablished) {
          plaintext_in_.resize(base);
          fail(AlertDescription::kUnexpectedMessage, "application data during handshake");
        }
        return;
      }
      case ContentType::kAlert:
        break;
      default:
        if (on_typed_record) break;  // mbTLS layer wants these; decrypt below
        // mbTLS record types reaching a plain engine = legacy endpoint
        // behaviour (§3.4): either ignore or abort.
        if (config_.ignore_unknown_record_types) return;
        fail(AlertDescription::kUnexpectedMessage, "unknown record type");
        return;
    }
    Bytes plaintext;
    if (!read_into(type, body, plaintext)) return;
    if (type == ContentType::kAlert) {
      handle_alert(plaintext);
    } else {
      on_typed_record(type, plaintext);
    }
  } catch (const ProtocolError& e) {
    fail(e.alert(), e.what());
  } catch (const DecodeError& e) {
    fail(AlertDescription::kDecodeError, e.what());
  }
}

void Engine::handle_alert(ByteView payload) {
  if (payload.size() != 2) {
    fail(AlertDescription::kDecodeError, "malformed alert");
    return;
  }
  const auto level = static_cast<AlertLevel>(payload[0]);
  const auto desc = static_cast<AlertDescription>(payload[1]);
  trace_.instant("tls", "alert.in",
                 {{"alert", to_string(desc)},
                  {"level", level == AlertLevel::kFatal ? "fatal" : "warning"}});
  if (desc == AlertDescription::kCloseNotify) {
    state_ = EngineState::kClosed;
    return;
  }
  if (level == AlertLevel::kFatal) {
    last_alert_ = desc;
    error_message_ = std::string("peer alert: ") + to_string(desc);
    state_ = EngineState::kError;
  }
}

void Engine::handle_change_cipher_spec(ByteView payload) {
  if (payload.size() != 1 || payload[0] != 1)
    throw ProtocolError(AlertDescription::kDecodeError, "malformed ChangeCipherSpec");
  if (state_ != EngineState::kAwaitChangeCipherSpec)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "unexpected ChangeCipherSpec");
  note_flight(false);
  activate_read_keys();
  state_ = EngineState::kAwaitFinished;
}

void Engine::handle_handshake_message(const HandshakeMsg& msg) {
  note_flight(false);
  if (trace_.on()) {
    trace_.instant("tls", "hs.in",
                   {{"msg", to_string(msg.type)},
                    {"len", static_cast<std::uint64_t>(msg.body.size())}});
  }
  switch (msg.type) {
    case HandshakeType::kClientHello: return handle_client_hello(msg);
    case HandshakeType::kServerHello: return handle_server_hello(msg);
    case HandshakeType::kNewSessionTicket: return handle_new_session_ticket(msg);
    case HandshakeType::kCertificate: return handle_certificate(msg);
    case HandshakeType::kServerKeyExchange: return handle_server_key_exchange(msg);
    case HandshakeType::kSgxAttestation: return handle_sgx_attestation(msg);
    case HandshakeType::kServerHelloDone: return handle_server_hello_done(msg);
    case HandshakeType::kClientKeyExchange: return handle_client_key_exchange(msg);
    case HandshakeType::kFinished: return handle_finished(msg);
    default:
      throw ProtocolError(AlertDescription::kUnexpectedMessage, "unsupported handshake message");
  }
}

// ----------------------------------------------------------------- tickets

Bytes Engine::make_ticket(const SessionState& state) {
  const Bytes plain = encode_ticket_state(state);
  if (config_.ticket_keys) return config_.ticket_keys->seal(plain);
  if (config_.enclave) return config_.enclave->seal(plain);
  throw ProtocolError(AlertDescription::kInternalError, "no ticket key configured");
}

std::optional<SessionState> Engine::open_ticket(ByteView ticket, bool* stale_key) const {
  std::optional<Bytes> plain;
  if (config_.ticket_keys) {
    if (auto opened = config_.ticket_keys->unseal(ticket)) {
      if (stale_key) *stale_key = opened->stale;
      plain = std::move(opened->plaintext);
    }
  } else if (config_.enclave) {
    plain = config_.enclave->unseal(ticket);
  }
  if (!plain) return std::nullopt;
  auto state = decode_ticket_state(*plain);
  secure_wipe(*plain);
  return state;
}

void Engine::handle_new_session_ticket(const HandshakeMsg& msg) {
  if (!config_.is_client || state_ != EngineState::kAwaitChangeCipherSpec)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "unexpected NewSessionTicket");
  append_transcript(msg.raw);
  Reader r(msg.body);
  r.u32();  // lifetime hint (unused by the simulation)
  received_ticket_ = to_bytes(r.vec16());
  r.expect_end();
}

// ------------------------------------------------------------------ client

void Engine::start() {
  if (!config_.is_client || state_ != EngineState::kIdle) return;
  send_client_hello();
}

void Engine::start_with_preset_hello(const ClientHello& hello, ByteView raw_message,
                                     std::optional<SessionState> session) {
  if (!config_.is_client || state_ != EngineState::kIdle) return;
  // The primary ClientHello does double duty as ours: it counts as our
  // outbound flight even though this engine never puts it on the wire.
  note_flight(true);
  trace_.instant("tls", "hs.preset_hello",
                 {{"len", static_cast<std::uint64_t>(raw_message.size())}});
  client_random_ = hello.random;
  parsed_client_hello_ = hello;
  client_hello_raw_ = to_bytes(raw_message);
  offered_session_ = std::move(session);
  state_ = EngineState::kAwaitServerHello;
}

void Engine::send_client_hello() {
  ClientHello hello;
  hello.random = rng_.bytes(32);
  client_random_ = hello.random;

  if (config_.offer_resumption && config_.session_cache) {
    if (auto cached = config_.session_cache->lookup_by_peer(config_.server_name)) {
      if (config_.enable_session_tickets && !cached->ticket.empty()) {
        // Ticket resumption: the session ID is a random marker the server
        // echoes so the client can recognize the abbreviated handshake.
        cached->session_id = rng_.bytes(32);
      }
      hello.session_id = cached->session_id;
      offered_session_ = std::move(*cached);
    }
  }

  hello.cipher_suites.reserve(config_.cipher_suites.size());
  for (const auto s : config_.cipher_suites)
    hello.cipher_suites.push_back(static_cast<std::uint16_t>(s));

  hello.extensions.reserve(5 + config_.extra_extensions.size());
  if (!config_.server_name.empty())
    hello.extensions.push_back({kExtServerName, encode_sni(config_.server_name)});
  // supported_groups: secp256r1 only.
  hello.extensions.push_back({kExtSupportedGroups, Bytes{0, 2, 0, 23}});
  // signature_algorithms: sha256/sha384 x rsa/ecdsa.
  hello.extensions.push_back({kExtSignatureAlgorithms, Bytes{0, 8, 4, 1, 4, 3, 5, 1, 5, 3}});
  if (config_.enable_session_tickets) {
    hello.extensions.push_back(
        {kExtSessionTicket, offered_session_ ? offered_session_->ticket : Bytes{}});
  }
  if (config_.request_attestation) hello.extensions.push_back({kExtAttestationRequest, {}});
  for (const auto& ext : config_.extra_extensions) hello.extensions.push_back(ext);

  const Bytes body = hello.encode_body();
  parsed_client_hello_ = std::move(hello);
  client_hello_raw_ = wrap_handshake(HandshakeType::kClientHello, body);
  emit_handshake(HandshakeType::kClientHello, body);
  state_ = EngineState::kAwaitServerHello;
}

void Engine::handle_server_hello(const HandshakeMsg& msg) {
  if (state_ != EngineState::kAwaitServerHello)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "unexpected ServerHello");
  const ServerHello hello = ServerHello::parse(msg.body);
  server_random_ = hello.random;
  session_id_ = hello.session_id;

  const auto info = suite_info(hello.cipher_suite);
  if (!info) throw ProtocolError(AlertDescription::kHandshakeFailure, "server chose unknown suite");
  bool offered = false;
  for (const auto s : parsed_client_hello_->cipher_suites) {
    if (s == hello.cipher_suite) offered = true;
  }
  if (!offered)
    throw ProtocolError(AlertDescription::kIllegalParameter, "server chose unoffered suite");
  suite_ = *info;
  start_transcript();
  append_transcript(msg.raw);

  // Resumption: server echoed the session ID (or ticket marker) we offered.
  if (!parsed_client_hello_->session_id.empty() &&
      equal(hello.session_id, parsed_client_hello_->session_id)) {
    if (offered_session_ && offered_session_->suite == suite_->id) {
      resumed_ = true;
      master_secret_ = offered_session_->master_secret;
      derive_key_block_once();
      state_ = EngineState::kAwaitChangeCipherSpec;
      return;
    }
    throw ProtocolError(AlertDescription::kHandshakeFailure, "resumption state mismatch");
  }

  state_ = EngineState::kAwaitCertificate;
}

void Engine::handle_certificate(const HandshakeMsg& msg) {
  if (state_ != EngineState::kAwaitCertificate)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "unexpected Certificate");
  append_transcript(msg.raw);
  const CertificateMsg cert_msg = CertificateMsg::parse(msg.body);
  if (cert_msg.chain_der.empty())
    throw ProtocolError(AlertDescription::kBadCertificate, "empty certificate chain");

  // With a cert pool attached, identical DER blobs (the common case at
  // scale: every session to an origin sees the same chain) resolve to one
  // shared parsed Certificate instead of a fresh parse per handshake.
  std::vector<std::shared_ptr<const x509::Certificate>> pooled;
  std::vector<x509::Certificate> owned;
  std::vector<const x509::Certificate*> chain;
  try {
    for (const auto& der : cert_msg.chain_der) {
      if (config_.cert_pool) {
        pooled.push_back(config_.cert_pool->intern(der));
      } else {
        owned.push_back(x509::Certificate::parse(der));
      }
    }
  } catch (const DecodeError&) {
    throw ProtocolError(AlertDescription::kBadCertificate, "unparseable certificate");
  }
  for (const auto& cert : pooled) chain.push_back(cert.get());
  for (const auto& cert : owned) chain.push_back(&cert);
  peer_certificate_ = *chain.front();

  if (config_.verify_peer_certificate) {
    const x509::VerifyOptions opts{config_.now, config_.server_name};
    x509::SignatureCheck check;
    if (config_.cert_pool) {
      check = [pool = config_.cert_pool](const x509::Certificate& cert,
                                         const x509::PublicKey& issuer_key) {
        return pool->verify_signature(cert, issuer_key);
      };
    }
    const auto status = x509::verify_chain(chain, config_.trust_anchors, opts, check);
    if (status != x509::VerifyStatus::kOk) {
      AlertDescription alert = AlertDescription::kBadCertificate;
      if (status == x509::VerifyStatus::kExpired) alert = AlertDescription::kCertificateExpired;
      if (status == x509::VerifyStatus::kUnknownIssuer) alert = AlertDescription::kUnknownCa;
      throw ProtocolError(alert, std::string("certificate verification failed: ") +
                                     x509::to_string(status));
    }
  }
  state_ = EngineState::kAwaitServerKeyExchange;
}

Bytes Engine::signature_payload(const ServerKeyExchange& ske) const {
  return concat({client_random_, server_random_, ske.params_bytes()});
}

void Engine::handle_server_key_exchange(const HandshakeMsg& msg) {
  if (state_ != EngineState::kAwaitServerKeyExchange)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "unexpected ServerKeyExchange");
  append_transcript(msg.raw);
  const ServerKeyExchange ske = ServerKeyExchange::parse(msg.body, suite_->kx);

  if (!peer_certificate_)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "ServerKeyExchange before cert");
  // The signature algorithm must match the certificate key type.
  const auto key_type = peer_certificate_->info().key.type();
  if ((ske.sig_algo == kSigAlgoRsa) != (key_type == x509::KeyType::kRsa))
    throw ProtocolError(AlertDescription::kIllegalParameter, "signature/cert key mismatch");
  const crypto::HashAlgo sig_hash = hash_from_registry(ske.sig_hash);
  if (!peer_certificate_->info().key.verify(sig_hash, signature_payload(ske), ske.signature))
    throw ProtocolError(AlertDescription::kDecryptError, "ServerKeyExchange signature invalid");

  received_ske_ = ske;
  attestation_binding_hash_ = transcript_hash();
  state_ = EngineState::kAwaitServerHelloDone;
}

void Engine::handle_sgx_attestation(const HandshakeMsg& msg) {
  if (state_ != EngineState::kAwaitServerHelloDone)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "unexpected SGXAttestation");
  append_transcript(msg.raw);
  const SgxAttestationMsg att = SgxAttestationMsg::parse(msg.body);
  const auto quote = sgx::Enclave::QuoteData::decode(att.quote);
  if (!quote) throw ProtocolError(AlertDescription::kDecodeError, "malformed attestation quote");
  const bool quote_ok =
      config_.quote_verifier
          ? config_.quote_verifier->verify(quote->measurement, quote->report_data,
                                           quote->signature)
          : sgx::verify_quote(quote->measurement, quote->report_data, quote->signature);
  if (!quote_ok)
    throw ProtocolError(AlertDescription::kDecryptError, "attestation signature invalid");
  // Freshness: the quote must bind this handshake's transcript (through the
  // ServerKeyExchange) — a replayed quote from another handshake fails here.
  Bytes expected_rd = attestation_binding_hash_;
  expected_rd.resize(64, 0);
  if (!ct::equal(quote->report_data, expected_rd))
    throw ProtocolError(AlertDescription::kDecryptError, "attestation not bound to handshake");
  if (!config_.expected_measurement.empty() &&
      !equal(quote->measurement, config_.expected_measurement))
    throw ProtocolError(AlertDescription::kBadCertificate, "unexpected enclave measurement");
  peer_attested_ = true;
  peer_measurement_ = quote->measurement;
}

void Engine::handle_server_hello_done(const HandshakeMsg& msg) {
  if (state_ != EngineState::kAwaitServerHelloDone)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "unexpected ServerHelloDone");
  if (config_.request_attestation && !peer_attested_)
    throw ProtocolError(AlertDescription::kHandshakeFailure,
                        "attestation required but not provided");
  append_transcript(msg.raw);
  send_client_key_exchange_flight();
}

void Engine::send_client_key_exchange_flight() {
  ClientKeyExchange cke;
  cke.kx = suite_->kx;
  if (suite_->kx == KeyExchange::kEcdhe) {
    ecdhe_ = ec::ecdh_generate(rng_);
    cke.public_value = ecdhe_->public_point;
    pre_master_secret_ = ec::ecdh_shared_secret(*ecdhe_, received_ske_->ec_point);
  } else {
    DhGroup group{bn::BigInt::from_bytes(received_ske_->dh_p),
                  bn::BigInt::from_bytes(received_ske_->dh_g)};
    dhe_ = dh_generate(group, rng_);
    cke.public_value = dhe_->public_value;
    pre_master_secret_ = dh_shared_secret(group, dhe_->private_key, received_ske_->dh_ys);
  }
  emit_handshake(HandshakeType::kClientKeyExchange, cke.encode_body());

  master_secret_ =
      derive_master_secret(suite_->prf_hash, pre_master_secret_, client_random_, server_random_);
  register_secret("master_secret", master_secret_);
  derive_key_block_once();
  send_ccs_and_finished();
  state_ = EngineState::kAwaitChangeCipherSpec;
}

// ------------------------------------------------------------------ server

void Engine::handle_client_hello(const HandshakeMsg& msg) {
  if (config_.is_client || state_ != EngineState::kAwaitClientHello)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "unexpected ClientHello");
  client_hello_raw_ = msg.raw;
  parsed_client_hello_ = ClientHello::parse(msg.body);
  const ClientHello& hello = *parsed_client_hello_;
  client_random_ = hello.random;
  attestation_requested_by_peer_ = hello.find_extension(kExtAttestationRequest) != nullptr;

  // Suite selection: server preference order, constrained to suites whose
  // signature algorithm matches our certificate key.
  for (const auto preferred : config_.cipher_suites) {
    const auto info = suite_info(preferred);
    if (config_.private_key) {
      const bool suite_wants_rsa = info->auth == AuthAlgo::kRsa;
      if (suite_wants_rsa != (config_.private_key->type() == x509::KeyType::kRsa)) continue;
    }
    for (const auto offered : hello.cipher_suites) {
      if (offered == static_cast<std::uint16_t>(preferred)) {
        suite_ = *info;
        break;
      }
    }
    if (suite_) break;
  }
  if (!suite_)
    throw ProtocolError(AlertDescription::kHandshakeFailure, "no mutually supported cipher suite");
  start_transcript();

  server_random_ = rng_.bytes(32);

  // Ticket-based resumption takes precedence: an acceptable ticket restores
  // the session regardless of any server-side cache.
  if (config_.enable_session_tickets) {
    if (const auto* ext = hello.find_extension(kExtSessionTicket)) {
      ticket_session_ = true;
      if (!ext->data.empty()) {
        bool stale_key = false;
        if (auto state = open_ticket(ext->data, &stale_key);
            state && state->suite == suite_->id) {
          // Echo the client's session-ID marker so it recognizes resumption.
          state->session_id = hello.session_id;
          // Ticket sealed under the previous (soon-to-retire) rotation key:
          // resume now, but reissue under the current key inside the
          // abbreviated flight so the next connection also resumes.
          should_issue_ticket_ = stale_key;
          send_server_resumption_flight(*state);
          return;
        }
      }
      should_issue_ticket_ = true;  // client supports tickets: issue one
    }
  }

  // ID-based resumption.
  if (config_.session_cache && !hello.session_id.empty()) {
    offered_session_ = config_.session_cache->lookup_by_id(hello.session_id);
    if (offered_session_ && offered_session_->suite == suite_->id) {
      send_server_resumption_flight(*offered_session_);
      return;
    }
  }

  send_server_flight();
}

void Engine::send_server_flight() {
  session_id_ = rng_.bytes(32);
  ServerHello hello;
  hello.random = server_random_;
  hello.session_id = session_id_;
  hello.cipher_suite = static_cast<std::uint16_t>(suite_->id);
  if (should_issue_ticket_) hello.extensions.push_back({kExtSessionTicket, {}});
  emit_handshake(HandshakeType::kServerHello, hello.encode_body());

  if (!config_.private_key || config_.certificate_chain.empty())
    throw ProtocolError(AlertDescription::kInternalError, "server has no certificate");
  // The certificate key type must match what the negotiated suite signs with.
  const bool suite_wants_rsa = suite_->auth == AuthAlgo::kRsa;
  if (suite_wants_rsa != (config_.private_key->type() == x509::KeyType::kRsa))
    throw ProtocolError(AlertDescription::kHandshakeFailure, "certificate/suite mismatch");

  CertificateMsg cert_msg;
  for (const auto& cert : config_.certificate_chain) cert_msg.chain_der.push_back(to_bytes(cert.der()));
  emit_handshake(HandshakeType::kCertificate, cert_msg.encode_body());

  ServerKeyExchange ske;
  ske.kx = suite_->kx;
  if (suite_->kx == KeyExchange::kEcdhe) {
    ecdhe_ = ec::ecdh_generate(rng_);
    ske.ec_point = ecdhe_->public_point;
  } else {
    const DhGroup& group = default_dh_group();
    dhe_ = dh_generate(group, rng_);
    ske.dh_p = group.p.to_bytes();
    ske.dh_g = group.g.to_bytes();
    ske.dh_ys = dhe_->public_value;
  }
  ske.sig_hash = hash_registry_value(suite_->prf_hash);
  ske.sig_algo = suite_->auth == AuthAlgo::kRsa ? kSigAlgoRsa : kSigAlgoEcdsa;
  ske.signature = config_.private_key->sign(suite_->prf_hash, signature_payload(ske), rng_);
  emit_handshake(HandshakeType::kServerKeyExchange, ske.encode_body());

  attestation_binding_hash_ = transcript_hash();
  maybe_send_attestation();

  emit_handshake(HandshakeType::kServerHelloDone, {});
  state_ = EngineState::kAwaitClientKeyExchange;
}

void Engine::maybe_send_attestation() {
  if (!config_.enclave) return;
  if (!attestation_requested_by_peer_ && !config_.attest_unsolicited) return;
  const auto quote = config_.enclave->quote(attestation_binding_hash_);
  SgxAttestationMsg att;
  att.quote = quote.encode();
  emit_handshake(HandshakeType::kSgxAttestation, att.encode_body());
}

void Engine::send_server_resumption_flight(const SessionState& session) {
  resumed_ = true;
  session_id_ = session.session_id;
  master_secret_ = session.master_secret;
  register_secret("master_secret", master_secret_);

  ServerHello hello;
  hello.random = server_random_;
  hello.session_id = session_id_;
  hello.cipher_suite = static_cast<std::uint16_t>(suite_->id);
  emit_handshake(HandshakeType::kServerHello, hello.encode_body());

  // RFC 5077 §3.3: the abbreviated handshake may carry a NewSessionTicket
  // between ServerHello and ChangeCipherSpec. Used on ticket-key rotation to
  // replace a ticket that authenticated under the outgoing key.
  if (should_issue_ticket_) {
    SessionState reissue;
    reissue.suite = suite_->id;
    reissue.master_secret = master_secret_;
    Writer nst;
    nst.u32(7200);  // lifetime hint, seconds
    nst.vec16(make_ticket(reissue));
    emit_handshake(HandshakeType::kNewSessionTicket, nst.buffer());
  }

  derive_key_block_once();
  send_ccs_and_finished();
  state_ = EngineState::kAwaitChangeCipherSpec;
}

void Engine::handle_client_key_exchange(const HandshakeMsg& msg) {
  if (config_.is_client || state_ != EngineState::kAwaitClientKeyExchange)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "unexpected ClientKeyExchange");
  append_transcript(msg.raw);
  const ClientKeyExchange cke = ClientKeyExchange::parse(msg.body, suite_->kx);
  try {
    if (suite_->kx == KeyExchange::kEcdhe) {
      pre_master_secret_ = ec::ecdh_shared_secret(*ecdhe_, cke.public_value);
    } else {
      pre_master_secret_ =
          dh_shared_secret(default_dh_group(), dhe_->private_key, cke.public_value);
    }
  } catch (const std::invalid_argument& e) {
    throw ProtocolError(AlertDescription::kIllegalParameter, e.what());
  }
  master_secret_ =
      derive_master_secret(suite_->prf_hash, pre_master_secret_, client_random_, server_random_);
  register_secret("master_secret", master_secret_);
  derive_key_block_once();
  state_ = EngineState::kAwaitChangeCipherSpec;
}

// ------------------------------------------------------------ shared tail

void Engine::derive_key_block_once() {
  if (key_block_) return;
  key_block_ = derive_key_block(suite_->prf_hash, master_secret_, client_random_, server_random_,
                                suite_->key_len);
  register_secret("client_write_key", key_block_->client_write.key);
  register_secret("client_write_iv", key_block_->client_write.fixed_iv);
  register_secret("server_write_key", key_block_->server_write.key);
  register_secret("server_write_iv", key_block_->server_write.fixed_iv);
  if (trace_.on()) {
    // Keylog-style event: fingerprints only, never raw key bytes
    // (tools/mbtls-lint: trace-no-secret).
    trace_.instant("tls", "keys.derived",
                   {{"client_write", key_fingerprint(key_block_->client_write.key)},
                    {"server_write", key_fingerprint(key_block_->server_write.key)},
                    {"suite", suite_name(suite_->id)},
                    {"resumed", resumed_ ? 1 : 0}});
  }
}

void Engine::send_ccs_and_finished() {
  // ChangeCipherSpec (not part of the transcript), then activate our write
  // protection and send Finished under the new keys.
  note_flight(true);
  Bytes ccs{1};
  emit_record(ContentType::kChangeCipherSpec, ccs);
  const DirectionKeys& write_keys =
      config_.is_client ? key_block_->client_write : key_block_->server_write;
  write_channel_.emplace(write_keys);
  if (trace_.on()) write_channel_->set_trace(trace_.sub("write"));

  const Bytes verify =
      finished_verify_data(suite_->prf_hash, master_secret_, config_.is_client, transcript_hash());
  emit_handshake(HandshakeType::kFinished, verify);
  our_finished_sent_ = true;
}

void Engine::activate_read_keys() {
  if (!key_block_)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "ChangeCipherSpec before keys");
  const DirectionKeys& read_keys =
      config_.is_client ? key_block_->server_write : key_block_->client_write;
  read_channel_.emplace(read_keys);
  if (trace_.on()) read_channel_->set_trace(trace_.sub("read"));
  read_protected_ = true;
}

void Engine::handle_finished(const HandshakeMsg& msg) {
  if (state_ != EngineState::kAwaitFinished)
    throw ProtocolError(AlertDescription::kUnexpectedMessage, "unexpected Finished");
  const Bytes expected = finished_verify_data(suite_->prf_hash, master_secret_,
                                              /*from_client=*/!config_.is_client,
                                              transcript_hash());
  if (!ct::equal(expected, msg.body))
    throw ProtocolError(AlertDescription::kDecryptError, "Finished verify_data mismatch");
  append_transcript(msg.raw);
  peer_finished_seen_ = true;

  if (!our_finished_sent_) {
    if (should_issue_ticket_) {
      SessionState state;
      state.suite = suite_->id;
      state.master_secret = master_secret_;
      Writer nst;
      nst.u32(7200);  // lifetime hint, seconds
      nst.vec16(make_ticket(state));
      emit_handshake(HandshakeType::kNewSessionTicket, nst.buffer());
    }
    send_ccs_and_finished();
  }
  finish_handshake();
}

void Engine::finish_handshake() {
  state_ = EngineState::kEstablished;
  if (trace_.on()) {
    trace_.instant("tls", "established",
                   {{"flights", flight_}, {"resumed", resumed_ ? 1 : 0}});
  }
  if (config_.store_sessions) store_session();
}

void Engine::store_session(std::vector<SecondarySession> secondaries) const {
  // A ticket session comes back as its ticket under a fresh random
  // session-ID marker, which no server ID-cache entry would match.
  if (!config_.session_cache || session_id_.empty() || ticket_session_) return;
  SessionState session;
  session.session_id = session_id_;
  session.suite = suite_->id;
  session.master_secret = master_secret_;
  session.ticket = received_ticket_;
  // A resumed handshake without a fresh NewSessionTicket leaves the offered
  // ticket valid (RFC 5077 tickets are multi-use): keep it so the client
  // stays on the abbreviated path for every future connection.
  if (session.ticket.empty() && resumed_ && offered_session_)
    session.ticket = offered_session_->ticket;
  session.secondaries = std::move(secondaries);
  if (config_.is_client) {
    config_.session_cache->store_by_peer(config_.server_name, session);
  } else {
    config_.session_cache->store_by_id(session);
  }
}

void Engine::register_secret(const std::string& name, ByteView value) {
  if (!config_.secret_store) return;
  config_.secret_store->put(config_.secret_prefix + name, to_bytes(value));
}

// ---------------------------------------------------------------- app data

void Engine::send(ByteView application_data) {
  if (state_ != EngineState::kEstablished)
    throw std::logic_error("Engine::send before handshake completion");
  std::size_t off = 0;
  while (off < application_data.size()) {
    const std::size_t n = std::min(kMaxRecordPayload, application_data.size() - off);
    emit_record(ContentType::kApplicationData, application_data.subspan(off, n));
    off += n;
  }
}

void Engine::send_typed(ContentType type, ByteView data) {
  if (state_ != EngineState::kEstablished)
    throw std::logic_error("Engine::send_typed before handshake completion");
  emit_record(type, data);
}

Bytes Engine::take_plaintext() { return std::move(plaintext_in_); }

void Engine::close() {
  if (state_ == EngineState::kError || state_ == EngineState::kClosed) return;
  Bytes body;
  put_u8(body, static_cast<std::uint8_t>(AlertLevel::kWarning));
  put_u8(body, static_cast<std::uint8_t>(AlertDescription::kCloseNotify));
  emit_record(ContentType::kAlert, body);
  state_ = EngineState::kClosed;
}

// ------------------------------------------------------------- negotiated

const SuiteInfo& Engine::suite() const {
  if (!suite_) throw std::logic_error("suite() before negotiation");
  return *suite_;
}

ConnectionKeys Engine::connection_keys() const {
  if (state_ != EngineState::kEstablished)
    throw std::logic_error("connection_keys() before handshake completion");
  ConnectionKeys keys;
  keys.suite = suite_->id;
  keys.keys = *key_block_;
  const std::uint64_t write_seq = write_channel_->sequence();
  const std::uint64_t read_seq = read_channel_->sequence();
  keys.client_seq = config_.is_client ? write_seq : read_seq;
  keys.server_seq = config_.is_client ? read_seq : write_seq;
  return keys;
}

}  // namespace mbtls::tls
