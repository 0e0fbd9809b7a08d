#include "tls/record.h"

namespace mbtls::tls {

Bytes frame_plaintext_record(ContentType type, ByteView payload) {
  if (payload.size() > kMaxRecordPayload)
    throw ProtocolError(AlertDescription::kRecordOverflow, "record payload too large");
  Bytes out;
  out.reserve(kRecordHeaderSize + payload.size());
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u16(out, kVersionTls12);
  put_u16(out, static_cast<std::uint16_t>(payload.size()));
  append(out, payload);
  return out;
}

HopChannel::HopChannel(const DirectionKeys& keys, std::uint64_t initial_seq)
    : aead_(keys.key), fixed_iv_(keys.fixed_iv), seq_(initial_seq) {
  if (fixed_iv_.size() != 4) throw std::invalid_argument("GCM fixed IV must be 4 bytes");
}

namespace {
// A protected record body: explicit nonce || ciphertext || tag.
constexpr std::size_t kProtectionOverhead = kExplicitNonceSize + crypto::AesGcm::kTagSize;

// Nonce = fixed_iv (4) || explicit nonce (8); AAD = seq || type || version ||
// length (RFC 5288). Both are small and fixed-size, so they are built on the
// stack — the data plane allocates nothing per record.
void make_nonce(const Bytes& fixed_iv, std::uint64_t explicit_part, std::uint8_t nonce[12]) {
  std::memcpy(nonce, fixed_iv.data(), 4);
  store_be64(nonce + 4, explicit_part);
}

void make_aad(std::uint64_t seq, ContentType type, std::size_t plaintext_len,
              std::uint8_t aad[13]) {
  store_be64(aad, seq);
  aad[8] = static_cast<std::uint8_t>(type);
  aad[9] = static_cast<std::uint8_t>(kVersionTls12 >> 8);
  aad[10] = static_cast<std::uint8_t>(kVersionTls12);
  aad[11] = static_cast<std::uint8_t>(plaintext_len >> 8);
  aad[12] = static_cast<std::uint8_t>(plaintext_len);
}

/// Appends the header and explicit nonce of a protected record whose body
/// (explicit nonce, ciphertext, tag) is `body_len` bytes; the caller appends
/// ciphertext || tag.
void append_record_prefix(Bytes& out, ContentType type, std::size_t body_len,
                          std::uint64_t explicit_nonce) {
  const std::size_t base = out.size();
  out.resize(base + kRecordHeaderSize + kExplicitNonceSize);
  std::uint8_t* p = out.data() + base;
  p[0] = static_cast<std::uint8_t>(type);
  p[1] = static_cast<std::uint8_t>(kVersionTls12 >> 8);
  p[2] = static_cast<std::uint8_t>(kVersionTls12);
  p[3] = static_cast<std::uint8_t>(body_len >> 8);
  p[4] = static_cast<std::uint8_t>(body_len);
  store_be64(p + kRecordHeaderSize, explicit_nonce);
}
}  // namespace

void HopChannel::trace_record(std::string_view name, ContentType type, std::size_t len,
                              std::uint64_t seq) const {
  trace_.instant("tls", name,
                 {{"type", static_cast<int>(type)},
                  {"len", static_cast<std::uint64_t>(len)},
                  {"seq", seq}});
}

void HopChannel::trace_auth_fail(ContentType type) const {
  if (trace_.on())
    trace_.instant("tls", "record.auth_fail", {{"type", static_cast<int>(type)}, {"seq", seq_}});
}

void HopChannel::seal_into(ContentType type, ByteView plaintext, Bytes& out) {
  if (plaintext.size() > kMaxRecordPayload)
    throw ProtocolError(AlertDescription::kRecordOverflow, "record payload too large");
  const std::size_t sealed_len = plaintext.size() + crypto::AesGcm::kTagSize;
  // RFC 5288 lets the sender choose the explicit nonce; like most stacks we
  // use the sequence number.
  append_record_prefix(out, type, kExplicitNonceSize + sealed_len, seq_);
  const std::size_t sealed_at = out.size();
  out.resize(sealed_at + sealed_len);
  std::uint8_t nonce[12];
  std::uint8_t aad[13];
  make_nonce(fixed_iv_, seq_, nonce);
  make_aad(seq_, type, plaintext.size(), aad);
  aead_.seal_into(ByteView(nonce, 12), ByteView(aad, 13), plaintext,
                  MutableByteView(out.data() + sealed_at, sealed_len));
  if (trace_.on()) trace_record("record.seal", type, plaintext.size(), seq_);
  ++seq_;
}

Bytes HopChannel::seal(ContentType type, ByteView plaintext) {
  Bytes out;
  seal_into(type, plaintext, out);
  return out;
}

bool HopChannel::open_span(ContentType type, ByteView body, MutableByteView plaintext) {
  std::uint8_t nonce[12];
  std::uint8_t aad[13];
  make_nonce(fixed_iv_, load_be64(body.data()), nonce);
  make_aad(seq_, type, plaintext.size(), aad);
  if (!aead_.open_into(ByteView(nonce, 12), ByteView(aad, 13), body.subspan(kExplicitNonceSize),
                       plaintext)) {
    trace_auth_fail(type);
    return false;
  }
  if (trace_.on()) trace_record("record.open", type, plaintext.size(), seq_);
  ++seq_;
  return true;
}

bool HopChannel::open_into(ContentType type, ByteView body, Bytes& out) {
  if (body.size() < kProtectionOverhead) return false;
  const std::size_t base = out.size();
  out.resize(base + body.size() - kProtectionOverhead);
  if (open_span(type, body, MutableByteView(out).subspan(base))) return true;
  out.resize(base);  // the AEAD wrote nothing past `base`
  return false;
}

std::optional<MutableByteView> HopChannel::open_in_place(ContentType type, MutableByteView body) {
  if (body.size() < kProtectionOverhead) return std::nullopt;
  const MutableByteView plaintext =
      body.subspan(kExplicitNonceSize, body.size() - kProtectionOverhead);
  if (!open_span(type, body, plaintext)) return std::nullopt;
  return plaintext;
}

bool HopChannel::reprotect_untraced(HopChannel& to, ContentType type, ByteView body, Bytes& out) {
  if (body.size() < kProtectionOverhead) return false;
  const std::size_t pt_len = body.size() - kProtectionOverhead;
  std::uint8_t nonce[12];
  std::uint8_t aad[13];
  std::uint8_t to_nonce[12];
  std::uint8_t to_aad[13];
  make_nonce(fixed_iv_, load_be64(body.data()), nonce);
  make_aad(seq_, type, pt_len, aad);
  make_nonce(to.fixed_iv_, to.seq_, to_nonce);
  make_aad(to.seq_, type, pt_len, to_aad);
  const std::size_t base = out.size();
  // The outbound body is as long as the inbound one.
  append_record_prefix(out, type, body.size(), to.seq_);
  if (!aead_.reprotect_into(ByteView(nonce, 12), ByteView(aad, 13),
                            body.subspan(kExplicitNonceSize), to.aead_, ByteView(to_nonce, 12),
                            ByteView(to_aad, 13), out)) {
    out.resize(base);
    trace_auth_fail(type);
    return false;
  }
  if (pt_len > kMaxRecordPayload) {
    // Authentic but longer than TLS allows: seal_into would refuse it too.
    secure_wipe(MutableByteView(out).subspan(base));
    out.resize(base);
    throw ProtocolError(AlertDescription::kRecordOverflow, "record payload too large");
  }
  ++seq_;
  ++to.seq_;
  return true;
}

namespace {
/// Size of the complete wire record at the front of `data` (header
/// included), or nullopt when `data` holds only part of one. Throws
/// ProtocolError(kRecordOverflow) on a header declaring an oversized record.
std::optional<std::size_t> complete_record_size(ByteView data) {
  if (data.size() < kRecordHeaderSize) return std::nullopt;
  const std::size_t len = get_u16(data, 3);
  if (len > kMaxRecordPayload + 256)
    throw ProtocolError(AlertDescription::kRecordOverflow, "oversized record");
  if (data.size() < kRecordHeaderSize + len) return std::nullopt;
  return kRecordHeaderSize + len;
}
}  // namespace

void RecordReader::feed(ByteView data) {
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ >= kCompactThreshold) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  append(buffer_, data);
}

std::optional<RecordView> RecordReader::pop(ByteView& data) {
  // The last read cut a record off: feed just the rest of it, its header
  // first, and view it from the buffer once whole.
  while (!buffer_empty()) {
    const ByteView held = ByteView(buffer_).subspan(pos_);
    const std::size_t want =
        kRecordHeaderSize + (held.size() < kRecordHeaderSize ? 0 : get_u16(held, 3));
    const std::size_t take = std::min(want > held.size() ? want - held.size() : 0, data.size());
    feed(data.first(take));
    data = data.subspan(take);
    if (auto rec = next_view()) return rec;
    if (data.empty()) return std::nullopt;
  }
  // Whole records are viewed where the read put them; a partial one left at
  // the end waits in the buffer.
  const auto size = complete_record_size(data);
  if (!size) {
    feed(data);
    data = {};
    return std::nullopt;
  }
  const RecordView rec{static_cast<ContentType>(data[0]), data.first(*size)};
  data = data.subspan(*size);
  return rec;
}

std::optional<RecordView> RecordReader::next_view() {
  const auto size = complete_record_size(ByteView(buffer_).subspan(pos_));
  if (!size) return std::nullopt;
  RecordView rec;
  rec.type = static_cast<ContentType>(buffer_[pos_]);
  rec.raw = ByteView(buffer_).subspan(pos_, *size);
  pos_ += *size;
  return rec;
}

std::optional<Record> RecordReader::next() {
  const auto view = next_view();
  if (!view) return std::nullopt;
  return Record{view->type, to_bytes(view->body())};
}

std::optional<Bytes> RecordReader::take_raw() {
  const auto view = next_view();
  if (!view) return std::nullopt;
  return to_bytes(view->raw);
}

Bytes RecordReader::take_unconsumed() {
  Bytes rest(buffer_.begin() + static_cast<std::ptrdiff_t>(pos_), buffer_.end());
  buffer_ = Bytes();
  pos_ = 0;
  return rest;
}

}  // namespace mbtls::tls
