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
}  // namespace

void HopChannel::seal_into(ContentType type, ByteView plaintext, Bytes& out) {
  if (plaintext.size() > kMaxRecordPayload)
    throw ProtocolError(AlertDescription::kRecordOverflow, "record payload too large");
  const std::size_t sealed_len = plaintext.size() + crypto::AesGcm::kTagSize;
  const std::size_t body_len = kExplicitNonceSize + sealed_len;
  const std::size_t base = out.size();
  out.resize(base + kRecordHeaderSize + body_len);
  std::uint8_t* p = out.data() + base;
  p[0] = static_cast<std::uint8_t>(type);
  p[1] = static_cast<std::uint8_t>(kVersionTls12 >> 8);
  p[2] = static_cast<std::uint8_t>(kVersionTls12);
  p[3] = static_cast<std::uint8_t>(body_len >> 8);
  p[4] = static_cast<std::uint8_t>(body_len);
  // RFC 5288 lets the sender choose the explicit nonce; like most stacks we
  // use the sequence number.
  store_be64(p + kRecordHeaderSize, seq_);
  std::uint8_t nonce[12];
  std::uint8_t aad[13];
  make_nonce(fixed_iv_, seq_, nonce);
  make_aad(seq_, type, plaintext.size(), aad);
  aead_.seal_into(ByteView(nonce, 12), ByteView(aad, 13), plaintext,
                  MutableByteView(p + kRecordHeaderSize + kExplicitNonceSize, sealed_len));
  if (trace_.on()) {
    trace_.instant("tls", "record.seal",
                   {{"type", static_cast<int>(type)},
                    {"len", static_cast<std::uint64_t>(plaintext.size())},
                    {"seq", seq_}});
  }
  ++seq_;
}

Bytes HopChannel::seal(ContentType type, ByteView plaintext) {
  Bytes out;
  seal_into(type, plaintext, out);
  return out;
}

std::optional<MutableByteView> HopChannel::open_in_place(ContentType type, MutableByteView body) {
  if (body.size() < kExplicitNonceSize + crypto::AesGcm::kTagSize) return std::nullopt;
  const std::size_t pt_len = body.size() - kExplicitNonceSize - crypto::AesGcm::kTagSize;
  std::uint8_t nonce[12];
  std::uint8_t aad[13];
  make_nonce(fixed_iv_, load_be64(body.data()), nonce);
  make_aad(seq_, type, pt_len, aad);
  MutableByteView plaintext = body.subspan(kExplicitNonceSize, pt_len);
  if (!aead_.open_into(ByteView(nonce, 12), ByteView(aad, 13), body.subspan(kExplicitNonceSize),
                       plaintext)) {
    if (trace_.on()) {
      trace_.instant("tls", "record.auth_fail",
                     {{"type", static_cast<int>(type)}, {"seq", seq_}});
    }
    return std::nullopt;
  }
  if (trace_.on()) {
    trace_.instant("tls", "record.open",
                   {{"type", static_cast<int>(type)},
                    {"len", static_cast<std::uint64_t>(pt_len)},
                    {"seq", seq_}});
  }
  ++seq_;
  return plaintext;
}

std::optional<Bytes> HopChannel::open(ContentType type, ByteView body) {
  Bytes scratch = to_bytes(body);
  const auto plaintext = open_in_place(type, scratch);
  if (!plaintext) return std::nullopt;
  return Bytes(plaintext->begin(), plaintext->end());
}

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

std::optional<std::size_t> RecordReader::complete_record_size() const {
  const std::size_t avail = buffer_.size() - pos_;
  if (avail < kRecordHeaderSize) return std::nullopt;
  const std::size_t len = get_u16(buffer_, pos_ + 3);
  if (len > kMaxRecordPayload + 256)
    throw ProtocolError(AlertDescription::kRecordOverflow, "oversized record");
  if (avail < kRecordHeaderSize + len) return std::nullopt;
  return kRecordHeaderSize + len;
}

std::optional<RecordView> RecordReader::next_view() {
  const auto size = complete_record_size();
  if (!size) return std::nullopt;
  RecordView rec;
  rec.type = static_cast<ContentType>(buffer_[pos_]);
  rec.raw = MutableByteView(buffer_.data() + pos_, *size);
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
