// TLS 1.2 record protocol with AES-GCM AEAD protection (RFC 5288).
//
// The codec is exposed standalone (not buried in the Engine) because mbTLS
// middleboxes re-protect records hop by hop: they open a record with the
// inbound hop's keys and seal it with the outbound hop's keys, maintaining
// independent sequence numbers per hop. `HopChannel` models exactly one
// direction of one hop.
#pragma once

#include <deque>
#include <optional>

#include "crypto/gcm.h"
#include "tls/common.h"
#include "tls/prf.h"
#include "util/trace.h"

namespace mbtls::tls {

constexpr std::size_t kRecordHeaderSize = 5;
constexpr std::size_t kMaxRecordPayload = 1 << 14;
constexpr std::size_t kExplicitNonceSize = 8;

struct Record {
  ContentType type = ContentType::kHandshake;
  Bytes payload;
};

/// Frame a plaintext record (no encryption).
Bytes frame_plaintext_record(ContentType type, ByteView payload);

/// One direction of one protected hop: sequence number + AEAD state.
class HopChannel {
 public:
  HopChannel(const DirectionKeys& keys, std::uint64_t initial_seq = 0);

  /// Seal a record: returns the full wire record (header + explicit nonce +
  /// ciphertext + tag). Increments the sequence number.
  Bytes seal(ContentType type, ByteView plaintext);

  /// Open a protected record body (everything after the 5-byte header).
  /// Returns nullopt on authentication failure. Increments the sequence
  /// number on success.
  std::optional<Bytes> open(ContentType type, ByteView body);

  /// Allocation-free seal: appends the full wire record to `out`, sealing
  /// directly into the grown tail (the nonce and AAD live on the stack).
  /// `plaintext` must not alias `out`. An accumulating output buffer reuses
  /// its capacity across records, so the steady-state data plane never
  /// allocates per record.
  void seal_into(ContentType type, ByteView plaintext, Bytes& out);

  /// Allocation-free open: decrypts the record body in place and returns a
  /// view of the plaintext (a sub-span of `body`), or nullopt on
  /// authentication failure (body unmodified). Increments the sequence
  /// number on success.
  std::optional<MutableByteView> open_in_place(ContentType type, MutableByteView body);

  /// Middlebox forwarding in one call: verifies `body` (a protected record
  /// body, read-only and outside `out`) on this channel and appends it to
  /// `out` as a whole wire record sealed on `to` (crypto::AesGcm::
  /// reprotect_into: one pass that writes no plaintext on the VAES width).
  /// On authentication failure it returns false with both sequence numbers
  /// and `out` as they were. On success both sequence numbers advance and
  /// the trace shows "record.open" on this channel, then "record.seal" on
  /// `to`, as open_in_place() then seal_into() would; `opened(plaintext_len)`
  /// runs between the two, where such a caller accounts for the record.
  template <typename Opened>
  bool reprotect_into(HopChannel& to, ContentType type, ByteView body, Bytes& out,
                      Opened&& opened) {
    if (!reprotect_untraced(to, type, body, out)) return false;
    const std::size_t len = body.size() - kExplicitNonceSize - crypto::AesGcm::kTagSize;
    if (trace_.on()) trace_record("record.open", type, len, seq_ - 1);
    opened(len);
    if (to.trace_.on()) to.trace_record("record.seal", type, len, to.seq_ - 1);
    return true;
  }

  std::uint64_t sequence() const { return seq_; }

  /// Attach a trace emitter; every sealed/opened record then produces a
  /// "tls record.seal"/"record.open" event. Detached (the default) the data
  /// plane pays exactly one predicted branch per record.
  void set_trace(trace::Emitter em) { trace_ = std::move(em); }

 private:
  bool reprotect_untraced(HopChannel& to, ContentType type, ByteView body, Bytes& out);
  void trace_record(std::string_view name, ContentType type, std::size_t len,
                    std::uint64_t seq) const;

  crypto::AesGcm aead_;
  Bytes fixed_iv_;
  std::uint64_t seq_;
  trace::Emitter trace_;
};

/// A complete record still lying in its RecordReader's buffer: `raw` is the
/// whole wire record (header included). The bytes are mutable, so a data
/// plane can decrypt the body where it lies (HopChannel::open_in_place).
/// Valid until that reader's next feed() or take_unconsumed().
struct RecordView {
  ContentType type = ContentType::kHandshake;
  MutableByteView raw;
  MutableByteView body() const { return raw.subspan(kRecordHeaderSize); }
};

/// Size of the complete wire record at the front of `data` (header
/// included), or nullopt when `data` holds only part of one. Throws
/// ProtocolError(kRecordOverflow) on a header declaring an oversized record.
std::optional<std::size_t> complete_record_size(ByteView data);

/// Incremental record parser: feed raw transport bytes, pop complete records
/// (still encrypted if the connection is protected). Used by the engine and
/// by middleboxes that forward records without joining a session.
class RecordReader {
 public:
  /// Append transport bytes. Ends every view handed out since the last
  /// feed(): this is the only call that moves or reuses buffered bytes.
  void feed(ByteView data);

  /// Pop the next complete record as a view into the reader's buffer (see
  /// RecordView), or nullopt when none is complete. One read carrying many
  /// records yields them all without a copy. Throws
  /// ProtocolError(kDecodeError / kRecordOverflow) on malformed framing.
  std::optional<RecordView> next_view();

  /// Copying variants of next_view(): {type, body-bytes-after-header}, or
  /// the raw record bytes (header included). For control-plane callers that
  /// keep records past the next feed().
  std::optional<Record> next();
  std::optional<Bytes> take_raw();

  /// Everything fed but not yet taken as a record — a partial record, or
  /// every byte from a malformed header on — leaving the reader empty with
  /// its buffer released. A middlebox that turns relay forwards these once.
  Bytes take_unconsumed();

  bool buffer_empty() const { return pos_ == buffer_.size(); }

  /// Bytes still missing from the partial record the reader holds: up to
  /// the end of its header while that is incomplete, else up to the end of
  /// the record. A caller that parses whole records straight from its own
  /// buffer feeds just this many, so only a record split across reads is
  /// ever copied in.
  std::size_t missing() const;

 private:
  // Consumed-offset cursor: `pos_` marks how far records have been popped.
  // Popping only advances it, so views of earlier records stay put. feed()
  // drops the consumed prefix: when the buffer fully drained (clear() keeps
  // the capacity) or once the prefix exceeds kCompactThreshold, which
  // amortizes the memmove and keeps a burst of small records O(n).
  static constexpr std::size_t kCompactThreshold = 64 * 1024;
  Bytes buffer_;
  std::size_t pos_ = 0;
};

}  // namespace mbtls::tls
