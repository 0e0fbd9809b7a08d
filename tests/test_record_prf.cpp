// TLS record layer (framing, AEAD hop channels) and the TLS 1.2 PRF.
#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "tls/prf.h"
#include "tls/record.h"
#include "util/hex.h"
#include "util/trace.h"

namespace mbtls::tls {
namespace {

// Widely-used community test vector for the TLS 1.2 PRF with SHA-256
// (appears in NSS/mbedTLS/wolfSSL test suites).
TEST(Prf, Tls12Sha256KnownAnswer) {
  const Bytes secret = hex_decode("9bbe436ba940f017b17652849a71db35");
  const Bytes seed = hex_decode("a0ba9f936cda311827a6f796ffd5198c");
  const Bytes out = prf(crypto::HashAlgo::kSha256, secret, "test label", seed, 100);
  EXPECT_EQ(hex_encode(out),
            "e3f229ba727be17b8d122620557cd453c2aab21d07c3d495329b52d4e61edb5a"
            "6b301791e90d35c9c9a46b4e14baf9af0fa022f7077def17abfd3797c0564bab"
            "4fbc91666e9def9b97fce34f796789baa48082d122ee42c5a72e5a5110fff701"
            "87347b66");
}

TEST(Prf, OutputLengthExact) {
  const Bytes secret(48, 1);
  for (std::size_t len : {1u, 12u, 31u, 32u, 33u, 48u, 104u}) {
    EXPECT_EQ(prf(crypto::HashAlgo::kSha384, secret, "l", {}, len).size(), len);
  }
}

TEST(Prf, MasterSecretDerivationShape) {
  crypto::Drbg rng("prf-test", 0);
  const Bytes pre_master = rng.bytes(32);
  const Bytes cr = rng.bytes(32), sr = rng.bytes(32);
  const Bytes ms = derive_master_secret(crypto::HashAlgo::kSha384, pre_master, cr, sr);
  EXPECT_EQ(ms.size(), 48u);
  // Different randoms give a different master.
  EXPECT_NE(ms, derive_master_secret(crypto::HashAlgo::kSha384, pre_master, sr, cr));
}

TEST(Prf, KeyBlockPartition) {
  crypto::Drbg rng("kb", 0);
  const Bytes master = rng.bytes(48);
  const Bytes cr = rng.bytes(32), sr = rng.bytes(32);
  const KeyBlock kb = derive_key_block(crypto::HashAlgo::kSha384, master, cr, sr, 32);
  EXPECT_EQ(kb.client_write.key.size(), 32u);
  EXPECT_EQ(kb.server_write.key.size(), 32u);
  EXPECT_EQ(kb.client_write.fixed_iv.size(), 4u);
  EXPECT_NE(kb.client_write.key, kb.server_write.key);
}

TEST(Prf, FinishedVerifyDataDirectional) {
  crypto::Drbg rng("fin", 0);
  const Bytes master = rng.bytes(48);
  const Bytes th = rng.bytes(48);
  const Bytes c = finished_verify_data(crypto::HashAlgo::kSha384, master, true, th);
  const Bytes s = finished_verify_data(crypto::HashAlgo::kSha384, master, false, th);
  EXPECT_EQ(c.size(), 12u);
  EXPECT_NE(c, s);
}

// --------------------------------------------------------------- records

TEST(RecordLayer, PlaintextFraming) {
  const Bytes payload = to_bytes(std::string_view("payload"));
  const Bytes rec = frame_plaintext_record(ContentType::kHandshake, payload);
  EXPECT_EQ(rec[0], 22);
  EXPECT_EQ(get_u16(rec, 1), kVersionTls12);
  EXPECT_EQ(get_u16(rec, 3), payload.size());
  EXPECT_THROW(frame_plaintext_record(ContentType::kHandshake, Bytes(kMaxRecordPayload + 1, 0)),
               ProtocolError);
}

TEST(RecordLayer, HopChannelRoundTripAndSequencing) {
  crypto::Drbg rng("hop", 0);
  const DirectionKeys keys{rng.bytes(32), rng.bytes(4)};
  HopChannel sender(keys, 0);
  HopChannel receiver(keys, 0);
  Bytes opened;  // open_into appends each record's plaintext
  Bytes sent;
  for (int i = 0; i < 5; ++i) {
    const Bytes msg = rng.bytes(100);
    append(sent, msg);
    const Bytes rec = sender.seal(ContentType::kApplicationData, msg);
    ASSERT_TRUE(receiver.open_into(ContentType::kApplicationData,
                                   ByteView(rec).subspan(kRecordHeaderSize), opened))
        << "record " << i;
    EXPECT_EQ(opened, sent);
  }
  EXPECT_EQ(sender.sequence(), 5u);
  EXPECT_EQ(receiver.sequence(), 5u);
}

TEST(RecordLayer, ReprotectCommitsOnlyAuthenticRecords) {
  // A middlebox hop: records sealed on the A key are re-sealed on the B
  // key. A tampered one leaves `out`, both sequence numbers and the hook
  // untouched; a genuine one then forwards as if nothing had happened, with
  // the trace reading open, hook, seal.
  crypto::Drbg rng("hop-reprotect", 0);
  const DirectionKeys a{rng.bytes(32), rng.bytes(4)};
  const DirectionKeys b{rng.bytes(16), rng.bytes(4)};
  HopChannel sender(a, 0), in(a, 0), onward(b, 7), receiver(b, 7);
  trace::Recorder rec;
  in.set_trace(trace::Emitter(&rec, "in"));
  onward.set_trace(trace::Emitter(&rec, "onward"));
  std::vector<std::size_t> hooked;
  const auto hook = [&](std::size_t len) {
    hooked.push_back(len);
    trace::Emitter(&rec, "hook").instant("test", "opened");
  };

  const Bytes msg = rng.bytes(300);
  const Bytes wire = sender.seal(ContentType::kApplicationData, msg);
  Bytes tampered = wire;
  tampered.back() ^= 0x80;  // the tag's last bit
  const Bytes before = rng.bytes(11);
  Bytes out = before;
  EXPECT_FALSE(in.reprotect_into(onward, ContentType::kApplicationData,
                                 ByteView(tampered).subspan(kRecordHeaderSize), out, hook));
  EXPECT_EQ(out, before);
  EXPECT_EQ(in.sequence(), 0u);
  EXPECT_EQ(onward.sequence(), 7u);
  EXPECT_TRUE(hooked.empty());
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].name, "record.auth_fail");

  ASSERT_TRUE(in.reprotect_into(onward, ContentType::kApplicationData,
                                ByteView(wire).subspan(kRecordHeaderSize), out, hook));
  EXPECT_EQ(in.sequence(), 1u);
  EXPECT_EQ(onward.sequence(), 8u);
  EXPECT_EQ(hooked, std::vector<std::size_t>{msg.size()});
  ASSERT_EQ(out.size(), before.size() + wire.size());
  EXPECT_TRUE(std::equal(before.begin(), before.end(), out.begin()));
  const ByteView forwarded = ByteView(out).subspan(before.size());
  EXPECT_TRUE(std::equal(wire.begin(), wire.begin() + kRecordHeaderSize, forwarded.begin()));
  Bytes opened;
  ASSERT_TRUE(
      receiver.open_into(ContentType::kApplicationData, forwarded.subspan(kRecordHeaderSize), opened));
  EXPECT_EQ(opened, msg);
  ASSERT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.events()[1].name, "record.open");
  EXPECT_EQ(rec.events()[2].name, "opened");
  EXPECT_EQ(rec.events()[3].name, "record.seal");
}

TEST(RecordLayer, SequenceMismatchFailsAuth) {
  crypto::Drbg rng("hop-seq", 0);
  const DirectionKeys keys{rng.bytes(32), rng.bytes(4)};
  HopChannel sender(keys, 0);
  HopChannel receiver(keys, 3);  // receiver expects sequence 3
  const Bytes rec = sender.seal(ContentType::kApplicationData, Bytes(10, 1));
  const Bytes before = rng.bytes(7);
  Bytes out = before;
  EXPECT_FALSE(receiver.open_into(ContentType::kApplicationData,
                                  ByteView(rec).subspan(kRecordHeaderSize), out));
  EXPECT_EQ(out, before);  // a failed open leaves `out` as it was
  EXPECT_EQ(receiver.sequence(), 3u);
}

TEST(RecordLayer, WrongContentTypeFailsAuth) {
  crypto::Drbg rng("hop-type", 0);
  const DirectionKeys keys{rng.bytes(16), rng.bytes(4)};
  HopChannel sender(keys, 0);
  HopChannel receiver(keys, 0);
  const Bytes rec = sender.seal(ContentType::kApplicationData, Bytes(10, 1));
  // Opening as a different content type must fail (type is in the AAD).
  Bytes out;
  EXPECT_FALSE(receiver.open_into(ContentType::kAlert, ByteView(rec).subspan(kRecordHeaderSize), out));
  EXPECT_TRUE(out.empty());
}

TEST(RecordLayer, ReaderHandlesFragmentedInput) {
  const Bytes rec1 = frame_plaintext_record(ContentType::kHandshake, Bytes(100, 1));
  const Bytes rec2 = frame_plaintext_record(ContentType::kAlert, Bytes{1, 0});
  Bytes stream = concat({rec1, rec2});
  RecordReader reader;
  int count = 0;
  // Feed one byte at a time.
  for (const auto b : stream) {
    reader.feed(ByteView(&b, 1));
    while (auto rec = reader.next()) ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(RecordLayer, ReaderRejectsOversizedClaim) {
  Bytes bogus = {22, 3, 3, 0xff, 0xff};  // claims 65535-byte record
  RecordReader reader;
  reader.feed(bogus);
  EXPECT_THROW(reader.next(), ProtocolError);
}

TEST(RecordLayer, TakeRawPreservesBytes) {
  const Bytes rec = frame_plaintext_record(ContentType::kApplicationData, Bytes(37, 9));
  RecordReader reader;
  reader.feed(rec);
  const auto raw = reader.take_raw();
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(*raw, rec);
}

TEST(RecordLayer, ViewsOfOneFeedStayValidUntilTheNextFeed) {
  // Five full-size records and the start of a sixth arrive in one feed.
  // Popping them crosses the 64 KiB compaction threshold mid-batch, so a
  // reader that moved its buffer while records were popped would shift
  // bytes under the views already handed out.
  crypto::Drbg rng("record-views", 0);
  std::vector<Bytes> records;
  Bytes stream;
  for (int i = 0; i < 5; ++i) {
    records.push_back(
        frame_plaintext_record(ContentType::kApplicationData, rng.bytes(kMaxRecordPayload)));
    append(stream, records.back());
  }
  const Bytes sixth = frame_plaintext_record(ContentType::kAlert, rng.bytes(100));
  append(stream, ByteView(sixth).first(50));

  RecordReader reader;
  reader.feed(stream);
  std::vector<RecordView> views;
  while (const auto view = reader.next_view()) views.push_back(*view);
  ASSERT_EQ(views.size(), records.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].type, ContentType::kApplicationData) << "record " << i;
    EXPECT_TRUE(equal(views[i].raw, records[i])) << "record " << i;
    EXPECT_TRUE(equal(views[i].body(), ByteView(records[i]).subspan(kRecordHeaderSize)))
        << "record " << i;
  }
  EXPECT_FALSE(reader.buffer_empty());

  // The next feed completes the partial record.
  reader.feed(ByteView(sixth).subspan(50));
  const auto last = reader.next_view();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->type, ContentType::kAlert);
  EXPECT_TRUE(equal(last->raw, sixth));
  EXPECT_FALSE(reader.next_view().has_value());
  EXPECT_TRUE(reader.buffer_empty());
}

TEST(RecordLayer, HopChannelRequires4ByteIv) {
  crypto::Drbg rng("hop-iv", 0);
  EXPECT_THROW(HopChannel(DirectionKeys{rng.bytes(32), rng.bytes(12)}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mbtls::tls
