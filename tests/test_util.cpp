#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>

#include "util/bytes.h"
#include "util/ct.h"
#include "util/hex.h"
#include "util/reader.h"
#include "util/writer.h"

namespace mbtls {
namespace {

TEST(Hex, RoundTrip) {
  const Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(hex_encode(b), "0001abff");
  EXPECT_EQ(hex_decode("0001abff"), b);
  EXPECT_EQ(hex_decode("0001ABFF"), b);
}

TEST(Hex, RejectsBadInput) {
  EXPECT_THROW(hex_decode("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(hex_decode("zz"), std::invalid_argument);    // bad digit
}

TEST(Bytes, ConcatAndEqual) {
  const Bytes a = to_bytes(std::string_view("ab"));
  const Bytes b = to_bytes(std::string_view("cd"));
  EXPECT_EQ(to_string(concat({a, b})), "abcd");
  EXPECT_TRUE(equal(a, a));
  EXPECT_FALSE(equal(a, b));
}

TEST(Bytes, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, ByteView(a).first(2)));
}

TEST(Bytes, XorInto) {
  Bytes a = {0xff, 0x0f};
  const Bytes b = {0x0f, 0x0f};
  xor_into(a, b);
  EXPECT_EQ(a, (Bytes{0xf0, 0x00}));
  Bytes short_buf = {1};
  EXPECT_THROW(xor_into(short_buf, b), std::invalid_argument);
}

TEST(Bytes, SecureWipeZeroesExactlyItsRange) {
  Bytes buf(100, 0xa5);
  secure_wipe(buf);
  EXPECT_EQ(buf, Bytes(100, 0));

  Bytes partial(32, 0x5a);
  secure_wipe(MutableByteView(partial).subspan(8, 16));
  for (std::size_t i = 0; i < partial.size(); ++i)
    EXPECT_EQ(partial[i], i >= 8 && i < 24 ? 0 : 0x5a) << "byte " << i;

  secure_wipe(MutableByteView{});  // an empty view is a no-op
}

TEST(Bytes, SecureWipeObjectZeroesKeySizedObjects) {
  // An AES-256 round-key schedule: 15 round keys of 16 bytes.
  std::array<std::uint8_t, 240> round_keys;
  round_keys.fill(0xc3);
  secure_wipe_object(round_keys);
  EXPECT_TRUE(std::all_of(round_keys.begin(), round_keys.end(), [](auto b) { return b == 0; }));

  // The size and alignment of one __m512i register spilled to the stack.
  struct alignas(64) Register512 {
    std::uint8_t lanes[64];
  };
  Register512 reg;
  std::fill(std::begin(reg.lanes), std::end(reg.lanes), 0x7e);
  secure_wipe_object(reg);
  EXPECT_TRUE(std::all_of(std::begin(reg.lanes), std::end(reg.lanes),
                          [](auto b) { return b == 0; }));
}

TEST(Bytes, BigEndianIntegers) {
  Bytes out;
  put_u16(out, 0x0102);
  put_u24(out, 0x030405);
  put_u32(out, 0x06070809);
  put_u64(out, 0x0a0b0c0d0e0f1011ULL);
  EXPECT_EQ(get_u16(out, 0), 0x0102);
  EXPECT_EQ(get_u24(out, 2), 0x030405u);
  EXPECT_EQ(get_u32(out, 5), 0x06070809u);
  EXPECT_EQ(get_u64(out, 9), 0x0a0b0c0d0e0f1011ULL);
  EXPECT_THROW(get_u32(out, out.size() - 2), std::out_of_range);
}

TEST(Reader, SequentialDecoding) {
  const Bytes data = hex_decode("010202aabb03313233");
  Reader r(data);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(r.u16(), 0x0202);
  EXPECT_EQ(hex_encode(r.bytes(2)), "aabb");
  EXPECT_EQ(to_string(r.vec8()), "123");
  EXPECT_TRUE(r.empty());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Reader, ThrowsOnTruncation) {
  const Bytes data = {0x05, 0x01};  // vec8 claims 5 bytes, only 1 present
  Reader r(data);
  EXPECT_THROW(r.vec8(), DecodeError);
}

TEST(Reader, ExpectEndRejectsTrailing) {
  const Bytes data = {0x01, 0x02};
  Reader r(data);
  r.u8();
  EXPECT_THROW(r.expect_end(), DecodeError);
}

TEST(Writer, VectorsAndPrefixes) {
  Writer w;
  w.u8(7);
  {
    Writer::LengthPrefix p(w, 2);
    w.raw(to_bytes(std::string_view("abc")));
  }
  w.vec8(to_bytes(std::string_view("xy")));
  EXPECT_EQ(hex_encode(w.buffer()), "07" "0003" "616263" "02" "7879");
}

TEST(Writer, NestedLengthPrefixes) {
  Writer w;
  {
    Writer::LengthPrefix outer(w, 3);
    {
      Writer::LengthPrefix inner(w, 1);
      w.u16(0xbeef);
    }
  }
  EXPECT_EQ(hex_encode(w.buffer()), "000003" "02" "beef");
}

TEST(Reader, Vec24RoundTrip) {
  Writer w;
  w.vec24(to_bytes(std::string_view("payload")));
  Reader r(w.buffer());
  EXPECT_EQ(to_string(r.vec24()), "payload");
}

}  // namespace
}  // namespace mbtls
