// Unit tests for the serialization buffers (util/bytes).
#include "util/bytes.h"

#include <gtest/gtest.h>

namespace wira {
namespace {

TEST(ByteWriter, FixedWidthBigEndian) {
  ByteWriter w;
  w.u8(0x01);
  w.u16be(0x0203);
  w.u24be(0x040506);
  w.u32be(0x0708090A);
  EXPECT_EQ(to_hex(w.span()), "0102030405060708090a");
}

TEST(ByteWriter, FixedWidthLittleEndian) {
  ByteWriter w;
  w.u16le(0x0201);
  w.u32le(0x06050403);
  w.u64le(0x0E0D0C0B0A090807ull);
  EXPECT_EQ(to_hex(w.span()), "0102030405060708090a0b0c0d0e");
}

TEST(ByteRoundTrip, AllWidths) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16be(0xBEEF);
  w.u24be(0xC0FFEE);
  w.u32be(0xDEADBEEF);
  w.u64be(0x0123456789ABCDEFull);
  w.u16le(0xBEEF);
  w.u32le(0xDEADBEEF);
  w.u64le(0x0123456789ABCDEFull);
  w.f64be(3.14159);

  ByteReader r(w.span());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16be(), 0xBEEF);
  EXPECT_EQ(r.u24be(), 0xC0FFEEu);
  EXPECT_EQ(r.u32be(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64be(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.u16le(), 0xBEEF);
  EXPECT_EQ(r.u32le(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64le(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64be(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.empty());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  ByteWriter w;
  w.varint(GetParam());
  ByteReader r(w.span());
  EXPECT_EQ(r.varint(), GetParam());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 63ull, 64ull, 16383ull, 16384ull,
                      1073741823ull, 1073741824ull,
                      0x3FFFFFFFFFFFFFFFull));

TEST(VarintSizes, MatchRfc9000Classes) {
  auto size_of = [](uint64_t v) {
    ByteWriter w;
    w.varint(v);
    return w.size();
  };
  EXPECT_EQ(size_of(63), 1u);
  EXPECT_EQ(size_of(64), 2u);
  EXPECT_EQ(size_of(16383), 2u);
  EXPECT_EQ(size_of(16384), 4u);
  EXPECT_EQ(size_of(1073741823), 4u);
  EXPECT_EQ(size_of(1073741824), 8u);
}

TEST(ByteReader, ErrorLatchesOnTruncation) {
  const uint8_t buf[] = {0x01, 0x02};
  ByteReader r(buf, sizeof(buf));
  EXPECT_EQ(r.u32be(), 0u);
  EXPECT_FALSE(r.ok());
  // Once failed, stays failed even for reads that would fit.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, BytesAndSkip) {
  const uint8_t buf[] = {1, 2, 3, 4, 5};
  ByteReader r(buf, sizeof(buf));
  EXPECT_TRUE(r.skip(2));
  auto s = r.bytes(2);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 3);
  EXPECT_EQ(s[1], 4);
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_FALSE(r.skip(2));
}

TEST(Hex, RoundTripAndSeparators) {
  const std::vector<uint8_t> data = {0x00, 0xFF, 0x10, 0xAB};
  EXPECT_EQ(to_hex(data), "00ff10ab");
  EXPECT_EQ(from_hex("00ff10ab"), data);
  EXPECT_EQ(from_hex("00:ff 10:AB"), data);
}

}  // namespace
}  // namespace wira
