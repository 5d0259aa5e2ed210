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

TEST_P(VarintRoundTrip, CursorWritesWhatWriterWrites) {
  ByteWriter w;
  w.varint(GetParam());
  std::vector<uint8_t> out(varint_size(GetParam()));
  ByteCursor c(out.data());
  c.varint(GetParam());
  EXPECT_EQ(c.pos(), out.data() + out.size());
  EXPECT_EQ(out, w.data());
}

TEST(VarintSizes, MatchRfc9000Classes) {
  auto size_of = [](uint64_t v) {
    ByteWriter w;
    w.varint(v);
    EXPECT_EQ(w.size(), varint_size(v));
    return w.size();
  };
  EXPECT_EQ(size_of(63), 1u);
  EXPECT_EQ(size_of(64), 2u);
  EXPECT_EQ(size_of(16383), 2u);
  EXPECT_EQ(size_of(16384), 4u);
  EXPECT_EQ(size_of(1073741823), 4u);
  EXPECT_EQ(size_of(1073741824), 8u);
}

// The unchecked cursor writes exactly the bytes the growable writer
// appends, into exactly the space the caller sized.
TEST(ByteCursor, MatchesByteWriterLayout) {
  const std::vector<uint8_t> blob{9, 8, 7};
  ByteWriter w;
  w.u8(0xAB);
  w.u16be(0xBEEF);
  w.u32be(0xDEADBEEF);
  w.u64be(0x0123456789ABCDEFull);
  w.bytes(blob);
  w.str("hi");
  w.zeros(3);
  w.bytes(std::span<const uint8_t>());

  std::vector<uint8_t> via_cursor(w.size());
  ByteCursor c(via_cursor.data());
  c.u8(0xAB);
  c.u16be(0xBEEF);
  c.u32be(0xDEADBEEF);
  c.u64be(0x0123456789ABCDEFull);
  c.bytes(blob);
  c.str("hi");
  c.zeros(3);
  c.bytes(std::span<const uint8_t>());
  EXPECT_EQ(c.pos(), via_cursor.data() + via_cursor.size());
  EXPECT_EQ(via_cursor, w.data());
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

// Every fixed-width read is one bounds check and one load: a read that
// does not fit latches the error without consuming anything.
TEST(ByteReader, ShortReadsLatchAtEveryWidth) {
  const uint8_t buf[] = {0x40, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  for (size_t n = 0; n < sizeof(buf); ++n) {
    ByteReader r(buf, n);
    EXPECT_EQ(r.u64be(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.position(), 0u);
  }
  ByteReader r16(buf, 1);
  EXPECT_EQ(r16.varint(), 0u);  // 2-byte class, 1 byte present
  EXPECT_FALSE(r16.ok());
  ByteReader whole(buf, 2);
  EXPECT_EQ(whole.varint(), 0x0001u);
  EXPECT_EQ(whole.peek_u8(), 0u);
  EXPECT_FALSE(whole.ok());
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
