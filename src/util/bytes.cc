#include "util/bytes.h"

#include <bit>
#include <cstring>

namespace wira {

void ByteWriter::u16be(uint16_t v) {
  u8(static_cast<uint8_t>(v >> 8));
  u8(static_cast<uint8_t>(v));
}

void ByteWriter::u24be(uint32_t v) {
  u8(static_cast<uint8_t>(v >> 16));
  u8(static_cast<uint8_t>(v >> 8));
  u8(static_cast<uint8_t>(v));
}

void ByteWriter::u32be(uint32_t v) {
  u16be(static_cast<uint16_t>(v >> 16));
  u16be(static_cast<uint16_t>(v));
}

void ByteWriter::u64be(uint64_t v) {
  u32be(static_cast<uint32_t>(v >> 32));
  u32be(static_cast<uint32_t>(v));
}

void ByteWriter::u16le(uint16_t v) {
  u8(static_cast<uint8_t>(v));
  u8(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::u32le(uint32_t v) {
  u16le(static_cast<uint16_t>(v));
  u16le(static_cast<uint16_t>(v >> 16));
}

void ByteWriter::u64le(uint64_t v) {
  u32le(static_cast<uint32_t>(v));
  u32le(static_cast<uint32_t>(v >> 32));
}

void ByteWriter::f64be(double v) { u64be(std::bit_cast<uint64_t>(v)); }

void ByteWriter::varint(uint64_t v) {
  // One varint encoder: the packet writer's cursor.
  uint8_t tmp[8];
  ByteCursor c(tmp);
  c.varint(v);
  bytes(tmp, static_cast<size_t>(c.pos() - tmp));
}

void ByteWriter::bytes(std::span<const uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::bytes(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

uint32_t ByteReader::u24be() {
  if (!require(3)) return 0;
  uint32_t v = static_cast<uint32_t>(data_[pos_]) << 16 |
               static_cast<uint32_t>(data_[pos_ + 1]) << 8 |
               static_cast<uint32_t>(data_[pos_ + 2]);
  pos_ += 3;
  return v;
}

uint16_t ByteReader::u16le() {
  if (!require(2)) return 0;
  uint16_t v = static_cast<uint16_t>(data_[pos_] | data_[pos_ + 1] << 8);
  pos_ += 2;
  return v;
}

uint32_t ByteReader::u32le() {
  if (!require(4)) return 0;
  uint32_t lo = u16le();
  uint32_t hi = u16le();
  return hi << 16 | lo;
}

uint64_t ByteReader::u64le() {
  if (!require(8)) return 0;
  uint64_t lo = u32le();
  uint64_t hi = u32le();
  return hi << 32 | lo;
}

double ByteReader::f64be() { return std::bit_cast<double>(u64be()); }

std::string ByteReader::str(size_t len) {
  auto s = bytes(len);
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

bool ByteReader::skip(size_t len) {
  if (!require(len)) return false;
  pos_ += len;
  return true;
}

std::string to_hex(std::span<const uint8_t> data) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

namespace {
int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::vector<uint8_t> from_hex(std::string_view hex) {
  std::vector<uint8_t> out;
  out.reserve(hex.size() / 2);
  int hi = -1;
  for (char c : hex) {
    int n = hex_nibble(c);
    if (n < 0) continue;  // permit spaces/colons in test vectors
    if (hi < 0) {
      hi = n;
    } else {
      out.push_back(static_cast<uint8_t>(hi << 4 | n));
      hi = -1;
    }
  }
  return out;
}

}  // namespace wira
