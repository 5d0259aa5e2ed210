// Byte-order aware serialization buffers used by the QUIC wire format,
// the FLV container and the transport-cookie codec.
//
// ByteWriter owns a growable buffer; ByteReader is a non-owning cursor over
// an existing span.  Readers are fail-soft: every accessor reports success
// and a reader that has failed once stays failed (monotone error latch), so
// callers can batch reads and check `ok()` once — the idiom malformed-packet
// handling relies on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wira {

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }
  /// Adopts an existing buffer, clearing it but keeping its capacity —
  /// pairs with take() for allocation-free round trips through a pool.
  explicit ByteWriter(std::vector<uint8_t>&& adopt) : buf_(std::move(adopt)) {
    buf_.clear();
  }

  void u8(uint8_t v) { buf_.push_back(v); }
  void u16be(uint16_t v);
  void u24be(uint32_t v);  ///< low 24 bits, big-endian (FLV tag sizes)
  void u32be(uint32_t v);
  void u64be(uint64_t v);
  void u16le(uint16_t v);
  void u32le(uint32_t v);
  void u64le(uint64_t v);
  void f64be(double v);  ///< IEEE754 big-endian (AMF0 numbers)

  /// QUIC-style variable-length integer (RFC 9000 §16), max 62 bits.
  void varint(uint64_t v);

  void bytes(std::span<const uint8_t> data);
  void bytes(const void* data, size_t len);
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  /// Grows capacity to at least `n` total bytes (content unchanged).
  void reserve(size_t n) { buf_.reserve(n); }
  /// Appends `n` zero bytes.
  void zeros(size_t n) { buf_.insert(buf_.end(), n, 0); }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }
  std::span<const uint8_t> span() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}
  ByteReader(const void* data, size_t len)
      : data_(static_cast<const uint8_t*>(data), len) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool empty() const { return remaining() == 0; }

  uint8_t u8();
  uint16_t u16be();
  uint32_t u24be();
  uint32_t u32be();
  uint64_t u64be();
  uint16_t u16le();
  uint32_t u32le();
  uint64_t u64le();
  double f64be();
  uint64_t varint();

  /// Reads exactly `len` bytes; returns an empty span (and latches the
  /// error) if fewer remain.
  std::span<const uint8_t> bytes(size_t len);
  std::string str(size_t len);
  bool skip(size_t len);

  /// Peeks the next byte without consuming it; 0 with error latch if empty.
  uint8_t peek_u8();

 private:
  bool require(size_t n);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Hex helpers for logging/tests.
std::string to_hex(std::span<const uint8_t> data);
std::vector<uint8_t> from_hex(std::string_view hex);

}  // namespace wira
