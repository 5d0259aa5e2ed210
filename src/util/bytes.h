// Byte-order aware serialization buffers used by the QUIC wire format,
// the FLV container and the transport-cookie codec.
//
// ByteWriter owns a growable buffer; ByteCursor writes, unchecked, into a
// span the caller has already sized exactly (the QUIC packet writer sizes
// each packet once, then writes it in one pass); ByteReader is a
// non-owning cursor over an existing span.  Readers are fail-soft: every
// accessor reports success and a reader that has failed once stays failed
// (monotone error latch), so callers can batch reads and check `ok()` once
// — the idiom malformed-packet handling relies on.  The cursor's and the
// reader's per-datagram primitives are inline single loads and stores.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wira {

namespace bytes_detail {

template <typename T>
T to_big_endian(T v) {
  if constexpr (std::endian::native == std::endian::big || sizeof(T) == 1) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

template <typename T>
void store_be(uint8_t* p, T v) {
  v = to_big_endian(v);
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
T load_be(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return to_big_endian(v);
}

}  // namespace bytes_detail

/// Encoded size of a QUIC variable-length integer (RFC 9000 §16).
inline size_t varint_size(uint64_t v) {
  if (v < (1ull << 6)) return 1;
  if (v < (1ull << 14)) return 2;
  if (v < (1ull << 30)) return 4;
  return 8;
}

/// Unchecked write cursor over caller-sized memory: no bounds or growth
/// checks per write.  The caller sizes the destination exactly up front
/// and checks `pos()` against its end once, after the last write.
class ByteCursor {
 public:
  explicit ByteCursor(uint8_t* out) : p_(out) {}

  void u8(uint8_t v) { *p_++ = v; }
  void u16be(uint16_t v) { put(v); }
  void u32be(uint32_t v) { put(v); }
  void u64be(uint64_t v) { put(v); }
  /// QUIC-style variable-length integer (RFC 9000 §16), max 62 bits.
  void varint(uint64_t v) {
    if (v < (1ull << 6)) {
      u8(static_cast<uint8_t>(v));
    } else if (v < (1ull << 14)) {
      u16be(static_cast<uint16_t>(v | 0x4000));
    } else if (v < (1ull << 30)) {
      u32be(static_cast<uint32_t>(v | 0x80000000u));
    } else {
      u64be(v | 0xC000000000000000ull);
    }
  }
  void bytes(std::span<const uint8_t> data) {
    if (!data.empty()) std::memcpy(p_, data.data(), data.size());
    p_ += data.size();
  }
  void str(std::string_view s) {
    bytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }
  void zeros(size_t n) {
    if (n != 0) std::memset(p_, 0, n);
    p_ += n;
  }

  /// One past the last byte written.
  uint8_t* pos() const { return p_; }

 private:
  template <typename T>
  void put(T v) {
    bytes_detail::store_be(p_, v);
    p_ += sizeof(T);
  }

  uint8_t* p_;
};

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
  /// Appends `n` bytes for the caller to fill (a ByteCursor over the
  /// returned pointer writes them); they read as zero until written.
  uint8_t* extend(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

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

  uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }
  uint16_t u16be() { return get<uint16_t>(); }
  uint32_t u24be();
  uint32_t u32be() { return get<uint32_t>(); }
  uint64_t u64be() { return get<uint64_t>(); }
  uint16_t u16le();
  uint32_t u32le();
  uint64_t u64le();
  double f64be();
  uint64_t varint() {
    if (!require(1)) return 0;
    switch (data_[pos_] >> 6) {
      case 0:
        return data_[pos_++];
      case 1:
        return u16be() & 0x3FFF;
      case 2:
        return u32be() & 0x3FFFFFFF;
      default:
        return u64be() & 0x3FFFFFFFFFFFFFFFull;
    }
  }

  /// Reads exactly `len` bytes; returns an empty span (and latches the
  /// error) if fewer remain.
  std::span<const uint8_t> bytes(size_t len) {
    if (!require(len)) return {};
    const auto s = data_.subspan(pos_, len);
    pos_ += len;
    return s;
  }
  std::string str(size_t len);
  bool skip(size_t len);

  /// Peeks the next byte without consuming it; 0 with error latch if empty.
  uint8_t peek_u8() { return require(1) ? data_[pos_] : 0; }

 private:
  bool require(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  /// One big-endian load of a fixed-width integer.
  template <typename T>
  T get() {
    if (!require(sizeof(T))) return 0;
    const T v = bytes_detail::load_be<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Hex helpers for logging/tests.
std::string to_hex(std::span<const uint8_t> data);
std::vector<uint8_t> from_hex(std::string_view hex);

}  // namespace wira
