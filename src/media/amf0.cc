#include "media/amf0.h"

namespace wira::media {

namespace {
// AMF0 type markers.
constexpr uint8_t kNumber = 0x00;
constexpr uint8_t kBoolean = 0x01;
constexpr uint8_t kString = 0x02;
constexpr uint8_t kEcmaArray = 0x08;
constexpr uint8_t kObjectEnd = 0x09;

void encode_value(ByteWriter& w, const Amf0Value& v) {
  if (const double* d = std::get_if<double>(&v)) {
    w.u8(kNumber);
    w.f64be(*d);
  } else if (const bool* b = std::get_if<bool>(&v)) {
    w.u8(kBoolean);
    w.u8(*b ? 1 : 0);
  } else {
    const auto& s = std::get<std::string>(v);
    w.u8(kString);
    w.u16be(static_cast<uint16_t>(s.size()));
    w.str(s);
  }
}

std::optional<Amf0Value> decode_value(ByteReader& r) {
  switch (r.u8()) {
    case kNumber:
      return Amf0Value{r.f64be()};
    case kBoolean:
      return Amf0Value{r.u8() != 0};
    case kString: {
      const uint16_t len = r.u16be();
      auto s = r.str(len);
      if (!r.ok()) return std::nullopt;
      return Amf0Value{std::move(s)};
    }
    default:
      return std::nullopt;
  }
}
}  // namespace

std::vector<uint8_t> amf0_encode_metadata(
    const std::string& name, const std::map<std::string, Amf0Value>& props) {
  ByteWriter w;
  w.u8(kString);
  w.u16be(static_cast<uint16_t>(name.size()));
  w.str(name);
  w.u8(kEcmaArray);
  w.u32be(static_cast<uint32_t>(props.size()));
  for (const auto& [key, value] : props) {
    w.u16be(static_cast<uint16_t>(key.size()));
    w.str(key);
    encode_value(w, value);
  }
  w.u16be(0);  // empty key terminates
  w.u8(kObjectEnd);
  return w.take();
}

size_t amf0_numeric_metadata_size(std::string_view name,
                                  std::span<const Amf0Number> props) {
  // Name string, ECMA array header, per property (key length, key,
  // number marker, f64), then the empty key and the object end marker.
  size_t size = 3 + name.size() + 5 + 3;
  for (const Amf0Number& p : props) size += 2 + p.key.size() + 1 + 8;
  return size;
}

void amf0_write_numeric_metadata(ByteWriter& w, std::string_view name,
                                 std::span<const Amf0Number> props) {
  w.u8(kString);
  w.u16be(static_cast<uint16_t>(name.size()));
  w.str(name);
  w.u8(kEcmaArray);
  w.u32be(static_cast<uint32_t>(props.size()));
  for (const Amf0Number& p : props) {
    w.u16be(static_cast<uint16_t>(p.key.size()));
    w.str(p.key);
    w.u8(kNumber);
    w.f64be(p.value);
  }
  w.u16be(0);  // empty key terminates
  w.u8(kObjectEnd);
}

std::optional<Amf0Metadata> amf0_decode_metadata(
    std::span<const uint8_t> body) {
  ByteReader r(body);
  if (r.u8() != kString) return std::nullopt;
  Amf0Metadata meta;
  meta.name = r.str(r.u16be());
  if (r.u8() != kEcmaArray) return std::nullopt;
  const uint32_t declared = r.u32be();
  (void)declared;  // advisory in AMF0; termination is the empty-key marker
  while (r.ok()) {
    const uint16_t key_len = r.u16be();
    if (!r.ok()) return std::nullopt;
    if (key_len == 0) {
      if (r.u8() != kObjectEnd) return std::nullopt;
      return meta;
    }
    std::string key = r.str(key_len);
    auto value = decode_value(r);
    if (!value || !r.ok()) return std::nullopt;
    meta.props.emplace(std::move(key), std::move(*value));
  }
  return std::nullopt;
}

}  // namespace wira::media
