#include "quic/handshake.h"

namespace wira::quic {

std::span<const uint8_t> HandshakeMessage::get(uint32_t tag) const {
  auto it = values.find(tag);
  if (it == values.end()) return {};
  return it->second;
}

void HandshakeMessage::set(uint32_t tag, std::span<const uint8_t> value) {
  values[tag].assign(value.begin(), value.end());
}

void HandshakeMessage::set_u64(uint32_t tag, uint64_t value) {
  std::vector<uint8_t>& v = values[tag];
  v.resize(8);
  bytes_detail::store_be(v.data(), value);
}

std::optional<uint64_t> HandshakeMessage::get_u64(uint32_t tag) const {
  auto it = values.find(tag);
  if (it == values.end() || it->second.size() != 8) return std::nullopt;
  ByteReader r(it->second);
  return r.u64be();
}

void HandshakeMessage::set_str(uint32_t tag, std::string_view s) {
  values[tag].assign(s.begin(), s.end());
}

std::vector<uint8_t> serialize_handshake(const HandshakeMessage& msg) {
  // Header (8) + one (tag, end offset) pair per value + the values.
  size_t size = 8 + 8 * msg.values.size();
  for (const auto& [tag, value] : msg.values) size += value.size();
  ByteWriter w(size);
  w.u32be(msg.msg_tag);
  w.u16be(static_cast<uint16_t>(msg.values.size()));
  w.u16be(0);  // reserved
  uint32_t end = 0;
  for (const auto& [tag, value] : msg.values) {
    end += static_cast<uint32_t>(value.size());
    w.u32be(tag);
    w.u32be(end);
  }
  for (const auto& [tag, value] : msg.values) w.bytes(value);
  return w.take();
}

std::optional<HandshakeMessage> parse_handshake(
    std::span<const uint8_t> data) {
  ByteReader r(data);
  HandshakeMessage msg;
  msg.msg_tag = r.u32be();
  const uint16_t n = r.u16be();
  r.u16be();  // reserved
  if (!r.ok() || n > 128 || r.remaining() < 8u * n) return std::nullopt;
  // The (tag, end offset) index is read in step with the values it
  // delimits, through a second reader.
  ByteReader index(data.subspan(r.position(), 8u * n));
  r.skip(8u * n);
  uint32_t start = 0;
  for (uint16_t i = 0; i < n; ++i) {
    const uint32_t tag = index.u32be();
    const uint32_t end = index.u32be();
    if (end < start) return std::nullopt;
    auto v = r.bytes(end - start);
    if (!r.ok()) return std::nullopt;
    msg.values[tag].assign(v.begin(), v.end());
    start = end;
  }
  return msg;
}

std::vector<uint8_t> serialize_hqst(const HqstPayload& p) {
  ByteWriter w(1 + 8 + p.sealed_cookie.size());
  w.u8(p.supports_sync ? 1 : 0);
  w.u64be(p.client_recv_time_ms);
  w.bytes(p.sealed_cookie);
  return w.take();
}

std::optional<HqstPayload> parse_hqst(std::span<const uint8_t> data) {
  ByteReader r(data);
  HqstPayload p;
  p.supports_sync = r.u8() != 0;
  p.client_recv_time_ms = r.u64be();
  if (!r.ok()) return std::nullopt;
  auto rest = r.bytes(r.remaining());
  p.sealed_cookie.assign(rest.begin(), rest.end());
  return p;
}

}  // namespace wira::quic
