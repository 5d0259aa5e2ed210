#include "quic/packet.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace wira::quic {

bool Packet::retransmittable() const {
  for (const Frame& f : frames) {
    if (is_retransmittable(f)) return true;
  }
  return false;
}

size_t Packet::wire_size() const {
  size_t n = kPacketHeaderSize;
  for (const Frame& f : frames) n += frame_wire_size(f);
  return n;
}

namespace {

std::vector<uint8_t> write_packet(const Packet& p, size_t size,
                                  std::vector<uint8_t> out) {
  out.resize(size);
  ByteCursor w(out.data());
  w.u8(static_cast<uint8_t>(p.type));
  w.u64be(p.conn_id);
  w.u64be(p.packet_number);
  for (const Frame& f : p.frames) write_frame(f, w);
  if (w.pos() != out.data() + size) {
    std::fprintf(stderr, "serialize_packet: wrote %td bytes, wire_size %zu\n",
                 w.pos() - out.data(), size);
    std::abort();
  }
  return out;
}

}  // namespace

std::vector<uint8_t> serialize_packet(const Packet& p,
                                      std::vector<uint8_t> reuse) {
  return write_packet(p, p.wire_size(), std::move(reuse));
}

std::vector<uint8_t> serialize_packet(const Packet& p,
                                      util::BufferPool& pool) {
  const size_t size = p.wire_size();
  return write_packet(p, size, pool.acquire(size));
}

std::optional<Packet> parse_packet(std::span<const uint8_t> data,
                                   util::Arena* arena) {
  ByteReader r(data);
  Packet p(arena);
  const uint8_t type = r.u8();
  switch (static_cast<PacketType>(type)) {
    case PacketType::kInitial:
    case PacketType::kZeroRtt:
    case PacketType::kOneRtt:
    case PacketType::kHxQos:
      p.type = static_cast<PacketType>(type);
      break;
    default:
      return std::nullopt;
  }
  p.conn_id = r.u64be();
  p.packet_number = r.u64be();
  if (!r.ok()) return std::nullopt;
  while (r.ok() && r.remaining() > 0) {
    auto f = parse_frame(r, arena);
    if (!f) return std::nullopt;
    p.frames.push_back(std::move(*f));
  }
  return p;
}

}  // namespace wira::quic
