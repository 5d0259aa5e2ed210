// QUIC packet: header {type, connection id, packet number} + frames.
//
// Zero-copy contract (see frames.h): a parsed Packet borrows — its payload
// frames hold spans into the datagram buffer, and with an Arena both the
// frame vector and ACK ranges bump-allocate from it.  A parsed packet is
// therefore valid only for the duration of the delivery event; anything
// that must outlive it (crypto data, stream bytes, cookies) is copied by
// its consumer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "quic/frames.h"
#include "quic/types.h"
#include "util/arena.h"
#include "util/buffer_pool.h"

namespace wira::quic {

struct Packet {
  Packet() = default;
  /// Arena-backed packet: the frame vector bump-allocates from `arena`
  /// (tx hot path — the packet dies inside the event that builds it).
  explicit Packet(util::Arena* arena)
      : frames(util::ArenaAllocator<Frame>(arena)) {}

  PacketType type = PacketType::kOneRtt;
  ConnectionId conn_id = 0;
  PacketNumber packet_number = 0;
  util::ArenaVector<Frame> frames;

  bool retransmittable() const;
  /// Serialized size in bytes (header + frames).
  size_t wire_size() const;
};

/// Serializes `p` in one pass: its wire size is computed once, the buffer
/// sized once, and every byte written through one unchecked ByteCursor,
/// with one length check at the end of the packet (a mismatch against
/// wire_size() is a codec bug and aborts).  `reuse` lends its capacity,
/// so a recycled buffer does not allocate.
std::vector<uint8_t> serialize_packet(const Packet& p,
                                      std::vector<uint8_t> reuse = {});
/// As above, into a buffer of `pool`'s size class for the packet (the
/// connection's send path).
std::vector<uint8_t> serialize_packet(const Packet& p,
                                      util::BufferPool& pool);
/// Parses a datagram.  Payload frames borrow spans into `data`; with an
/// arena, the frame vector and ACK ranges bump-allocate from it.
std::optional<Packet> parse_packet(std::span<const uint8_t> data,
                                   util::Arena* arena = nullptr);

/// Header size used in packing budgets.
inline constexpr size_t kPacketHeaderSize = 1 + 8 + 8;

}  // namespace wira::quic
