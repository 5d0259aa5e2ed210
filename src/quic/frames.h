// QUIC frame definitions and wire codecs.
//
// Frames are a std::variant.  Serialization writes through an unchecked
// ByteCursor into space sized by frame_wire_size (exact by contract; the
// packet writer checks the total once per packet); parsing goes through
// ByteReader, so malformed input is handled via the reader's error latch
// rather than exceptions.
//
// Zero-copy contract: the payload-bearing frames (CryptoFrame, StreamFrame,
// HxQosFrame) hold std::span views, not owned vectors.  On parse the spans
// borrow directly from the datagram buffer; on serialize they borrow from
// whatever the caller keeps alive (a SendStream buffer, a sealed-cookie
// vector).  A frame is therefore valid only as long as its backing bytes:
// consumers that need the payload past the current call copy it explicitly
// (RecvStream's reassembly map is the single copy point on the rx path).
// AckFrame::ranges may live in a per-loop Arena when an arena is passed to
// parse_frame/build_ack; copies of such frames fall back to the heap.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "quic/range_set.h"
#include "quic/types.h"
#include "util/arena.h"
#include "util/bytes.h"

namespace wira::quic {

/// Frame type codes on the wire.
enum class FrameType : uint8_t {
  kPadding = 0x00,
  kPing = 0x01,
  kAck = 0x02,
  kCrypto = 0x06,
  kStream = 0x08,
  kConnectionClose = 0x1c,
  kHxQos = 0x1f,  ///< Wira Hx_QoS frame (§IV-B, Fig. 8)
};

struct PaddingFrame {
  uint32_t length = 1;
};

struct PingFrame {};

struct AckFrame {
  PacketNumber largest_acked = 0;
  TimeNs ack_delay = 0;
  /// Acked ranges in descending order, first covering largest_acked.
  /// Arena-backed on the hot path (see build_ack/parse_frame), heap by
  /// default.
  util::ArenaVector<Range> ranges;

  bool covers(PacketNumber pn) const;
};

struct CryptoFrame {
  uint64_t offset = 0;  ///< offset within the crypto stream
  std::span<const uint8_t> data;  ///< borrowed; copy to outlive the call
};

struct StreamFrame {
  StreamId stream_id = 0;
  uint64_t offset = 0;
  bool fin = false;
  std::span<const uint8_t> data;  ///< borrowed; copy to outlive the call
};

struct ConnectionCloseFrame {
  uint64_t error_code = 0;
  std::string reason;
};

/// Wira Hx_QoS frame: an opaque sealed blob (only the server can open it)
/// plus the server's wall-clock send time in milliseconds (advisory; the
/// authoritative timestamp is sealed inside the blob).
struct HxQosFrame {
  uint64_t server_time_ms = 0;
  std::span<const uint8_t> sealed_blob;  ///< borrowed, like StreamFrame
};

using Frame = std::variant<PaddingFrame, PingFrame, AckFrame, CryptoFrame,
                           StreamFrame, ConnectionCloseFrame, HxQosFrame>;

/// Serialized size of a frame (exact — used for packet packing decisions).
size_t frame_wire_size(const Frame& frame);

/// Writes exactly frame_wire_size(frame) bytes at `out`.
void write_frame(const Frame& frame, ByteCursor& out);

/// Appends the frame to `out` (tests and tools; the packet writer uses
/// write_frame directly).
void serialize_frame(const Frame& frame, ByteWriter& out);

/// Parses one frame; nullopt on malformed input (reader latched failed).
/// Payload spans borrow from the reader's underlying buffer; ACK ranges
/// bump-allocate from `arena` when given (heap otherwise).
std::optional<Frame> parse_frame(ByteReader& in,
                                 util::Arena* arena = nullptr);

/// True if the frame counts as retransmittable (ack-eliciting).
bool is_retransmittable(const Frame& frame);

/// Builds an AckFrame from a set of received packet numbers, keeping at
/// most `max_ranges` ranges (most recent first).  Ranges bump-allocate
/// from `arena` when given.
AckFrame build_ack(const RangeSet& received, TimeNs ack_delay,
                   size_t max_ranges = 32, util::Arena* arena = nullptr);

}  // namespace wira::quic
