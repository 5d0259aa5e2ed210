#include "quic/frames.h"

namespace wira::quic {

bool AckFrame::covers(PacketNumber pn) const {
  for (const Range& r : ranges) {
    if (pn >= r.lo && pn <= r.hi) return true;
  }
  return false;
}

namespace {

struct WireSizeVisitor {
  size_t operator()(const PaddingFrame& f) const { return f.length; }
  size_t operator()(const PingFrame&) const { return 1; }
  size_t operator()(const AckFrame& f) const {
    size_t n = 1 + varint_size(f.largest_acked) +
               varint_size(static_cast<uint64_t>(to_us(f.ack_delay))) +
               varint_size(f.ranges.size());
    uint64_t prev_lo = 0;
    bool first = true;
    for (const Range& r : f.ranges) {
      if (first) {
        n += varint_size(f.largest_acked - r.lo);
        first = false;
      } else {
        n += varint_size(prev_lo - r.hi - 2) + varint_size(r.hi - r.lo);
      }
      prev_lo = r.lo;
    }
    return n;
  }
  size_t operator()(const CryptoFrame& f) const {
    return 1 + varint_size(f.offset) + varint_size(f.data.size()) +
           f.data.size();
  }
  size_t operator()(const StreamFrame& f) const {
    return 1 + varint_size(f.stream_id) + varint_size(f.offset) +
           varint_size(f.data.size()) + 1 + f.data.size();
  }
  size_t operator()(const ConnectionCloseFrame& f) const {
    return 1 + varint_size(f.error_code) + varint_size(f.reason.size()) +
           f.reason.size();
  }
  size_t operator()(const HxQosFrame& f) const {
    return 1 + varint_size(f.server_time_ms) +
           varint_size(f.sealed_blob.size()) + f.sealed_blob.size();
  }
};

struct SerializeVisitor {
  ByteCursor& out;

  void operator()(const PaddingFrame& f) const {
    out.zeros(f.length);  // padding type byte is 0x00
  }
  void operator()(const PingFrame&) const {
    out.u8(static_cast<uint8_t>(FrameType::kPing));
  }
  void operator()(const AckFrame& f) const {
    out.u8(static_cast<uint8_t>(FrameType::kAck));
    out.varint(f.largest_acked);
    out.varint(static_cast<uint64_t>(to_us(f.ack_delay)));
    out.varint(f.ranges.size());
    uint64_t prev_lo = 0;
    bool first = true;
    for (const Range& r : f.ranges) {
      if (first) {
        out.varint(f.largest_acked - r.lo);
        first = false;
      } else {
        out.varint(prev_lo - r.hi - 2);  // gap
        out.varint(r.hi - r.lo);         // range length - 1
      }
      prev_lo = r.lo;
    }
  }
  void operator()(const CryptoFrame& f) const {
    out.u8(static_cast<uint8_t>(FrameType::kCrypto));
    out.varint(f.offset);
    out.varint(f.data.size());
    out.bytes(f.data);
  }
  void operator()(const StreamFrame& f) const {
    out.u8(static_cast<uint8_t>(FrameType::kStream));
    out.varint(f.stream_id);
    out.varint(f.offset);
    out.varint(f.data.size());
    out.u8(f.fin ? 1 : 0);
    out.bytes(f.data);
  }
  void operator()(const ConnectionCloseFrame& f) const {
    out.u8(static_cast<uint8_t>(FrameType::kConnectionClose));
    out.varint(f.error_code);
    out.varint(f.reason.size());
    out.str(f.reason);
  }
  void operator()(const HxQosFrame& f) const {
    out.u8(static_cast<uint8_t>(FrameType::kHxQos));
    out.varint(f.server_time_ms);
    out.varint(f.sealed_blob.size());
    out.bytes(f.sealed_blob);
  }
};

}  // namespace

size_t frame_wire_size(const Frame& frame) {
  return std::visit(WireSizeVisitor{}, frame);
}

void write_frame(const Frame& frame, ByteCursor& out) {
  std::visit(SerializeVisitor{out}, frame);
}

void serialize_frame(const Frame& frame, ByteWriter& out) {
  ByteCursor cursor(out.extend(frame_wire_size(frame)));
  write_frame(frame, cursor);
}

std::optional<Frame> parse_frame(ByteReader& in, util::Arena* arena) {
  const uint8_t type = in.u8();
  if (!in.ok()) return std::nullopt;
  switch (static_cast<FrameType>(type)) {
    case FrameType::kPadding: {
      PaddingFrame f;
      f.length = 1;
      while (in.remaining() > 0 && in.peek_u8() == 0) {
        in.u8();
        f.length++;
      }
      return Frame{f};
    }
    case FrameType::kPing:
      return Frame{PingFrame{}};
    case FrameType::kAck: {
      AckFrame f;
      f.ranges = util::ArenaVector<Range>(util::ArenaAllocator<Range>(arena));
      f.largest_acked = in.varint();
      f.ack_delay = microseconds(static_cast<int64_t>(in.varint()));
      const uint64_t count = in.varint();
      if (count > 1024) return std::nullopt;
      if (in.ok()) f.ranges.reserve(count);
      uint64_t prev_lo = 0;
      for (uint64_t i = 0; i < count && in.ok(); ++i) {
        Range r;
        if (i == 0) {
          const uint64_t first_range = in.varint();
          if (first_range > f.largest_acked) return std::nullopt;
          r.hi = f.largest_acked;
          r.lo = f.largest_acked - first_range;
        } else {
          const uint64_t gap = in.varint();
          const uint64_t len = in.varint();
          if (prev_lo < gap + 2) return std::nullopt;
          r.hi = prev_lo - gap - 2;
          if (r.hi < len) return std::nullopt;
          r.lo = r.hi - len;
        }
        prev_lo = r.lo;
        f.ranges.push_back(r);
      }
      if (!in.ok()) return std::nullopt;
      return Frame{std::move(f)};
    }
    case FrameType::kCrypto: {
      CryptoFrame f;
      f.offset = in.varint();
      const uint64_t len = in.varint();
      f.data = in.bytes(len);  // borrowed view into the datagram buffer
      if (!in.ok()) return std::nullopt;
      return Frame{f};
    }
    case FrameType::kStream: {
      StreamFrame f;
      f.stream_id = in.varint();
      f.offset = in.varint();
      const uint64_t len = in.varint();
      f.fin = in.u8() != 0;
      f.data = in.bytes(len);  // borrowed view into the datagram buffer
      if (!in.ok()) return std::nullopt;
      return Frame{f};
    }
    case FrameType::kConnectionClose: {
      ConnectionCloseFrame f;
      f.error_code = in.varint();
      const uint64_t len = in.varint();
      f.reason = in.str(len);
      if (!in.ok()) return std::nullopt;
      return Frame{std::move(f)};
    }
    case FrameType::kHxQos: {
      HxQosFrame f;
      f.server_time_ms = in.varint();
      const uint64_t len = in.varint();
      f.sealed_blob = in.bytes(len);  // borrowed view
      if (!in.ok()) return std::nullopt;
      return Frame{f};
    }
    default:
      return std::nullopt;
  }
}

bool is_retransmittable(const Frame& frame) {
  return !std::holds_alternative<AckFrame>(frame) &&
         !std::holds_alternative<PaddingFrame>(frame);
}

AckFrame build_ack(const RangeSet& received, TimeNs ack_delay,
                   size_t max_ranges, util::Arena* arena) {
  AckFrame f;
  f.ranges = util::ArenaVector<Range>(util::ArenaAllocator<Range>(arena));
  f.ack_delay = ack_delay;
  if (received.empty()) return f;
  f.largest_acked = received.max();
  f.ranges.reserve(std::min(received.size(), max_ranges));
  received.visit_descending(
      [&f](const Range& r) { f.ranges.push_back(r); }, max_ranges);
  return f;
}

}  // namespace wira::quic
