// Unit tests for QUIC frame wire codecs, including the Wira Hx_QoS frame.
//
// Parsed payload frames borrow spans into the wire buffer, so the helpers
// here keep that buffer alive alongside the parsed frame (Parsed<T>).
#include "quic/frames.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "quic/packet.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace wira::quic {
namespace {

std::vector<uint8_t> vec(std::span<const uint8_t> s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// A parsed frame plus the wire bytes its spans borrow from.  The vector
/// moves with the struct (heap storage is stable), so the spans stay valid
/// in the caller.
template <typename T>
struct Parsed {
  std::vector<uint8_t> wire;
  T frame;
};

template <typename T>
Parsed<T> round_trip(const Frame& in) {
  ByteWriter w;
  serialize_frame(in, w);
  EXPECT_EQ(w.size(), frame_wire_size(in)) << "wire-size accounting drift";
  Parsed<T> out;
  out.wire = w.take();
  ByteReader r(out.wire);
  auto parsed = parse_frame(r);
  EXPECT_TRUE(parsed.has_value());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  out.frame = std::get<T>(*parsed);
  return out;
}

TEST(Frames, StreamFrameRoundTrip) {
  const std::vector<uint8_t> payload{1, 2, 3, 4, 5};
  StreamFrame f;
  f.stream_id = 3;
  f.offset = 123456;
  f.fin = true;
  f.data = payload;
  const auto out = round_trip<StreamFrame>(Frame{f});
  EXPECT_EQ(out.frame.stream_id, 3u);
  EXPECT_EQ(out.frame.offset, 123456u);
  EXPECT_TRUE(out.frame.fin);
  EXPECT_EQ(vec(out.frame.data), payload);
}

TEST(Frames, ParsedPayloadBorrowsWireBuffer) {
  // The zero-copy pin: a parsed frame's data span must point INTO the
  // buffer it was parsed from, not at a copy.
  const std::vector<uint8_t> payload{9, 9, 9, 9};
  StreamFrame f;
  f.stream_id = 1;
  f.data = payload;
  ByteWriter w;
  serialize_frame(Frame{f}, w);
  const std::vector<uint8_t> wire = w.take();
  ByteReader r(wire);
  auto parsed = parse_frame(r);
  ASSERT_TRUE(parsed.has_value());
  const auto& sf = std::get<StreamFrame>(*parsed);
  ASSERT_EQ(sf.data.size(), payload.size());
  EXPECT_GE(sf.data.data(), wire.data());
  EXPECT_LE(sf.data.data() + sf.data.size(), wire.data() + wire.size());
}

TEST(Frames, EmptyStreamFrameWithFin) {
  StreamFrame f;
  f.stream_id = 1;
  f.offset = 999;
  f.fin = true;
  const auto out = round_trip<StreamFrame>(Frame{f});
  EXPECT_TRUE(out.frame.data.empty());
  EXPECT_TRUE(out.frame.fin);
}

TEST(Frames, AckFrameSingleRange) {
  AckFrame f;
  f.largest_acked = 100;
  f.ack_delay = microseconds(250);
  f.ranges = {{90, 100}};
  const auto out = round_trip<AckFrame>(Frame{f});
  EXPECT_EQ(out.frame.largest_acked, 100u);
  EXPECT_EQ(out.frame.ack_delay, microseconds(250));
  ASSERT_EQ(out.frame.ranges.size(), 1u);
  EXPECT_EQ(out.frame.ranges[0], (Range{90, 100}));
}

TEST(Frames, AckFrameMultipleRanges) {
  AckFrame f;
  f.largest_acked = 100;
  f.ranges = {{95, 100}, {80, 90}, {1, 50}};
  const auto out = round_trip<AckFrame>(Frame{f});
  ASSERT_EQ(out.frame.ranges.size(), 3u);
  EXPECT_EQ(out.frame.ranges[0], (Range{95, 100}));
  EXPECT_EQ(out.frame.ranges[1], (Range{80, 90}));
  EXPECT_EQ(out.frame.ranges[2], (Range{1, 50}));
  EXPECT_TRUE(out.frame.covers(85));
  EXPECT_FALSE(out.frame.covers(60));
  EXPECT_TRUE(out.frame.covers(1));
}

TEST(Frames, ParseWithArenaPutsAckRangesInArena) {
  AckFrame f;
  f.largest_acked = 100;
  f.ranges = {{95, 100}, {80, 90}};
  ByteWriter w;
  serialize_frame(Frame{f}, w);
  util::Arena arena;
  const uint64_t before = arena.total_allocated();
  ByteReader r(w.span());
  auto parsed = parse_frame(r, &arena);
  ASSERT_TRUE(parsed.has_value());
  const auto& ack = std::get<AckFrame>(*parsed);
  ASSERT_EQ(ack.ranges.size(), 2u);
  EXPECT_GT(arena.total_allocated(), before);
  EXPECT_EQ(ack.ranges.get_allocator().arena(), &arena);
}

TEST(Frames, HxQosFrameRoundTrip) {
  const std::vector<uint8_t> blob{0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  HxQosFrame f;
  f.server_time_ms = 123456789;
  f.sealed_blob = blob;
  const auto out = round_trip<HxQosFrame>(Frame{f});
  EXPECT_EQ(out.frame.server_time_ms, 123456789u);
  EXPECT_EQ(vec(out.frame.sealed_blob), blob);
}

TEST(Frames, CryptoAndCloseRoundTrip) {
  const std::vector<uint8_t> payload{9, 8, 7};
  CryptoFrame c;
  c.offset = 7;
  c.data = payload;
  EXPECT_EQ(vec(round_trip<CryptoFrame>(Frame{c}).frame.data), payload);

  ConnectionCloseFrame cc;
  cc.error_code = 42;
  cc.reason = "bye";
  const auto out = round_trip<ConnectionCloseFrame>(Frame{cc});
  EXPECT_EQ(out.frame.error_code, 42u);
  EXPECT_EQ(out.frame.reason, "bye");
}

TEST(Frames, RetransmittableClassification) {
  EXPECT_FALSE(is_retransmittable(Frame{AckFrame{}}));
  EXPECT_FALSE(is_retransmittable(Frame{PaddingFrame{}}));
  EXPECT_TRUE(is_retransmittable(Frame{PingFrame{}}));
  EXPECT_TRUE(is_retransmittable(Frame{StreamFrame{}}));
  EXPECT_TRUE(is_retransmittable(Frame{CryptoFrame{}}));
  EXPECT_TRUE(is_retransmittable(Frame{HxQosFrame{}}));
}

TEST(Frames, BuildAckFromReceivedSet) {
  RangeSet received;
  received.add(1, 5);
  received.add(8, 10);
  received.add(12);
  const AckFrame ack = build_ack(received, milliseconds(2));
  EXPECT_EQ(ack.largest_acked, 12u);
  ASSERT_EQ(ack.ranges.size(), 3u);
  EXPECT_EQ(ack.ranges[0], (Range{12, 12}));
  EXPECT_EQ(ack.ranges[2], (Range{1, 5}));
}

TEST(Frames, BuildAckCapsRangeCount) {
  RangeSet received;
  for (uint64_t i = 0; i < 100; ++i) received.add(i * 3);
  const AckFrame ack = build_ack(received, 0, /*max_ranges=*/32);
  EXPECT_EQ(ack.ranges.size(), 32u);
  EXPECT_EQ(ack.largest_acked, 99u * 3);
}

TEST(Frames, MalformedInputRejected) {
  // Unknown frame type.
  {
    const uint8_t buf[] = {0xEE};
    ByteReader r(buf, sizeof(buf));
    EXPECT_FALSE(parse_frame(r).has_value());
  }
  // Truncated stream frame (declared longer than available).
  {
    ByteWriter w;
    const std::vector<uint8_t> payload{1, 2, 3, 4};
    StreamFrame f;
    f.data = payload;
    serialize_frame(Frame{f}, w);
    auto bytes = w.take();
    bytes.resize(bytes.size() - 2);
    ByteReader r(bytes);
    EXPECT_FALSE(parse_frame(r).has_value());
  }
  // ACK whose first range underflows.
  {
    ByteWriter w;
    w.u8(0x02);
    w.varint(5);    // largest
    w.varint(0);    // delay
    w.varint(1);    // one range
    w.varint(9);    // first_range > largest -> invalid
    ByteReader r(w.span());
    EXPECT_FALSE(parse_frame(r).has_value());
  }
}

TEST(Packets, RoundTripWithMixedFrames) {
  Packet p;
  p.type = PacketType::kOneRtt;
  p.conn_id = 0xAABBCCDD;
  p.packet_number = 77;
  p.frames.push_back(build_ack([] {
                       RangeSet s;
                       s.add(1, 3);
                       return s;
                     }(), 0));
  const std::vector<uint8_t> payload{5, 5, 5};
  StreamFrame sf;
  sf.stream_id = 3;
  sf.data = payload;
  p.frames.push_back(sf);

  const auto bytes = serialize_packet(p);
  auto out = parse_packet(bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->conn_id, 0xAABBCCDDu);
  EXPECT_EQ(out->packet_number, 77u);
  ASSERT_EQ(out->frames.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<AckFrame>(out->frames[0]));
  EXPECT_TRUE(std::holds_alternative<StreamFrame>(out->frames[1]));
  EXPECT_TRUE(out->retransmittable());
}

TEST(Packets, ArenaBackedParseAllocatesNothingOnHeapAfterWarmup) {
  const std::vector<uint8_t> payload{5, 5, 5, 5};
  Packet p;
  p.conn_id = 9;
  p.packet_number = 1;
  StreamFrame sf;
  sf.stream_id = 3;
  sf.data = payload;
  p.frames.push_back(sf);
  const auto bytes = serialize_packet(p);

  util::Arena arena;
  auto out = parse_packet(bytes, &arena);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->frames.get_allocator().arena(), &arena);
  EXPECT_GT(arena.total_allocated(), 0u);
  // Epoch reset rewinds; re-parsing reuses the same block.
  const size_t blocks = arena.block_count();
  arena.reset();
  out = parse_packet(bytes, &arena);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(arena.block_count(), blocks);
}

TEST(Packets, HxQosPacketType) {
  const std::vector<uint8_t> blob{1, 2, 3};
  Packet p;
  p.type = PacketType::kHxQos;  // 0x1f, distinct from existing QUIC types
  p.conn_id = 1;
  p.packet_number = 5;
  HxQosFrame hx;
  hx.server_time_ms = 100;
  hx.sealed_blob = blob;
  p.frames.push_back(hx);
  const auto bytes = serialize_packet(p);
  auto out = parse_packet(bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, PacketType::kHxQos);
}

TEST(Packets, UnknownTypeRejected) {
  ByteWriter w;
  w.u8(0x7F);
  w.u64be(1);
  w.u64be(1);
  EXPECT_FALSE(parse_packet(w.span()).has_value());
}

TEST(Packets, AckOnlyPacketNotRetransmittable) {
  Packet p;
  p.frames.push_back(AckFrame{});
  EXPECT_FALSE(p.retransmittable());
}

// Varint values on both sides of every RFC 9000 length-class boundary.
constexpr uint64_t kVarintEdges[] = {
    0,     1,     63,          64,         16383,
    16384, (1ull << 30) - 1,   1ull << 30, (1ull << 62) - 1};

/// A varint-encodable value <= `max`: a class edge half the time, else
/// uniform.
uint64_t edgy_value(Rng& rng, uint64_t max) {
  if (rng.chance(0.5)) {
    std::vector<uint64_t> fit;
    for (uint64_t e : kVarintEdges) {
      if (e <= max) fit.push_back(e);
    }
    return fit[rng.below(fit.size())];
  }
  return max == UINT64_MAX ? rng.next() : rng.below(max + 1);
}

/// Builds seeded random packets over all seven frame types.  Payload
/// bytes live in `store` (frames borrow them).  The last frame is never
/// padding, and two paddings are never adjacent: the parser merges a
/// padding run, so neither would round-trip frame for frame.
struct PacketGen {
  Rng rng;
  std::vector<std::vector<uint8_t>> store;

  explicit PacketGen(uint64_t seed) : rng(seed) {}

  std::span<const uint8_t> payload(bool small) {
    size_t len;
    if (small) {
      len = rng.chance(0.3) ? edgy_value(rng, 64) : rng.below(200);
    } else {
      len = edgy_value(rng, 16384);
    }
    std::vector<uint8_t> b(len);
    for (uint8_t& x : b) x = static_cast<uint8_t>(rng.next());
    store.push_back(std::move(b));
    return store.back();
  }

  Frame frame(size_t type, bool small) {
    switch (type) {
      case 0:
        return PaddingFrame{static_cast<uint32_t>(1 + rng.below(40))};
      case 1:
        return PingFrame{};
      case 2: {
        AckFrame f;
        f.largest_acked = edgy_value(rng, (1ull << 62) - 1);
        // The delay travels in whole microseconds.
        f.ack_delay = microseconds(
            static_cast<int64_t>(edgy_value(rng, 1ull << 40)));
        const size_t count = rng.below(small ? 4 : 40);
        uint64_t hi = f.largest_acked;
        for (size_t i = 0; i < count; ++i) {
          const uint64_t lo = hi - edgy_value(rng, hi);
          f.ranges.push_back(Range{lo, hi});
          if (lo < 2) break;
          const uint64_t gap = edgy_value(rng, lo - 2);
          hi = lo - gap - 2;
        }
        return f;
      }
      case 3: {
        CryptoFrame f;
        f.offset = edgy_value(rng, (1ull << 62) - 1);
        f.data = payload(small);
        return f;
      }
      case 4: {
        StreamFrame f;
        f.stream_id = edgy_value(rng, (1ull << 62) - 1);
        f.offset = edgy_value(rng, (1ull << 62) - 1);
        f.fin = rng.chance(0.5);
        f.data = payload(small);
        return f;
      }
      case 5: {
        ConnectionCloseFrame f;
        f.error_code = edgy_value(rng, (1ull << 62) - 1);
        const auto reason = payload(true);
        f.reason.assign(reason.begin(), reason.end());
        return f;
      }
      default: {
        HxQosFrame f;
        f.server_time_ms = edgy_value(rng, (1ull << 62) - 1);
        f.sealed_blob = payload(small);
        return f;
      }
    }
  }

  Packet packet() {
    static constexpr PacketType kTypes[] = {
        PacketType::kInitial, PacketType::kZeroRtt, PacketType::kOneRtt,
        PacketType::kHxQos};
    Packet p;
    p.type = kTypes[rng.below(4)];
    p.conn_id = rng.next();
    p.packet_number = rng.next();
    const size_t n = 1 + rng.below(6);
    size_t prev = SIZE_MAX;
    for (size_t i = 0; i < n; ++i) {
      const bool last = i + 1 == n;
      size_t type = rng.below(7);
      while (type == 0 && (last || prev == 0)) type = rng.below(7);
      // The last frame stays small: every byte inside it is a truncation
      // point below.
      p.frames.push_back(frame(type, last));
      prev = type;
    }
    return p;
  }
};

void expect_same_frame(const Frame& a, const Frame& b) {
  ASSERT_EQ(a.index(), b.index());
  if (const auto* x = std::get_if<PaddingFrame>(&a)) {
    EXPECT_EQ(x->length, std::get<PaddingFrame>(b).length);
  } else if (const auto* x = std::get_if<AckFrame>(&a)) {
    const auto& y = std::get<AckFrame>(b);
    EXPECT_EQ(x->largest_acked, y.largest_acked);
    EXPECT_EQ(x->ack_delay, y.ack_delay);
    ASSERT_EQ(x->ranges.size(), y.ranges.size());
    for (size_t i = 0; i < x->ranges.size(); ++i) {
      EXPECT_EQ(x->ranges[i].lo, y.ranges[i].lo);
      EXPECT_EQ(x->ranges[i].hi, y.ranges[i].hi);
    }
  } else if (const auto* x = std::get_if<CryptoFrame>(&a)) {
    const auto& y = std::get<CryptoFrame>(b);
    EXPECT_EQ(x->offset, y.offset);
    EXPECT_EQ(vec(x->data), vec(y.data));
  } else if (const auto* x = std::get_if<StreamFrame>(&a)) {
    const auto& y = std::get<StreamFrame>(b);
    EXPECT_EQ(x->stream_id, y.stream_id);
    EXPECT_EQ(x->offset, y.offset);
    EXPECT_EQ(x->fin, y.fin);
    EXPECT_EQ(vec(x->data), vec(y.data));
  } else if (const auto* x = std::get_if<ConnectionCloseFrame>(&a)) {
    const auto& y = std::get<ConnectionCloseFrame>(b);
    EXPECT_EQ(x->error_code, y.error_code);
    EXPECT_EQ(x->reason, y.reason);
  } else if (const auto* x = std::get_if<HxQosFrame>(&a)) {
    const auto& y = std::get<HxQosFrame>(b);
    EXPECT_EQ(x->server_time_ms, y.server_time_ms);
    EXPECT_EQ(vec(x->sealed_blob), vec(y.sealed_blob));
  }
}

// Property test of the one-pass packet writer against the independent
// decoder: for seeded random packets over all seven frame types, with
// varints on both sides of every length-class edge, the written length is
// wire_size(), parsing the bytes gives back every field, the pooled and
// the plain writer agree byte for byte, and a datagram cut anywhere inside
// its last frame is rejected.
TEST(Packets, OnePassWriterRoundTripsRandomPackets) {
  util::BufferPool pool;
  size_t cuts = 0;
  std::array<size_t, 7> seen{};
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    PacketGen gen(seed);
    const Packet p = gen.packet();
    const auto bytes = serialize_packet(p);
    ASSERT_EQ(bytes.size(), p.wire_size()) << "seed " << seed;
    auto pooled = serialize_packet(p, pool);
    EXPECT_EQ(pooled, bytes) << "seed " << seed;
    pool.release(std::move(pooled));

    const auto out = parse_packet(bytes);
    ASSERT_TRUE(out.has_value()) << "seed " << seed;
    EXPECT_EQ(out->type, p.type);
    EXPECT_EQ(out->conn_id, p.conn_id);
    EXPECT_EQ(out->packet_number, p.packet_number);
    ASSERT_EQ(out->frames.size(), p.frames.size()) << "seed " << seed;
    for (size_t i = 0; i < p.frames.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " frame " +
                   std::to_string(i));
      expect_same_frame(p.frames[i], out->frames[i]);
      seen[p.frames[i].index()]++;
    }

    const size_t last = bytes.size() - frame_wire_size(p.frames.back());
    for (size_t cut = last + 1; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(
          parse_packet(std::span<const uint8_t>(bytes).first(cut)).has_value())
          << "seed " << seed << " cut " << cut;
      ++cuts;
    }
  }
  for (size_t type = 0; type < seen.size(); ++type) {
    EXPECT_GT(seen[type], 20u) << "frame type " << type;
  }
  EXPECT_GT(cuts, 5000u);
}

}  // namespace
}  // namespace wira::quic
