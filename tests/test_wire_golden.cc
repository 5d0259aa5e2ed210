// Golden wire-format tests: exact byte layouts, locked down so future
// refactors can't silently change what goes on the wire (which would
// break interop between old and new endpoints).
#include <gtest/gtest.h>

#include "core/transport_cookie.h"
#include "exp/record_codec.h"
#include "media/flv.h"
#include "media/mpegts.h"
#include "quic/handshake.h"
#include "quic/packet.h"
#include "util/bytes.h"

namespace wira {
namespace {

TEST(Golden, QuicPacketHeader) {
  quic::Packet p;
  p.type = quic::PacketType::kOneRtt;
  p.conn_id = 0x1122334455667788ull;
  p.packet_number = 0x0A;
  p.frames.emplace_back(quic::PingFrame{});
  EXPECT_EQ(to_hex(serialize_packet(p)),
            "04"                  // type: 1-RTT
            "1122334455667788"    // connection id
            "000000000000000a"    // packet number
            "01");                // PING frame
}

TEST(Golden, HxQosPacketUses0x1f) {
  quic::Packet p;
  p.type = quic::PacketType::kHxQos;
  p.conn_id = 1;
  p.packet_number = 2;
  quic::HxQosFrame f;
  f.server_time_ms = 3;
  const std::vector<uint8_t> blob{0xAA, 0xBB};
  f.sealed_blob = blob;
  p.frames.emplace_back(f);
  EXPECT_EQ(to_hex(serialize_packet(p)),
            "1f"                  // packet type 0x1f (the paper's new type)
            "0000000000000001"
            "0000000000000002"
            "1f"                  // frame type 0x1f
            "03"                  // server_time_ms varint
            "02"                  // blob length varint
            "aabb");
}

TEST(Golden, StreamFrameLayout) {
  quic::StreamFrame f;
  f.stream_id = 3;
  f.offset = 64;  // forces 2-byte varint
  f.fin = true;
  const std::vector<uint8_t> payload{0xDE, 0xAD};
  f.data = payload;
  ByteWriter w;
  quic::serialize_frame(quic::Frame{f}, w);
  EXPECT_EQ(to_hex(w.span()),
            "08"      // STREAM type
            "03"      // stream id
            "4040"    // offset 64 as 2-byte varint
            "02"      // length
            "01"      // fin
            "dead");
}

TEST(Golden, AckFrameLayout) {
  quic::AckFrame f;
  f.largest_acked = 10;
  f.ack_delay = microseconds(25);
  f.ranges = {{8, 10}, {1, 5}};
  ByteWriter w;
  quic::serialize_frame(quic::Frame{f}, w);
  EXPECT_EQ(to_hex(w.span()),
            "02"   // ACK type
            "0a"   // largest acked
            "19"   // delay 25 us
            "02"   // range count
            "02"   // first range: largest - lo = 2
            "01"   // gap: prev_lo(8) - hi(5) - 2 = 1
            "04"); // length: hi - lo = 4
}

TEST(Golden, ChloWithHqstTag) {
  quic::HandshakeMessage chlo;
  chlo.msg_tag = quic::kTagCHLO;
  quic::HqstPayload hqst;
  hqst.supports_sync = true;
  hqst.client_recv_time_ms = 0x0102;
  chlo.set(quic::kTagHQST, quic::serialize_hqst(hqst));
  EXPECT_EQ(to_hex(serialize_handshake(chlo)),
            "43484c4f"  // 'CHLO'
            "0001"      // 1 tag
            "0000"      // reserved
            "48515354"  // 'HQST'
            "00000009"  // end offset: Bool(1) + timestamp(8)
            "01"        // Bool = 1 (supports sync)
            "0000000000000102");
}

TEST(Golden, HxQosTripleLayout) {
  core::HxQosRecord rec;
  rec.min_rtt = microseconds(50'000);
  rec.max_bw = 1'000'000;  // 8 Mbps
  rec.od_key = 0x42;
  EXPECT_EQ(to_hex(core::encode_hxqos_triples(rec)),
            "01" "08" "000000000000c350"   // <MinRTT, 8, 50000 us>
            "02" "08" "00000000000f4240"   // <MaxBW, 8, 1e6 B/s>
            "04" "08" "0000000000000042"); // <OdKey, 8, 0x42>
}

TEST(Golden, FlvHeaderAndTag) {
  media::FlvMuxer mux;
  mux.write_header();
  media::MediaFrame f;
  f.type = media::TagType::kVideo;
  f.video_kind = media::VideoKind::kKey;
  f.payload_bytes = 1;  // just the codec byte
  f.pts = milliseconds(0x010203);
  mux.write_frame(f);
  EXPECT_EQ(to_hex(mux.span()),
            "464c5601"  // 'FLV' v1
            "05"        // audio+video
            "00000009"  // data offset
            "00000000"  // PreviousTagSize0
            "09"        // video tag
            "000001"    // data size 1
            "010203"    // timestamp low 24 bits (66051 ms)
            "00"        // timestamp extension
            "000000"    // stream id
            "17"        // keyframe | AVC
            "0000000c"); // PreviousTagSize = 11 + 1
}

// Size and FNV-1a-64 of one muxed frame.  The hash covers every payload
// byte, so a filler that starts at the wrong index, or a table seam at a
// 256-byte boundary, changes it even when the size does not.
struct MuxedFrameGolden {
  media::TagType type;
  media::VideoKind kind;
  uint32_t payload_bytes;
  size_t size;
  uint64_t fnv;
};

constexpr auto kKey = media::VideoKind::kKey;
constexpr auto kInter = media::VideoKind::kInter;
constexpr auto kVideo = media::TagType::kVideo;
constexpr auto kAudio = media::TagType::kAudio;
constexpr auto kScript = media::TagType::kScript;

media::MediaFrame golden_frame(const MuxedFrameGolden& g) {
  return {g.type, g.kind, g.payload_bytes, milliseconds(40)};
}

// Payload sizes 0/1 (marker byte only), around the filler's 256-byte
// period, and 70000 (many TS packets; an audio PES length over 0xFFFF).
constexpr MuxedFrameGolden kFlvFrames[] = {
    {kVideo, kKey, 0, 16, 0x008e1a3096953ff2ull},
    {kVideo, kKey, 1, 16, 0x008e1a3096953ff2ull},
    {kVideo, kKey, 255, 270, 0x850000c2494f5b08ull},
    {kVideo, kKey, 256, 271, 0x4ac00afabeacd235ull},
    {kVideo, kKey, 257, 272, 0x86f2b15e7edac3ceull},
    {kVideo, kKey, 1000, 1015, 0x97379df2e6408d6dull},
    {kVideo, kKey, 70000, 70015, 0x4817bbf297a48cc7ull},
    {kVideo, kInter, 0, 16, 0x359fe788c19e99c2ull},
    {kVideo, kInter, 1, 16, 0x359fe788c19e99c2ull},
    {kVideo, kInter, 255, 270, 0xb7b88bc6320c6978ull},
    {kVideo, kInter, 256, 271, 0x8bbe41e94b6edb65ull},
    {kVideo, kInter, 257, 272, 0x1811a76c22a831feull},
    {kVideo, kInter, 1000, 1015, 0xecf449f82fe776fdull},
    {kVideo, kInter, 70000, 70015, 0x0b3c5711e6434d37ull},
    {kAudio, kKey, 0, 16, 0xd2f52be1c651bebfull},
    {kAudio, kKey, 1, 16, 0xd2f52be1c651bebfull},
    {kAudio, kKey, 255, 270, 0x17f9817286613369ull},
    {kAudio, kKey, 256, 271, 0xb97024432e6f4fc2ull},
    {kAudio, kKey, 257, 272, 0x8263d7039196f443ull},
    {kAudio, kKey, 1000, 1015, 0x20bdb38ab162ab8eull},
    {kAudio, kKey, 70000, 70015, 0xbb47b17756cafb28ull},
    {kScript, kKey, 0, 15, 0x88316272e6d05734ull},
    {kScript, kKey, 1, 16, 0x4c7eddcf270576f7ull},
    {kScript, kKey, 255, 270, 0x08182054f60ca921ull},
    {kScript, kKey, 256, 271, 0x44128336b85e1136ull},
    {kScript, kKey, 257, 272, 0xeca39f21edd955dfull},
    {kScript, kKey, 1000, 1015, 0xeb1cd2ecb9039a8aull},
    {kScript, kKey, 70000, 70015, 0x8bdc9a712939d16cull},
};

constexpr MuxedFrameGolden kTsFrames[] = {
    {kVideo, kKey, 0, 188, 0xd71192d5bd383e37ull},
    {kVideo, kKey, 1, 188, 0x5fae5059167b02bdull},
    {kVideo, kKey, 255, 376, 0x4e7a7f5739cea24eull},
    {kVideo, kKey, 256, 376, 0x46c2ebdb9f877d39ull},
    {kVideo, kKey, 257, 376, 0xc751251d2752da89ull},
    {kVideo, kKey, 1000, 1128, 0x8f49f711c9dca185ull},
    {kVideo, kKey, 70000, 71628, 0x78eefca7f87290caull},
    {kVideo, kInter, 0, 188, 0xbb509c871505de77ull},
    {kVideo, kInter, 1, 188, 0x8158c60fb8bf39fdull},
    {kVideo, kInter, 255, 376, 0x74c67c06d4f15f3dull},
    {kVideo, kInter, 256, 376, 0xb5c46467c35c7ef8ull},
    {kVideo, kInter, 257, 376, 0x532fd3835bbf312eull},
    {kVideo, kInter, 1000, 1128, 0x2c1fa1c76f13b424ull},
    {kVideo, kInter, 70000, 71628, 0xeeca9532eec07b4full},
    {kAudio, kKey, 0, 188, 0x2ce30563dadd59d2ull},
    {kAudio, kKey, 1, 188, 0x2922d4dc8121ca99ull},
    {kAudio, kKey, 255, 376, 0x3139e84e789c7935ull},
    {kAudio, kKey, 256, 376, 0xb7cea843a4400251ull},
    {kAudio, kKey, 257, 376, 0xf3ea4c8d0df69704ull},
    {kAudio, kKey, 1000, 1128, 0x145951216666da0full},
    {kAudio, kKey, 70000, 71628, 0x0b8f712adb42dd5eull},
    {kScript, kKey, 0, 188, 0xbe2a56cdb7c083edull},
    {kScript, kKey, 1, 188, 0x4c3c7e170f2e6620ull},
    {kScript, kKey, 255, 376, 0xf69a80669ac6ca82ull},
    {kScript, kKey, 256, 376, 0x1374d43746f57aaaull},
    {kScript, kKey, 257, 376, 0xe095582a8483413bull},
    {kScript, kKey, 1000, 1128, 0x54ac7552e646f1d4ull},
    {kScript, kKey, 70000, 71628, 0x4d0cb53c0a9c2045ull},
};

TEST(Golden, FlvFramePayloadBytes) {
  for (const auto& g : kFlvFrames) {
    media::FlvMuxer mux;
    mux.write_frame(golden_frame(g));
    EXPECT_EQ(mux.size(), g.size)
        << static_cast<int>(g.type) << "/" << static_cast<int>(g.kind)
        << " payload " << g.payload_bytes;
    EXPECT_EQ(exp::fnv1a64(mux.span()), g.fnv)
        << static_cast<int>(g.type) << "/" << static_cast<int>(g.kind)
        << " payload " << g.payload_bytes;
  }
}

TEST(Golden, TsFramePayloadBytes) {
  for (const auto& g : kTsFrames) {
    media::TsMuxer mux;
    mux.write_frame(golden_frame(g));
    EXPECT_EQ(mux.size(), g.size)
        << static_cast<int>(g.type) << "/" << static_cast<int>(g.kind)
        << " payload " << g.payload_bytes;
    EXPECT_EQ(exp::fnv1a64(mux.span()), g.fnv)
        << static_cast<int>(g.type) << "/" << static_cast<int>(g.kind)
        << " payload " << g.payload_bytes;
  }

  // The two header shapes the hashes cover, spelled out.  Key video: the
  // first packet opens a 2-byte adaptation field with the RAI flag.
  media::TsMuxer key;
  key.write_frame({kVideo, kKey, 1000, 0});
  EXPECT_EQ(to_hex(key.span().first(10)),
            "474100"    // sync, PUSI + video PID
            "30"        // adaptation + payload, cc 0
            "0140"      // field length 1, RAI
            "000001e0"  // PES start code, video stream id
            );
  // Audio whose PES length (8 + 70000) overflows 16 bits declares 0.
  media::TsMuxer audio;
  audio.write_frame({kAudio, kKey, 70000, 0});
  EXPECT_EQ(to_hex(audio.span().first(10)),
            "47410110"  // sync, PUSI + audio PID, payload only, cc 0
            "000001c0"  // PES start code, audio stream id
            "0000");    // PES_packet_length 0
}

TEST(Golden, TsPacketHeader) {
  media::TsMuxer mux;
  media::MediaFrame f;
  f.type = media::TagType::kAudio;
  f.payload_bytes = 4;
  f.pts = 0;
  mux.write_frame(f);
  const auto bytes = mux.take();
  ASSERT_EQ(bytes.size(), media::kTsPacketSize);
  EXPECT_EQ(bytes[0], 0x47);                    // sync
  EXPECT_EQ(bytes[1] & 0x40, 0x40);             // PUSI
  const uint16_t pid =
      static_cast<uint16_t>((bytes[1] & 0x1F) << 8 | bytes[2]);
  EXPECT_EQ(pid, media::kTsPidAudio);
  EXPECT_EQ((bytes[3] >> 4) & 0x3, 0x3);        // adaptation + payload
}

}  // namespace
}  // namespace wira
