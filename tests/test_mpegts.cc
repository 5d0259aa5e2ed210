// Unit and integration tests for the MPEG-TS substrate and its Frame
// Perception support (the HLS-TS member of PtlSet).
#include "media/mpegts.h"

#include <gtest/gtest.h>

#include "core/frame_parser.h"
#include "exp/session_runner.h"
#include "media/stream_source.h"

namespace wira::media {
namespace {

std::vector<uint8_t> ts_join_bytes(const LiveStream& s, TimeNs join,
                                   TimeNs tail = seconds(2)) {
  std::vector<uint8_t> all;
  for (const auto& c : s.join_chunks(join)) {
    all.insert(all.end(), c.bytes.begin(), c.bytes.end());
  }
  for (const auto& c : s.chunks_between(join, join + tail)) {
    all.insert(all.end(), c.bytes.begin(), c.bytes.end());
  }
  return all;
}

StreamProfile ts_profile(uint64_t id = 1) {
  StreamProfile p;
  p.stream_id = id;
  p.container = Container::kMpegTs;
  p.iframe_mean_bytes = 45'000;
  return p;
}

TEST(TsMuxer, PacketsAre188BytesWithSync) {
  TsMuxer mux;
  mux.write_psi();
  mux.write_frame({TagType::kVideo, VideoKind::kKey, 10'000, 0});
  const auto bytes = mux.take();
  ASSERT_EQ(bytes.size() % kTsPacketSize, 0u);
  for (size_t i = 0; i < bytes.size(); i += kTsPacketSize) {
    EXPECT_EQ(bytes[i], kTsSyncByte) << "packet " << i / kTsPacketSize;
  }
}

TEST(TsMuxer, WireSizeHelperMatchesActual) {
  for (uint32_t payload : {100u, 500u, 5'000u, 66'000u, 200'000u}) {
    for (auto kind : {VideoKind::kKey, VideoKind::kInter}) {
      MediaFrame f{TagType::kVideo, kind, payload, milliseconds(40)};
      TsMuxer mux;
      mux.write_frame(f);
      EXPECT_EQ(mux.size(), ts_frame_wire_size(f))
          << payload << " " << static_cast<int>(kind);
    }
  }
  MediaFrame audio{TagType::kAudio, VideoKind::kKey, 330, 0};
  TsMuxer mux;
  mux.write_frame(audio);
  EXPECT_EQ(mux.size(), ts_frame_wire_size(audio));
}

TEST(TsDemuxer, PmtAnnouncesPids) {
  TsMuxer mux;
  mux.write_psi();
  TsDemuxer demux([](const TsPesUnit&) {});
  ASSERT_TRUE(demux.feed(mux.take()));
  ASSERT_TRUE(demux.video_pid().has_value());
  ASSERT_TRUE(demux.audio_pid().has_value());
  EXPECT_EQ(*demux.video_pid(), kTsPidVideo);
  EXPECT_EQ(*demux.audio_pid(), kTsPidAudio);
}

TEST(TsDemuxer, PesRoundTrip) {
  TsMuxer mux;
  mux.write_psi();
  mux.write_frame({TagType::kVideo, VideoKind::kKey, 20'000,
                   milliseconds(500)});
  mux.write_frame({TagType::kAudio, VideoKind::kKey, 330,
                   milliseconds(510)});
  mux.write_frame({TagType::kVideo, VideoKind::kInter, 4'000,
                   milliseconds(540)});
  // A trailing frame forces emission of the (length-0) video PES before it.
  mux.write_frame({TagType::kVideo, VideoKind::kInter, 100,
                   milliseconds(580)});
  const auto bytes = mux.take();

  // A unit's payload borrows the demuxer's buffer for the callback only,
  // so the kept copies drop it and record its size.
  std::vector<TsPesUnit> units;
  std::vector<size_t> payload_sizes;
  TsDemuxer demux([&](const TsPesUnit& u) {
    units.push_back(u);
    units.back().payload = {};
    payload_sizes.push_back(u.payload.size());
  });
  ASSERT_TRUE(demux.feed(bytes));
  demux.flush();
  ASSERT_EQ(units.size(), 4u);
  // Audio (declared length) completes as soon as its bytes are in; video
  // units complete when the next unit starts on the video PID.
  EXPECT_EQ(units[0].pid, kTsPidAudio);
  EXPECT_EQ(payload_sizes[0], 330u);

  size_t key = units.size();
  for (size_t i = 0; i < units.size(); ++i) {
    if (units[i].pid == kTsPidVideo && units[i].random_access) key = i;
  }
  ASSERT_LT(key, units.size());
  EXPECT_EQ(payload_sizes[key], 20'000u);
  ASSERT_TRUE(units[key].pts.has_value());
  EXPECT_NEAR(to_ms(*units[key].pts), 500.0, 0.1);
}

TEST(TsDemuxer, ByteAtATime) {
  TsMuxer mux;
  mux.write_psi();
  mux.write_frame({TagType::kVideo, VideoKind::kKey, 5'000, 0});
  mux.write_frame({TagType::kVideo, VideoKind::kInter, 500,
                   milliseconds(40)});
  const auto bytes = mux.take();
  size_t units = 0;
  TsDemuxer demux([&](const TsPesUnit&) { units++; });
  for (uint8_t b : bytes) {
    ASSERT_TRUE(demux.feed(std::span<const uint8_t>(&b, 1)));
  }
  demux.flush();
  EXPECT_EQ(units, 2u);
}

TEST(TsDemuxer, LostSyncFails) {
  std::vector<uint8_t> junk(kTsPacketSize, 0x00);
  TsDemuxer demux([](const TsPesUnit&) {});
  EXPECT_FALSE(demux.feed(junk));
  EXPECT_TRUE(demux.failed());
}

TEST(TsStream, JoinChunksStartWithPsi) {
  LiveStream s(ts_profile(), 5);
  const auto chunks = s.join_chunks(milliseconds(300));
  ASSERT_FALSE(chunks.empty());
  ASSERT_GE(chunks[0].bytes.size(), kTsPsiSize);
  EXPECT_EQ(chunks[0].bytes[0], kTsSyncByte);
  EXPECT_EQ(chunks[0].bytes[kTsPacketSize], kTsSyncByte);
}

TEST(TsStream, WholeStreamDemuxes) {
  LiveStream s(ts_profile(3), 9);
  const auto bytes = ts_join_bytes(s, s.gop_duration() + milliseconds(700));
  size_t video_units = 0;
  TsDemuxer demux([&](const TsPesUnit& u) {
    if (u.pid == kTsPidVideo) video_units++;
  });
  ASSERT_TRUE(demux.feed(bytes));
  EXPECT_GT(video_units, 25u);
}

TEST(TsFrameParser, SniffsMpegTs) {
  LiveStream s(ts_profile(), 5);
  core::FrameParser parser;
  parser.feed(ts_join_bytes(s, 0, milliseconds(200)));
  EXPECT_EQ(parser.protocol(), core::ProtocolType::kMpegTs);
  EXPECT_FALSE(parser.failed());
}

class TsTheta : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TsTheta, FfSizeMatchesGroundTruth) {
  const uint32_t theta = GetParam();
  LiveStream s(ts_profile(11), 21);
  const TimeNs join = milliseconds(160);
  core::FrameParser parser(core::FrameParser::Config{.theta_vf = theta});
  auto ff = parser.feed(ts_join_bytes(s, join, seconds(3)));
  ASSERT_TRUE(ff.has_value());
  EXPECT_EQ(*ff, s.first_frame_size(join, theta));
  EXPECT_EQ(parser.video_frames_seen(), theta);
}

INSTANTIATE_TEST_SUITE_P(PlaybackConditions, TsTheta,
                         ::testing::Values(1u, 2u, 3u, 5u));

TEST(TsFrameParser, IncrementalFeedMatchesWhole) {
  LiveStream s(ts_profile(2), 4);
  const auto bytes = ts_join_bytes(s, 0);
  core::FrameParser whole;
  const auto expected = whole.feed(bytes);
  ASSERT_TRUE(expected.has_value());

  core::FrameParser dribble;
  std::optional<uint64_t> got;
  for (size_t i = 0; i < bytes.size(); i += 61) {  // awkward chunking
    const size_t n = std::min<size_t>(61, bytes.size() - i);
    if (auto r = dribble.feed({bytes.data() + i, n})) got = r;
  }
  EXPECT_EQ(got, expected);
}

TEST(TsFrameParser, BuffersAtMostOneCell) {
  LiveStream s(ts_profile(2), 4);
  const auto bytes = ts_join_bytes(s, 0, milliseconds(500));
  core::FrameParser parser;
  size_t max_buffered = 0;
  for (size_t i = 0; i < bytes.size(); i += 17) {
    const size_t n = std::min<size_t>(17, bytes.size() - i);
    parser.feed({bytes.data() + i, n});
    max_buffered = std::max(max_buffered, parser.bytes_buffered());
  }
  EXPECT_LE(max_buffered, kTsPacketSize);
}

TEST(TsSession, EndToEndOverTsContainer) {
  exp::SessionConfig cfg;
  cfg.path.bandwidth = mbps(20);
  cfg.path.rtt = milliseconds(40);
  cfg.path.loss_rate = 0.0;
  cfg.path.buffer_bytes = 128 * 1024;
  cfg.stream = ts_profile(1);
  cfg.scheme = core::Scheme::kWira;
  core::HxQosRecord cookie;
  cookie.min_rtt = milliseconds(40);
  cookie.max_bw = mbps(20);
  cookie.server_timestamp = 0;
  cfg.cookie = cookie;
  cfg.start_time = minutes(2);
  cfg.seed = 7;

  const auto r = exp::run_session(cfg);
  ASSERT_TRUE(r.first_frame_completed);
  EXPECT_GT(r.ff_size, 30'000u);
  EXPECT_TRUE(r.init.used_ff_size);
  EXPECT_TRUE(r.init.used_hx_qos);
  EXPECT_LT(to_ms(r.ffct), 1000.0);
}

TEST(TsSession, WiraBeatsUndersizedWindowOnTs) {
  // Same sanity as Fig. 2(a), but over the TS container: an init_cwnd far
  // below FF_Size costs extra RTTs.
  exp::ManualInitConfig small;
  small.stream = ts_profile(1);
  small.path.loss_rate = 0;
  small.init_cwnd_bytes = 4 * 1460;
  small.init_pacing = mbps(8);
  exp::ManualInitConfig adapted = small;
  adapted.init_cwnd_bytes = 60'000;
  const auto r_small = exp::run_manual_init_session(small);
  const auto r_adapted = exp::run_manual_init_session(adapted);
  ASSERT_TRUE(r_small.first_frame_completed);
  ASSERT_TRUE(r_adapted.first_frame_completed);
  EXPECT_GT(r_small.ffct, r_adapted.ffct);
}

}  // namespace
}  // namespace wira::media
