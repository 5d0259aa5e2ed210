// Unit tests for the media substrate: AMF0, FLV mux/demux, and the
// calibrated live-stream generator.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/record_codec.h"
#include "media/amf0.h"
#include "media/flv.h"
#include "media/stream_source.h"
#include "util/buffer_pool.h"
#include "util/rng.h"
#include "util/stats.h"

namespace wira::media {
namespace {

TEST(Amf0, MetadataRoundTrip) {
  std::map<std::string, Amf0Value> props{
      {"width", 1280.0},
      {"stereo", true},
      {"encoder", std::string("wira")},
  };
  const auto bytes = amf0_encode_metadata("onMetaData", props);
  auto out = amf0_decode_metadata(bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->name, "onMetaData");
  EXPECT_EQ(std::get<double>(out->props.at("width")), 1280.0);
  EXPECT_EQ(std::get<bool>(out->props.at("stereo")), true);
  EXPECT_EQ(std::get<std::string>(out->props.at("encoder")), "wira");
}

TEST(Amf0, NumericWriterMatchesMapEncoder) {
  // The in-place writer must emit what the map encoder does for the same
  // (ascending) keys, so FLV muxing stays byte-identical.
  const Amf0Number props[] = {
      {"audiodatarate", 128.0}, {"framerate", 25.0}, {"height", 720.0}};
  ByteWriter w;
  amf0_write_numeric_metadata(w, "onMetaData", props);
  EXPECT_EQ(w.size(), amf0_numeric_metadata_size("onMetaData", props));
  EXPECT_EQ(w.take(), amf0_encode_metadata("onMetaData",
                                           {{"audiodatarate", 128.0},
                                            {"framerate", 25.0},
                                            {"height", 720.0}}));
}

TEST(Amf0, TruncatedRejected) {
  const auto bytes = amf0_encode_metadata("onMetaData", {{"x", 1.0}});
  for (size_t keep = 0; keep + 1 < bytes.size(); ++keep) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(amf0_decode_metadata(cut).has_value());
  }
}

TEST(Flv, HeaderLayout) {
  FlvMuxer mux;
  mux.write_header();
  const auto& b = mux.span();
  ASSERT_EQ(b.size(), kFlvHeaderSize + kFlvPreviousTagSize);
  EXPECT_EQ(b[0], 'F');
  EXPECT_EQ(b[1], 'L');
  EXPECT_EQ(b[2], 'V');
  EXPECT_EQ(b[3], 1);     // version
  EXPECT_EQ(b[4], 0x05);  // audio + video
}

TEST(Flv, MuxDemuxRoundTrip) {
  FlvMuxer mux;
  mux.write_header();
  mux.write_metadata(0, {{"width", 640.0}});
  MediaFrame audio{TagType::kAudio, VideoKind::kKey, 330, milliseconds(10)};
  MediaFrame video{TagType::kVideo, VideoKind::kKey, 40'000,
                   milliseconds(40)};
  mux.write_frame(audio);
  mux.write_frame(video);
  const auto bytes = mux.take();

  std::vector<FlvTag> tags;
  FlvDemuxer demux([&](const FlvTag& t) { tags.push_back(t); });
  EXPECT_TRUE(demux.feed(bytes));
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0].type, TagType::kScript);
  EXPECT_EQ(tags[1].type, TagType::kAudio);
  EXPECT_EQ(tags[1].body.size(), 330u);
  EXPECT_EQ(tags[2].type, TagType::kVideo);
  EXPECT_EQ(tags[2].video_kind(), VideoKind::kKey);
  EXPECT_EQ(tags[2].timestamp_ms, 40u);
  EXPECT_EQ(demux.bytes_consumed(), bytes.size());
}

TEST(Flv, ByteAtATimeFeeding) {
  FlvMuxer mux;
  mux.write_header();
  mux.write_frame({TagType::kVideo, VideoKind::kKey, 5000, 0});
  const auto bytes = mux.take();

  size_t tags = 0;
  FlvDemuxer demux([&](const FlvTag&) { tags++; });
  for (uint8_t b : bytes) {
    ASSERT_TRUE(demux.feed(std::span<const uint8_t>(&b, 1)));
  }
  EXPECT_EQ(tags, 1u);
}

TEST(Flv, MalformedSignatureFails) {
  const uint8_t junk[] = {'M', 'P', '4', 0, 0, 0, 0, 0, 0};
  FlvDemuxer demux([](const FlvTag&) {});
  EXPECT_FALSE(demux.feed(std::span<const uint8_t>(junk, sizeof(junk))));
  EXPECT_TRUE(demux.failed());
}

TEST(Flv, BadTagTypeFails) {
  FlvMuxer mux;
  mux.write_header();
  auto bytes = mux.take();
  bytes.push_back(0x55);  // invalid tag type after PreviousTagSize0
  for (int i = 0; i < 10; ++i) bytes.push_back(0);
  FlvDemuxer demux([](const FlvTag&) {});
  EXPECT_FALSE(demux.feed(bytes));
}

TEST(Flv, ExtendedTimestamp) {
  FlvMuxer mux;
  mux.write_header();
  // 2^24 ms overflows the 24-bit field into the extension byte.
  const TimeNs big = milliseconds(20'000'000);
  mux.write_frame({TagType::kVideo, VideoKind::kInter, 100, big});
  std::vector<FlvTag> tags;
  FlvDemuxer demux([&](const FlvTag& t) { tags.push_back(t); });
  EXPECT_TRUE(demux.feed(mux.take()));
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].timestamp_ms, 20'000'000u);
}

TEST(StreamSource, GopIsDeterministic) {
  StreamProfile p;
  p.stream_id = 9;
  LiveStream a(p, 42), b(p, 42);
  const auto ga = a.gop(3), gb = b.gop(3);
  ASSERT_EQ(ga.size(), gb.size());
  for (size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(ga[i].payload_bytes, gb[i].payload_bytes);
    EXPECT_EQ(ga[i].pts, gb[i].pts);
  }
}

TEST(StreamSource, GopStructure) {
  StreamProfile p;
  p.gop_frames = 25;
  p.fps = 25;
  LiveStream s(p, 1);
  const auto g = s.gop(0);
  uint32_t videos = 0, keys = 0, audios = 0;
  for (const auto& f : g) {
    if (f.type == TagType::kVideo) {
      videos++;
      if (f.video_kind == VideoKind::kKey) keys++;
    } else if (f.type == TagType::kAudio) {
      audios++;
    }
  }
  EXPECT_EQ(videos, 25u);
  EXPECT_EQ(keys, 1u);  // exactly one I frame per GOP
  EXPECT_NEAR(audios, 43u, 2u);
  // First video frame of a GOP is the key frame.
  auto first_video = std::find_if(g.begin(), g.end(), [](const MediaFrame& f) {
    return f.type == TagType::kVideo;
  });
  ASSERT_NE(first_video, g.end());
  EXPECT_EQ(first_video->video_kind, VideoKind::kKey);
}

TEST(StreamSource, PtsMonotoneWithinGop) {
  StreamProfile p;
  LiveStream s(p, 7);
  TimeNs prev = -1;
  for (const auto& f : s.gop(5)) {
    EXPECT_GE(f.pts, prev);
    prev = f.pts;
  }
}

TEST(StreamSource, JoinChunksStartWithFlvHeader) {
  StreamProfile p;
  LiveStream s(p, 1);
  const auto chunks = s.join_chunks(s.gop_duration() * 3 + milliseconds(500));
  ASSERT_FALSE(chunks.empty());
  ASSERT_GE(chunks[0].bytes.size(), 3u);
  EXPECT_EQ(chunks[0].bytes[0], 'F');
  EXPECT_EQ(chunks[0].bytes[1], 'L');
  EXPECT_EQ(chunks[0].bytes[2], 'V');
}

TEST(StreamSource, JoinPlusTailIsValidFlvStream) {
  StreamProfile p;
  LiveStream s(p, 3);
  const TimeNs join = s.gop_duration() + milliseconds(777);
  std::vector<uint8_t> all;
  for (const auto& c : s.join_chunks(join)) {
    all.insert(all.end(), c.bytes.begin(), c.bytes.end());
  }
  for (const auto& c : s.chunks_between(join, join + seconds(2))) {
    all.insert(all.end(), c.bytes.begin(), c.bytes.end());
  }
  size_t videos = 0;
  FlvDemuxer demux([&](const FlvTag& t) {
    if (t.type == TagType::kVideo) videos++;
  });
  EXPECT_TRUE(demux.feed(all));
  EXPECT_GT(videos, 25u);  // burst + ~2 s of live frames
}

// The demuxer parses from a read offset and keeps only the unparsed tail,
// so how the stream is split into feed() calls must not show: one call,
// one byte per call and seeded random splits yield the same tags and the
// same bytes_consumed().
TEST(Flv, FeedSplitDoesNotChangeTags) {
  StreamProfile p;
  LiveStream s(p, 5);
  const TimeNs join = s.gop_duration() + milliseconds(321);
  std::vector<uint8_t> all;
  for (const auto& c : s.join_chunks(join)) {
    all.insert(all.end(), c.bytes.begin(), c.bytes.end());
  }
  for (const auto& c : s.chunks_between(join, join + seconds(1))) {
    all.insert(all.end(), c.bytes.begin(), c.bytes.end());
  }
  struct Result {
    std::vector<FlvTag> tags;
    uint64_t consumed = 0;
  };
  // Feeds `all` in pieces of split() bytes; the last tag is left
  // incomplete, so the demuxer ends holding a partial tail.
  const size_t fed = all.size() - 7;
  auto demux_split = [&](auto split) {
    Result r;
    FlvDemuxer demux([&r](const FlvTag& t) { r.tags.push_back(t); });
    for (size_t at = 0; at < fed;) {
      const size_t n = std::min(split(), fed - at);
      EXPECT_TRUE(demux.feed(std::span<const uint8_t>(all).subspan(at, n)));
      at += n;
    }
    r.consumed = demux.bytes_consumed();
    return r;
  };
  const Result whole = demux_split([&] { return fed; });
  ASSERT_GT(whole.tags.size(), 25u);
  EXPECT_LT(whole.consumed, fed);  // a partial tag is still pending
  Rng rng(77);
  for (const Result& r :
       {demux_split([] { return size_t{1}; }),
        demux_split([&] { return size_t{1 + rng.below(3000)}; })}) {
    EXPECT_EQ(r.consumed, whole.consumed);
    ASSERT_EQ(r.tags.size(), whole.tags.size());
    for (size_t i = 0; i < r.tags.size(); ++i) {
      EXPECT_EQ(r.tags[i].type, whole.tags[i].type) << i;
      EXPECT_EQ(r.tags[i].data_size, whole.tags[i].data_size) << i;
      EXPECT_EQ(r.tags[i].timestamp_ms, whole.tags[i].timestamp_ms) << i;
      EXPECT_EQ(r.tags[i].body, whole.tags[i].body) << i;
    }
  }
}

TEST(StreamSource, FirstFrameSizeMatchesDemuxedPrefix) {
  StreamProfile p;
  LiveStream s(p, 11);
  const TimeNs join = milliseconds(200);
  const uint64_t expected = s.first_frame_size(join, 1);

  // Demux the join burst and count bytes up to the end of video tag 1.
  std::vector<uint8_t> all;
  for (const auto& c : s.join_chunks(join)) {
    all.insert(all.end(), c.bytes.begin(), c.bytes.end());
  }
  uint64_t measured = 0, videos = 0;
  FlvDemuxer demux([&](const FlvTag& t) {
    if (videos >= 1) return;
    if (t.type == TagType::kVideo) {
      videos++;
      measured = demux.bytes_consumed() + kFlvPreviousTagSize;
    }
  });
  ASSERT_TRUE(demux.feed(all));
  EXPECT_EQ(expected, measured);
}

TEST(StreamSource, MuxedCorpusHashIsPinned) {
  // Every byte a session sends: the join burst plus 1 s of live tail for
  // 12 sampled streams per container, muxed through a recycled buffer
  // pool as the session runner does.  Pinned so a muxer rewrite must be
  // byte-identical over real frame mixes, not only the golden frames.
  struct Pin {
    Container container;
    uint64_t bytes;
    uint64_t fnv;
  };
  const Pin pins[] = {{Container::kFlv, 5'463'557, 0x7f28400c8bafa4cfull},
                      {Container::kMpegTs, 5'590'744, 0x83c37dd69aeebdd5ull}};
  for (const Pin& pin : pins) {
    Rng rng(pin.container == Container::kFlv ? 7 : 8);
    util::BufferPool pool;
    std::vector<StreamChunk> chunks;
    std::vector<uint8_t> all;
    auto drain = [&] {
      for (StreamChunk& c : chunks) {
        all.insert(all.end(), c.bytes.begin(), c.bytes.end());
        pool.release(std::move(c.bytes));
      }
    };
    for (uint64_t id = 0; id < 12; ++id) {
      StreamProfile p = sample_stream_profile(rng, id);
      p.container = pin.container;
      LiveStream s(p, 42);
      const TimeNs join =
          seconds(static_cast<int64_t>(rng.uniform(0, 20))) +
          milliseconds(333);
      s.join_chunks(join, chunks, &pool);
      drain();
      s.chunks_between(join, join + seconds(1), chunks, &pool);
      drain();
    }
    EXPECT_EQ(all.size(), pin.bytes) << static_cast<int>(pin.container);
    EXPECT_EQ(exp::fnv1a64(all), pin.fnv) << static_cast<int>(pin.container);
  }
}

TEST(StreamSource, CorpusCalibrationMatchesFig1) {
  // First-frame sizes across the corpus: mean ~43.1 KB, p30 < 30 KB,
  // p80 > 60 KB, range within [6, 250] KB (paper §II-A).
  Rng rng(2024);
  Samples ff_kb;
  for (int i = 0; i < 4000; ++i) {
    StreamProfile p = sample_stream_profile(rng, i);
    LiveStream s(p, 99);
    ff_kb.add(static_cast<double>(s.first_frame_size(0, 1)) / 1000.0);
  }
  EXPECT_NEAR(ff_kb.mean(), 43.1, 5.0);
  EXPECT_LT(ff_kb.percentile(30), 30.0);
  EXPECT_GT(ff_kb.percentile(80), 60.0);
  EXPECT_GT(ff_kb.min(), 2.0);
  EXPECT_LT(ff_kb.max(), 260.0);
}

TEST(StreamSource, IntraStreamVariationExists) {
  // Fig. 1(b): the same stream's FF_Size changes across viewing times.
  StreamProfile p;
  p.iframe_mean_bytes = 75'000;
  p.iframe_intra_cv = 0.3;
  LiveStream s(p, 5);
  Samples sizes;
  for (int k = 0; k < 40; ++k) {
    sizes.add(static_cast<double>(
        s.first_frame_size(k * s.gop_duration(), 1)));
  }
  EXPECT_GT(sizes.cv(), 0.1);
  EXPECT_GT(sizes.max() / sizes.min(), 1.5);
}

TEST(StreamSource, ThetaVfGrowsFirstFrame) {
  StreamProfile p;
  LiveStream s(p, 1);
  const uint64_t t1 = s.first_frame_size(0, 1);
  const uint64_t t3 = s.first_frame_size(0, 3);
  const uint64_t t5 = s.first_frame_size(0, 5);
  EXPECT_LT(t1, t3);
  EXPECT_LT(t3, t5);
}

}  // namespace
}  // namespace wira::media
