#include "media/stream_source.h"

#include <algorithm>
#include <cmath>

#include "media/mpegts.h"

namespace wira::media {

namespace {
/// Mixes (seed, stream, gop) into one RNG seed.
uint64_t mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = a ^ (b * 0x9E3779B97F4A7C15ull) ^ (c * 0xC2B2AE3D27D4EB4Full);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  return x;
}

double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}
}  // namespace

StreamProfile sample_stream_profile(Rng& rng, uint64_t stream_id) {
  StreamProfile p;
  p.stream_id = stream_id;
  // Corpus complexity: lognormal fitted to the paper's quantile anchors
  // (30% of first frames < 30 KB, 20% > 60 KB, mean ~43 KB): sigma=0.507
  // i.e. CV~0.54; clamped so first-frame sizes (with container overhead)
  // land in ~[6 KB, 250 KB].
  p.iframe_mean_bytes = clamp(rng.lognormal_mean_cv(43'000.0, 0.54),
                              5'500.0, 245'000.0);
  // Resolution class correlates loosely with complexity.
  if (p.iframe_mean_bytes > 90'000) {
    p.width = 1920; p.height = 1080;
  } else if (p.iframe_mean_bytes < 18'000) {
    p.width = 640; p.height = 360;
  }
  p.iframe_intra_cv = rng.uniform(0.20, 0.40);
  p.fps = rng.chance(0.3) ? 30.0 : 25.0;
  p.gop_frames = static_cast<uint32_t>(p.fps * rng.range(1, 4));  // 1-4 s GOP
  return p;
}

LiveStream::LiveStream(StreamProfile profile, uint64_t corpus_seed)
    : profile_(profile), corpus_seed_(corpus_seed) {}

TimeNs LiveStream::frame_interval() const {
  return static_cast<TimeNs>(1e9 / profile_.fps);
}

TimeNs LiveStream::gop_duration() const {
  return frame_interval() * profile_.gop_frames;
}

GopFrames::GopFrames(const StreamProfile& profile, uint64_t corpus_seed,
                     uint64_t k)
    : profile_(profile),
      rng_(mix(corpus_seed, profile.stream_id, k)),
      frame_interval_(static_cast<TimeNs>(1e9 / profile.fps)),
      gop_start_(static_cast<TimeNs>(k) *
                 (frame_interval_ * profile.gop_frames)),
      gop_end_(gop_start_ + frame_interval_ * profile.gop_frames),
      audio_period_(static_cast<TimeNs>(1e9 / profile.audio_tags_per_sec)),
      i_bytes_(clamp(rng_.lognormal_mean_cv(profile.iframe_mean_bytes,
                                            profile.iframe_intra_cv),
                     2'000.0, 249'000.0)),
      next_audio_(gop_start_) {}

bool GopFrames::next(MediaFrame& out) {
  out = MediaFrame{};
  const bool audio_left = next_audio_ < gop_end_;
  const TimeNs video_pts =
      gop_start_ + static_cast<TimeNs>(next_video_) * frame_interval_;
  // Audio tags interleave at their own cadence, merged by PTS with audio
  // winning ties (an audio sample "covering" a video PTS precedes it).
  if (next_video_ < profile_.gop_frames &&
      (!audio_left || video_pts < next_audio_)) {
    out.type = TagType::kVideo;
    out.pts = video_pts;
    if (next_video_ == 0) {
      out.video_kind = VideoKind::kKey;
      out.payload_bytes = static_cast<uint32_t>(i_bytes_);
    } else if (since_p_ >= profile_.bs_per_p) {
      out.video_kind = VideoKind::kInter;
      out.payload_bytes = static_cast<uint32_t>(clamp(
          i_bytes_ * profile_.p_over_i * rng_.lognormal_mean_cv(1.0, 0.25),
          400.0, 200'000.0));
      since_p_ = 0;
    } else {
      out.video_kind = VideoKind::kDisposable;
      out.payload_bytes = static_cast<uint32_t>(clamp(
          i_bytes_ * profile_.b_over_i * rng_.lognormal_mean_cv(1.0, 0.25),
          200.0, 150'000.0));
      since_p_++;
    }
    next_video_++;
    return true;
  }
  if (!audio_left) return false;
  out.type = TagType::kAudio;
  out.pts = next_audio_;
  out.payload_bytes = profile_.audio_payload_bytes;
  next_audio_ += audio_period_;
  return true;
}

std::vector<MediaFrame> LiveStream::gop(uint64_t k) const {
  std::vector<MediaFrame> out;
  GopFrames frames = gop_frames(k);
  MediaFrame f;
  while (frames.next(f)) out.push_back(f);
  return out;
}

std::vector<uint8_t> LiveStream::metadata_prefix(util::BufferPool* pool,
                                                 size_t tail_bytes) const {
  // Either prelude fits in 512 bytes (TS PSI is 376, the FLV header and
  // onMetaData tag ~250), so the muxer never grows the buffer.
  std::vector<uint8_t> buf;
  if (pool) {
    buf = pool->acquire(512 + tail_bytes);
  } else {
    buf.reserve(512 + tail_bytes);
  }
  if (profile_.container == Container::kMpegTs) {
    TsMuxer mux(std::move(buf));
    mux.write_psi();
    return mux.take();
  }
  FlvMuxer mux(std::move(buf));
  mux.write_header();
  // Keys in ascending order: the byte order of the AMF0 map encoding.
  mux.write_metadata(0, {
      {"audiodatarate", 128.0},
      {"framerate", profile_.fps},
      {"height", static_cast<double>(profile_.height)},
      {"videodatarate",
       profile_.iframe_mean_bytes * 8.0 * profile_.fps / 8'000.0 / 10.0},
      {"width", static_cast<double>(profile_.width)},
  });
  return mux.take();
}

StreamChunk LiveStream::mux_frame(const MediaFrame& f,
                                  util::BufferPool* pool) const {
  StreamChunk c;
  c.pts = f.pts;
  c.type = f.type;
  c.video_kind = f.video_kind;
  const bool ts = profile_.container == Container::kMpegTs;
  std::vector<uint8_t> buf =
      pool ? pool->acquire(ts ? ts_frame_wire_size(f)
                              : flv_tag_wire_size(f.payload_bytes))
           : std::vector<uint8_t>();
  if (ts) {
    TsMuxer mux(std::move(buf));
    mux.write_frame(f);
    c.bytes = mux.take();
  } else {
    FlvMuxer mux(std::move(buf));
    mux.write_frame(f);
    c.bytes = mux.take();
  }
  return c;
}

void LiveStream::join_chunks(TimeNs join_time, std::vector<StreamChunk>& out,
                             util::BufferPool* pool) const {
  out.clear();
  const uint64_t k = static_cast<uint64_t>(
      std::max<TimeNs>(join_time, 0) / gop_duration());
  bool first = true;
  GopFrames frames = gop_frames(k);
  MediaFrame f;
  while (frames.next(f)) {
    if (f.pts > join_time) break;
    StreamChunk c = mux_frame(f, pool);
    if (first) {
      auto prefix = metadata_prefix(pool, c.bytes.size());
      prefix.insert(prefix.end(), c.bytes.begin(), c.bytes.end());
      if (pool) pool->release(std::move(c.bytes));
      c.bytes = std::move(prefix);
      first = false;
    }
    out.push_back(std::move(c));
  }
  if (first) {
    // Join landed before the GOP's first frame PTS: send header alone.
    StreamChunk c;
    c.pts = join_time;
    c.bytes = metadata_prefix(pool, 0);
    c.type = TagType::kScript;
    out.push_back(std::move(c));
  }
}

std::vector<StreamChunk> LiveStream::join_chunks(TimeNs join_time) const {
  std::vector<StreamChunk> out;
  join_chunks(join_time, out, nullptr);
  return out;
}

void LiveStream::chunks_between(TimeNs t0, TimeNs t1,
                                std::vector<StreamChunk>& out,
                                util::BufferPool* pool) const {
  out.clear();
  if (t1 <= t0) return;
  const uint64_t k0 = static_cast<uint64_t>(std::max<TimeNs>(t0, 0) /
                                            gop_duration());
  const uint64_t k1 = static_cast<uint64_t>(std::max<TimeNs>(t1, 0) /
                                            gop_duration());
  MediaFrame f;
  for (uint64_t k = k0; k <= k1; ++k) {
    GopFrames frames = gop_frames(k);
    while (frames.next(f)) {
      if (f.pts > t0 && f.pts <= t1) out.push_back(mux_frame(f, pool));
    }
  }
}

std::vector<StreamChunk> LiveStream::chunks_between(TimeNs t0,
                                                    TimeNs t1) const {
  std::vector<StreamChunk> out;
  chunks_between(t0, t1, out, nullptr);
  return out;
}

uint64_t LiveStream::first_frame_size(TimeNs join_time,
                                      uint32_t theta_vf) const {
  // Count: container prelude + every frame up to the first-frame boundary,
  // starting from the join burst and continuing into the live tail.
  const bool ts = profile_.container == Container::kMpegTs;
  uint64_t size = metadata_prefix(nullptr, 0).size();
  uint32_t videos = 0;
  const uint64_t k = static_cast<uint64_t>(
      std::max<TimeNs>(join_time, 0) / gop_duration());
  MediaFrame f;
  for (uint64_t g = k; g < k + 4; ++g) {  // first frame spans < 4 GOPs
    GopFrames frames = gop_frames(g);
    while (frames.next(f)) {
      if (ts && f.type == TagType::kVideo && videos == theta_vf) {
        // TS boundary rule: the first frame ends where the next video
        // access unit starts.
        return size;
      }
      size += ts ? ts_frame_wire_size(f)
                 : flv_tag_wire_size(f.payload_bytes);
      if (f.type == TagType::kVideo) {
        ++videos;
        if (!ts && videos == theta_vf) return size;
      }
    }
  }
  return size;
}

}  // namespace wira::media
