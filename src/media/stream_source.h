// Synthetic live-stream source.
//
// Stand-in for the production live corpus behind Fig. 1: each stream has a
// latent "complexity" (base I-frame size) drawn from a heavy-tailed corpus
// distribution calibrated so the resulting first-frame sizes match the
// paper's measurements (mean 43.1 KB, p30 < 30 KB, p80 > 60 KB, range
// ~6-250 KB), plus per-GOP variation reproducing the intra-stream spread of
// Fig. 1(b).
//
// Generation is deterministic: GOP k of stream s depends only on
// (corpus_seed, s, k), so origin and tests agree without shared state.
#pragma once

#include <cstdint>
#include <vector>

#include "media/flv.h"
#include "media/frame.h"
#include "util/buffer_pool.h"
#include "util/rng.h"
#include "util/units.h"

namespace wira::media {

/// Container format a live stream is delivered in.
enum class Container {
  kFlv,     ///< HTTP-FLV (the paper's deployment)
  kMpegTs,  ///< HLS-style MPEG transport stream
};

struct StreamProfile {
  uint64_t stream_id = 0;
  Container container = Container::kFlv;
  double fps = 25.0;
  uint32_t gop_frames = 50;            ///< 2 s GOP at 25 fps
  double iframe_mean_bytes = 43'000;   ///< per-stream base complexity
  double iframe_intra_cv = 0.30;       ///< GOP-to-GOP variation (Fig. 1b)
  double p_over_i = 0.22;              ///< P-frame size relative to I
  double b_over_i = 0.10;              ///< B-frame size relative to I
  uint32_t bs_per_p = 2;               ///< GOP pattern I (P B B)*
  uint32_t audio_payload_bytes = 330;  ///< AAC tag body size
  double audio_tags_per_sec = 43.0;
  uint32_t width = 1280, height = 720;
};

/// Draws a stream profile from the corpus distribution (Fig. 1a shape).
StreamProfile sample_stream_profile(Rng& rng, uint64_t stream_id);

/// A muxed per-frame chunk ready for transmission: one frame in the
/// stream's container, i.e. one FLV tag plus its trailing PreviousTagSize,
/// or one PES packet cut into 188-byte TS packets.  The very first chunk of
/// a session additionally carries the container prelude: the FLV header
/// and onMetaData script tag, or the TS PAT + PMT.
struct StreamChunk {
  TimeNs pts = 0;
  std::vector<uint8_t> bytes;
  TagType type = TagType::kVideo;
  VideoKind video_kind = VideoKind::kKey;
};

class LiveStream {
 public:
  LiveStream(StreamProfile profile, uint64_t corpus_seed);

  const StreamProfile& profile() const { return profile_; }
  TimeNs gop_duration() const;
  TimeNs frame_interval() const;

  /// Media frames (video + audio, PTS order) of GOP `k`.
  std::vector<MediaFrame> gop(uint64_t k) const;

  /// The bytes a client joining at `join_time` receives immediately:
  /// FLV header + onMetaData + every frame of the enclosing GOP with
  /// pts <= join_time.  The first chunk starts with the FLV header.
  std::vector<StreamChunk> join_chunks(TimeNs join_time) const;

  /// Frames with pts in (t0, t1], muxed one tag per chunk — the "live tail"
  /// the origin produces after the join burst.
  std::vector<StreamChunk> chunks_between(TimeNs t0, TimeNs t1) const;

  /// Allocation-recycling variants (the per-session hot path): chunks are
  /// rebuilt into `out` (cleared first, capacity retained across calls)
  /// and chunk byte buffers are drawn from `pool` when non-null.  The
  /// consumer returns each chunk's bytes to the same pool once sent —
  /// util::BufferPool tolerates foreign buffers, so ownership stays
  /// simple.  Output is byte-identical to the vector-returning overloads.
  void join_chunks(TimeNs join_time, std::vector<StreamChunk>& out,
                   util::BufferPool* pool) const;
  void chunks_between(TimeNs t0, TimeNs t1, std::vector<StreamChunk>& out,
                      util::BufferPool* pool) const;

  /// Ground-truth first-frame size for a join at `join_time`, i.e. what
  /// Algorithm 1 should report.  FLV: header + metadata + tags up to and
  /// including the `theta_vf`-th video frame (with PreviousTagSize
  /// fields).  MPEG-TS: PSI + packetized frames up to but *excluding* the
  /// (theta_vf+1)-th video frame — a TS access unit's end is only
  /// detectable when the next unit starts.
  uint64_t first_frame_size(TimeNs join_time, uint32_t theta_vf = 1) const;

 private:
  // FLV header / TS PSI, muxed into a pool buffer when one is available.
  std::vector<uint8_t> metadata_prefix(util::BufferPool* pool) const;
  StreamChunk mux_frame(const MediaFrame& f, util::BufferPool* pool) const;

  StreamProfile profile_;
  uint64_t corpus_seed_;
};

}  // namespace wira::media
