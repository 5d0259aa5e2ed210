// MPEG transport stream (ISO 13818-1) muxer/demuxer — the container
// behind HLS segments.  Implemented so Frame Perception can parse
// HLS-TS live streams in addition to HTTP-FLV (the paper's PtlSet lists
// FLV, HLS and RTMP; its prototype parses FLV).
//
// Supported subset: 188-byte packets, PAT/PMT (single program), PES with
// PTS, adaptation-field stuffing, continuity counters, random-access
// indicator on key frames.  No PCR jitter modelling, no scrambling.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "media/frame.h"
#include "util/bytes.h"

namespace wira::media {

inline constexpr size_t kTsPacketSize = 188;
inline constexpr uint8_t kTsSyncByte = 0x47;
inline constexpr uint16_t kTsPidPat = 0x0000;
inline constexpr uint16_t kTsPidPmt = 0x1000;
inline constexpr uint16_t kTsPidVideo = 0x0100;
inline constexpr uint16_t kTsPidAudio = 0x0101;

/// On-wire size of one frame once TS-packetized by TsMuxer (PES header +
/// payload, sliced into stuffed 188-byte packets).
size_t ts_frame_wire_size(const MediaFrame& frame);

/// On-wire size of the PSI prelude (PAT + PMT packets).
inline constexpr size_t kTsPsiSize = 2 * kTsPacketSize;

/// Serializes media frames into a TS byte stream.
class TsMuxer {
 public:
  TsMuxer() = default;
  /// Muxes into a recycled buffer (cleared, capacity kept) — pairs with
  /// take() for allocation-free round trips through a util::BufferPool.
  explicit TsMuxer(std::vector<uint8_t>&& adopt) : out_(std::move(adopt)) {}

  /// Writes PAT + PMT (call once at stream start; HLS segments repeat
  /// them at segment boundaries).
  void write_psi();

  /// Writes one frame as a PES packet spread over TS packets.
  /// Script/metadata frames are carried as private data (stream_id 0xBD).
  void write_frame(const MediaFrame& frame);

  size_t size() const { return out_.size(); }
  std::vector<uint8_t> take() { return out_.take(); }
  std::span<const uint8_t> span() const { return out_.span(); }

 private:
  /// Writes a packet's 4-byte header plus the adaptation field that pads
  /// it to 188 bytes around `payload_size` bytes of payload (<= 184, less
  /// with the RAI flag); the caller appends the payload.
  void write_ts_header(uint16_t pid, bool payload_start, bool random_access,
                       size_t payload_size);
  void write_ts_packet(uint16_t pid, bool payload_start, bool random_access,
                       std::span<const uint8_t> payload);
  uint8_t next_cc(uint16_t pid);

  ByteWriter out_;
  /// Continuity counters of the four PIDs the muxer emits: PAT, PMT,
  /// video, audio.
  std::array<uint8_t, 4> continuity_{};
};

/// A reassembled PES unit.
struct TsPesUnit {
  uint16_t pid = 0;
  uint8_t stream_id = 0;
  std::optional<TimeNs> pts;
  bool random_access = false;  ///< adaptation-field RAI (key frame)
  /// Borrows the demuxer's assembly buffer: valid during the callback.
  std::span<const uint8_t> payload;
};

/// Incremental TS demuxer: feed arbitrary slices; PES units are emitted
/// when complete (declared length reached, or next unit starts on the
/// same PID).
class TsDemuxer {
 public:
  using UnitFn = std::function<void(const TsPesUnit&)>;

  explicit TsDemuxer(UnitFn on_unit) : on_unit_(std::move(on_unit)) {}

  bool feed(std::span<const uint8_t> data);
  bool failed() const { return failed_; }
  uint64_t packets_parsed() const { return packets_parsed_; }
  /// PIDs announced by the PMT as video / audio.
  std::optional<uint16_t> video_pid() const { return video_pid_; }
  std::optional<uint16_t> audio_pid() const { return audio_pid_; }
  /// True once payload for the video PID has been seen, i.e. the stream
  /// position has reached the first byte of video data.  Marks the
  /// delivery -> frame_recv phase boundary on the client.
  bool video_started() const { return video_started_; }

  /// Flushes a pending (unterminated) PES unit — call at end of stream.
  void flush();

 private:
  void process_packet(std::span<const uint8_t> pkt);
  void handle_psi(uint16_t pid, std::span<const uint8_t> payload,
                  bool payload_start);
  void begin_or_append_pes(uint16_t pid, bool payload_start,
                           bool random_access,
                           std::span<const uint8_t> payload);
  void finish_pes(uint16_t pid);

  struct PesAssembly {
    std::vector<uint8_t> buffer;  ///< raw PES bytes (header + data)
    bool random_access = false;
    bool active = false;
  };

  UnitFn on_unit_;
  std::vector<uint8_t> partial_;  ///< sub-188-byte remainder
  std::map<uint16_t, PesAssembly> pes_;
  std::optional<uint16_t> video_pid_;
  std::optional<uint16_t> audio_pid_;
  bool video_started_ = false;
  bool failed_ = false;
  uint64_t packets_parsed_ = 0;
};

}  // namespace wira::media
