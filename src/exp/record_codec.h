// Versioned wire codec for the sharded population runner (DESIGN.md §6):
// workers stream length-prefixed, checksummed frames carrying serialized
// SessionRecords back to the parent over a pipe, and the parent
// reassembles them index-addressed and folds its one MetricsRegistry.
//
// Layering:
//   - primitives: CodecWriter / CodecReader — little-endian fixed-width
//     integers and bit-cast doubles, all reads bounds-checked (a failed
//     read latches the reader into a failed state; no partial-field
//     tearing).
//   - values: encode/decode for SessionRecord and SessionResult.  Each
//     type's layout is one field list in record_codec.cc, walked by both
//     directions.  Round trips are bit-exact (doubles are bit-cast),
//     which is what makes `--procs N` output byte-identical to serial.
//   - frames: a stream header (magic + codec version) followed by
//     [type u8][len u32][fnv1a-64 checksum u64][payload] frames and a
//     terminating kEnd frame.  EOF before kEnd means the worker died
//     mid-stripe: everything decoded up to that point is salvageable and
//     the first missing index names the session the worker was on.
//   - FrameReader: the one buffered reader of such a stream off an fd,
//     used by both directions of the shard protocol (the worker's
//     control stream, the parent's record streams).
//
// Versioning: bump kRecordCodecVersion on any layout change; the parent
// rejects streams from a mismatched worker outright (both sides are the
// same binary, so a mismatch means memory corruption, not skew).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <span>
#include <vector>

#include "exp/population_experiment.h"

namespace wira::exp {

inline constexpr uint32_t kRecordCodecMagic = 0x57524331;  // "WRC1"
/// v2: SessionResult += packets_undecodable; SessionRecord += the four
/// anomaly-trigger counters (all appended at the end of their structs,
/// so pre-v2 field offsets are unchanged).
inline constexpr uint32_t kRecordCodecVersion = 2;

/// FNV-1a 64-bit over a byte span (the per-frame checksum).
uint64_t fnv1a64(std::span<const uint8_t> data);

/// Append-only primitive writer over a caller-owned byte vector.
class CodecWriter {
 public:
  explicit CodecWriter(std::vector<uint8_t>& out) : out_(out) {}

  void u8(uint8_t v) { out_.push_back(v); }
  void u32(uint32_t v);
  void u64(uint64_t v);
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(std::span<const uint8_t> data);

 private:
  std::vector<uint8_t>& out_;
};

/// Bounds-checked primitive reader.  Any out-of-range read latches
/// `failed()`; subsequent reads return zeros so decode loops can bail on
/// a single check per value.
class CodecReader {
 public:
  explicit CodecReader(std::span<const uint8_t> data) : data_(data) {}

  bool u8(uint8_t* v);
  bool u32(uint32_t* v);
  bool u64(uint64_t* v);
  bool i64(int64_t* v);
  bool f64(double* v);
  bool boolean(bool* v);

  bool failed() const { return failed_; }
  /// Latches failed(): a value read fine but failed validation.
  void fail() { failed_ = true; }
  size_t offset() const { return off_; }
  size_t remaining() const { return data_.size() - off_; }

 private:
  bool take(size_t n, const uint8_t** p);

  std::span<const uint8_t> data_;
  size_t off_ = 0;
  bool failed_ = false;
};

// ---- value codecs -------------------------------------------------------

void encode_session_result(const SessionResult& res, CodecWriter& w);
bool decode_session_result(CodecReader& r, SessionResult* out);

void encode_session_record(const SessionRecord& rec, CodecWriter& w);
bool decode_session_record(CodecReader& r, SessionRecord* out);

// ---- frame layer --------------------------------------------------------

enum class FrameType : uint8_t {
  kSessionRecord = 1,  ///< payload: u64 session index + SessionRecord
  // 2 and 4 are retired and stay unassigned; next_frame rejects them as
  // corrupt.
  kEnd = 3,            ///< empty payload; clean end-of-stream marker
  // Control frame (parent → worker).  It shares the frame layer with the
  // data stream but travels on the opposite direction of the channel, so
  // the data-stream layout — and kRecordCodecVersion — is unchanged.
  kChunkAssign = 5,  ///< payload: u64 begin + u64 end (session indices)
};

/// Writes the stream header (magic + version) a worker emits once before
/// its first frame.
void append_stream_header(std::vector<uint8_t>& out);

/// Appends one [type][len][checksum][payload] frame.
void append_frame(FrameType type, std::span<const uint8_t> payload,
                  std::vector<uint8_t>& out);

enum class FrameStatus {
  kOk,        ///< frame parsed, *offset advanced past it
  kNeedMore,  ///< buffer ends mid-header or mid-payload (truncated stream)
  kCorrupt,   ///< bad magic/version/type or checksum mismatch
};

struct FrameView {
  FrameType type = FrameType::kEnd;
  std::span<const uint8_t> payload;
};

/// Validates the stream header at *offset and advances past it.
FrameStatus read_stream_header(std::span<const uint8_t> data,
                               size_t* offset);

/// Parses the next frame at *offset.  On kOk the view borrows `data`.
FrameStatus next_frame(std::span<const uint8_t> data, size_t* offset,
                       FrameView* out);

/// Buffered reader of one stream: header, then frames, off a blocking or
/// poll()-ready fd.
class FrameReader {
 public:
  /// Drops the bytes of frames already returned, then appends what one
  /// read(2) yields (EINTR retried).  Returns the byte count, 0 on EOF,
  /// -1 on error.
  ssize_t fill(int fd);

  /// Checks the stream header on first use, then parses the next frame.
  /// kCorrupt is a bad header while !header_seen(), else a bad frame.
  /// On kOk the view borrows the buffer until the next fill().
  FrameStatus next(FrameView* out);

  bool header_seen() const { return header_seen_; }
  /// Buffered bytes past the last frame next() returned.
  size_t pending() const { return buf_.size() - off_; }

 private:
  std::vector<uint8_t> buf_;
  size_t off_ = 0;
  bool header_seen_ = false;
};

}  // namespace wira::exp
