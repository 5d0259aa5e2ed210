// FLV container: muxer (origin/proxy side) and incremental demuxer
// (client side, used to detect first-frame playback completion; also the
// ground truth the Wira L4 parser is validated against).
//
// Wire layout (Adobe FLV spec v10):
//   header     'F' 'L' 'V' version flags(audio|video) data_offset(u32be)
//   body       PreviousTagSize0 (u32be, 0) then repeated:
//              tag {type u8, data_size u24be, timestamp u24be+u8ext,
//                   stream_id u24be(0)} body[data_size] PreviousTagSize(u32be)
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <vector>

#include "media/amf0.h"
#include "media/frame.h"
#include "util/bytes.h"

namespace wira::media {

/// Serializes frames into a contiguous FLV byte stream.
class FlvMuxer {
 public:
  FlvMuxer() = default;
  /// Muxes into a recycled buffer (cleared, capacity kept) — pairs with
  /// take() for allocation-free round trips through a util::BufferPool.
  explicit FlvMuxer(std::vector<uint8_t>&& adopt)
      : writer_(std::move(adopt)) {}

  /// Writes the 9-byte header plus PreviousTagSize0.
  void write_header(bool has_audio = true, bool has_video = true);

  /// Writes a full tag with the given body.  `pts` is truncated to the
  /// container's millisecond timestamp.
  void write_tag(TagType type, TimeNs pts, std::span<const uint8_t> body);

  /// Writes a frame whose payload is synthetic: the correct FLV codec
  /// header byte(s) followed by deterministic filler up to
  /// `frame.payload_bytes`.
  void write_frame(const MediaFrame& frame);

  /// Writes an onMetaData script tag (width/height/framerate/...) with
  /// the properties in the order given, straight into the stream.
  void write_metadata(TimeNs pts, std::initializer_list<Amf0Number> props);

  size_t size() const { return writer_.size(); }
  std::vector<uint8_t> take() { return writer_.take(); }
  std::span<const uint8_t> span() const { return writer_.span(); }

 private:
  /// The 11-byte tag header for a body of `body_size` bytes.
  void write_tag_header(TagType type, TimeNs pts, size_t body_size);

  ByteWriter writer_;
};

/// A parsed FLV tag (body copied out).
struct FlvTag {
  TagType type;
  uint32_t data_size = 0;
  uint32_t timestamp_ms = 0;
  std::vector<uint8_t> body;

  /// For video tags: the frame kind from the first body byte.
  VideoKind video_kind() const {
    return static_cast<VideoKind>(body.empty() ? 0 : body[0] >> 4);
  }
};

/// Incremental (push) FLV demuxer: feed() arbitrary byte slices; complete
/// tags are surfaced through the callback in stream order.  Malformed input
/// latches an error state.
class FlvDemuxer {
 public:
  using TagFn = std::function<void(const FlvTag&)>;

  explicit FlvDemuxer(TagFn on_tag) : on_tag_(std::move(on_tag)) {}

  /// Consumes `data`; returns false once the stream is known malformed.
  bool feed(std::span<const uint8_t> data);

  bool header_seen() const { return state_ != State::kHeader; }
  bool failed() const { return state_ == State::kError; }
  uint64_t tags_parsed() const { return tags_parsed_; }
  /// Total bytes consumed so far (for byte-offset bookkeeping).
  uint64_t bytes_consumed() const { return bytes_consumed_; }
  /// True once the header of the first *video* tag has been parsed, i.e.
  /// the stream position has reached the first byte of video payload.
  /// Marks the delivery -> frame_recv phase boundary on the client.
  bool video_started() const { return video_started_; }

 private:
  enum class State { kHeader, kPrevTagSize, kTagHeader, kTagBody, kError };

  /// Parses one step from `in` at `pos`, advancing `pos` past what it
  /// consumed; false when it needs more bytes or the stream failed.
  bool process(std::span<const uint8_t> in, size_t& pos);

  TagFn on_tag_;
  State state_ = State::kHeader;
  std::vector<uint8_t> buf_;  ///< unparsed tail of the bytes fed so far
  FlvTag current_;
  uint64_t tags_parsed_ = 0;
  uint64_t bytes_consumed_ = 0;
  bool video_started_ = false;
};

}  // namespace wira::media
