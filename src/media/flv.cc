#include "media/flv.h"

#include <algorithm>

#include "media/amf0.h"
#include "media/filler.h"

namespace wira::media {

namespace {
constexpr PayloadFiller kFiller(0xA5, 31);
}  // namespace

void FlvMuxer::write_header(bool has_audio, bool has_video) {
  writer_.str("FLV");
  writer_.u8(1);  // version
  writer_.u8(static_cast<uint8_t>((has_audio ? 0x04 : 0) |
                                  (has_video ? 0x01 : 0)));
  writer_.u32be(kFlvHeaderSize);
  writer_.u32be(0);  // PreviousTagSize0
}

void FlvMuxer::write_tag_header(TagType type, TimeNs pts,
                                size_t body_size) {
  const uint32_t ts = static_cast<uint32_t>(to_ms(pts));
  writer_.u8(static_cast<uint8_t>(type));
  writer_.u24be(static_cast<uint32_t>(body_size));
  writer_.u24be(ts & 0xFFFFFF);
  writer_.u8(static_cast<uint8_t>(ts >> 24));  // extended timestamp
  writer_.u24be(0);                            // stream id
}

void FlvMuxer::write_tag(TagType type, TimeNs pts,
                         std::span<const uint8_t> body) {
  write_tag_header(type, pts, body.size());
  writer_.bytes(body);
  writer_.u32be(static_cast<uint32_t>(kFlvTagHeaderSize + body.size()));
}

void FlvMuxer::write_frame(const MediaFrame& frame) {
  // Synthetic payloads are copied straight into the writer from the filler
  // table (one exact reserve, no intermediate body buffer): this is the
  // origin's per-frame hot path.
  const bool has_marker =
      frame.type == TagType::kVideo || frame.type == TagType::kAudio;
  const size_t body_size =
      std::max<size_t>(frame.payload_bytes, has_marker ? 1 : 0);
  writer_.reserve(writer_.size() + kFlvTagHeaderSize + body_size +
                  kFlvPreviousTagSize);
  write_tag_header(frame.type, frame.pts, body_size);
  if (frame.type == TagType::kVideo) {
    // FrameType(4) | CodecID(4); codec 7 = AVC.
    writer_.u8(static_cast<uint8_t>(
        (static_cast<uint8_t>(frame.video_kind) << 4) | 0x07));
  } else if (frame.type == TagType::kAudio) {
    // SoundFormat 10 (AAC), 44kHz stereo 16-bit.
    writer_.u8(0xAF);
  }
  // The filler index counts the marker byte, so it starts at 1 after it.
  const size_t first = has_marker ? 1 : 0;
  kFiller.append(writer_, first, body_size - first);
  writer_.u32be(static_cast<uint32_t>(kFlvTagHeaderSize + body_size));
}

void FlvMuxer::write_metadata(TimeNs pts,
                              std::initializer_list<Amf0Number> props) {
  // write_tag's layout, with the AMF0 body encoded in place.
  const size_t body_size = amf0_numeric_metadata_size("onMetaData", props);
  writer_.reserve(writer_.size() + kFlvTagHeaderSize + body_size +
                  kFlvPreviousTagSize);
  write_tag_header(TagType::kScript, pts, body_size);
  amf0_write_numeric_metadata(writer_, "onMetaData", props);
  writer_.u32be(static_cast<uint32_t>(kFlvTagHeaderSize + body_size));
}

bool FlvDemuxer::feed(std::span<const uint8_t> data) {
  if (state_ == State::kError) return false;
  // Parse straight from `data` unless a partial tag is pending; either
  // way the parser advances a read offset, and only the unparsed tail is
  // kept (one copy or one compaction per call, not one per tag).
  std::span<const uint8_t> in = data;
  if (!buf_.empty()) {
    buf_.insert(buf_.end(), data.begin(), data.end());
    in = buf_;
  }
  size_t pos = 0;
  while (process(in, pos)) {
  }
  if (buf_.empty()) {
    buf_.assign(in.begin() + static_cast<std::ptrdiff_t>(pos), in.end());
  } else {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return state_ != State::kError;
}

bool FlvDemuxer::process(std::span<const uint8_t> in, size_t& pos) {
  const std::span<const uint8_t> avail = in.subspan(pos);
  auto consume = [this, &pos](size_t n) {
    pos += n;
    bytes_consumed_ += n;
  };

  switch (state_) {
    case State::kHeader: {
      if (avail.size() < kFlvHeaderSize) return false;
      if (avail[0] != 'F' || avail[1] != 'L' || avail[2] != 'V') {
        state_ = State::kError;
        return false;
      }
      ByteReader r(avail.subspan(5, 4));
      const uint32_t data_offset = r.u32be();
      if (data_offset < kFlvHeaderSize || avail.size() < data_offset) {
        if (data_offset < kFlvHeaderSize) state_ = State::kError;
        return false;
      }
      consume(data_offset);
      state_ = State::kPrevTagSize;
      return true;
    }
    case State::kPrevTagSize: {
      if (avail.size() < kFlvPreviousTagSize) return false;
      consume(kFlvPreviousTagSize);
      state_ = State::kTagHeader;
      return true;
    }
    case State::kTagHeader: {
      if (avail.size() < kFlvTagHeaderSize) return false;
      ByteReader r(avail.first(kFlvTagHeaderSize));
      const uint8_t type = r.u8();
      current_.data_size = r.u24be();
      const uint32_t ts_low = r.u24be();
      const uint8_t ts_ext = r.u8();
      current_.timestamp_ms = (static_cast<uint32_t>(ts_ext) << 24) | ts_low;
      if (type != 8 && type != 9 && type != 18) {
        state_ = State::kError;
        return false;
      }
      current_.type = static_cast<TagType>(type);
      if (type == 9) video_started_ = true;
      consume(kFlvTagHeaderSize);
      state_ = State::kTagBody;
      return true;
    }
    case State::kTagBody: {
      if (avail.size() < current_.data_size) return false;
      const auto body = avail.first(current_.data_size);
      current_.body.assign(body.begin(), body.end());
      consume(current_.data_size);
      tags_parsed_++;
      if (on_tag_) on_tag_(current_);
      state_ = State::kPrevTagSize;
      return true;
    }
    case State::kError:
      return false;
  }
  return false;
}

}  // namespace wira::media
