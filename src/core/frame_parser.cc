#include "core/frame_parser.h"

#include <algorithm>

#include "media/mpegts.h"
#include "util/bytes.h"

namespace wira::core {

namespace {
using media::kFlvHeaderSize;
using media::kFlvPreviousTagSize;
using media::kFlvTagHeaderSize;

/// Moves bytes from data[pos..] into `buf` until it holds `want` bytes or
/// `data` runs out, advancing `pos`; true once `buf` holds `want` bytes.
bool fill_to(std::vector<uint8_t>& buf, size_t want,
             std::span<const uint8_t> data, size_t& pos) {
  const size_t n = std::min(want - std::min(want, buf.size()),
                            data.size() - pos);
  buf.insert(buf.end(), data.begin() + pos, data.begin() + pos + n);
  pos += n;
  return buf.size() >= want;
}
}  // namespace

void FrameParser::sniff() {
  // Need at least 3 bytes to distinguish the PtlSet signatures.
  if (header_buf_.size() < 3) return;
  if (header_buf_[0] == 'F' && header_buf_[1] == 'L' &&
      header_buf_[2] == 'V') {
    protocol_ = ProtocolType::kFlv;
    state_ = State::kFlvHeader;
    return;
  }
  if (header_buf_[0] == 0x47) {
    protocol_ = ProtocolType::kMpegTs;  // TS sync byte
    state_ = State::kTsCell;
    return;
  }
  if (header_buf_[0] == '#' && header_buf_[1] == 'E' &&
      header_buf_[2] == 'X') {
    protocol_ = ProtocolType::kHls;  // "#EXTM3U" playlist
    state_ = State::kFailed;
    return;
  }
  if (header_buf_[0] == 0x03) {
    protocol_ = ProtocolType::kRtmp;  // RTMP C0 version byte
    state_ = State::kFailed;
    return;
  }
  protocol_ = ProtocolType::kUnsupported;
  state_ = State::kFailed;
}

std::optional<uint64_t> FrameParser::feed(std::span<const uint8_t> data) {
  if (complete_ || state_ == State::kDone || state_ == State::kFailed) {
    return std::nullopt;  // Algorithm 1: FF_Complete -> return -1
  }
  bytes_seen_ += data.size();

  size_t pos = 0;
  while (pos < data.size() || state_ == State::kSniff) {
    switch (state_) {
      case State::kSniff: {
        fill_to(header_buf_, 3, data, pos);
        sniff();
        if (state_ == State::kSniff) return std::nullopt;  // need more
        if (state_ == State::kFailed) return std::nullopt;
        break;
      }
      case State::kFlvHeader: {
        // Accumulate the 9-byte header; buffered sniff bytes count.
        if (!fill_to(header_buf_, kFlvHeaderSize, data, pos)) {
          return std::nullopt;
        }
        // HeaderLen from the DataOffset field (bytes 5..8, big-endian).
        const uint64_t header_len =
            static_cast<uint64_t>(header_buf_[5]) << 24 |
            static_cast<uint64_t>(header_buf_[6]) << 16 |
            static_cast<uint64_t>(header_buf_[7]) << 8 |
            static_cast<uint64_t>(header_buf_[8]);
        if (header_len < kFlvHeaderSize) {
          malformed_ = true;
          state_ = State::kFailed;
          return std::nullopt;
        }
        // FF_Size = HeaderLen (Algorithm 1), any extension bytes skipped.
        ff_size_ = header_len;
        body_to_skip_ = header_len - kFlvHeaderSize;
        header_buf_.clear();
        state_ = body_to_skip_ > 0 ? State::kSkipBody : State::kPrevTagSize;
        if (state_ == State::kPrevTagSize) {
          // fallthrough to PrevTagSize handling on next loop iteration
        }
        break;
      }
      case State::kPrevTagSize: {
        // FF_Size += PreviousTagSizeLen (Algorithm 1).
        if (!fill_to(header_buf_, kFlvPreviousTagSize, data, pos)) {
          return std::nullopt;
        }
        ff_size_ += kFlvPreviousTagSize;
        header_buf_.clear();
        state_ = State::kTagHeader;
        break;
      }
      case State::kTagHeader: {
        // "Obtain FrameType / FrameSize": 11-byte FLV tag header; hold the
        // partial header when it straddles a feed boundary.
        if (!fill_to(header_buf_, kFlvTagHeaderSize, data, pos)) {
          return std::nullopt;
        }
        const uint8_t tag_type = header_buf_[0];
        const uint64_t frame_size =
            static_cast<uint64_t>(header_buf_[1]) << 16 |
            static_cast<uint64_t>(header_buf_[2]) << 8 |
            static_cast<uint64_t>(header_buf_[3]);
        if (tag_type != 8 && tag_type != 9 && tag_type != 18) {
          malformed_ = true;
          state_ = State::kFailed;
          return std::nullopt;
        }
        current_tag_is_video_ = tag_type == 9;
        // FF_Size += FrameSize (header + body counted together).
        ff_size_ += kFlvTagHeaderSize + frame_size;
        body_to_skip_ = frame_size;
        header_buf_.clear();
        state_ = State::kSkipBody;
        break;
      }
      case State::kSkipBody: {
        const uint64_t n =
            std::min<uint64_t>(body_to_skip_, data.size() - pos);
        body_to_skip_ -= n;
        pos += n;
        if (body_to_skip_ > 0) return std::nullopt;
        if (current_tag_is_video_) {
          num_vf_++;
          current_tag_is_video_ = false;
          if (num_vf_ >= config_.theta_vf) {
            // The trailing PreviousTagSize of the final video tag belongs
            // to the first frame (the client needs it to advance).
            ff_size_ += kFlvPreviousTagSize;
            complete_ = true;
            state_ = State::kDone;
            return ff_size_;
          }
        }
        state_ = State::kPrevTagSize;
        break;
      }
      case State::kTsCell: {
        // Accumulate one 188-byte cell (only this much is ever buffered),
        // then inspect its header.
        if (!fill_to(header_buf_, media::kTsPacketSize, data, pos)) {
          return std::nullopt;
        }
        auto ff = process_ts_cell(header_buf_);
        header_buf_.clear();
        ts_cells_done_++;
        if (state_ == State::kFailed) return std::nullopt;
        if (ff) {
          ff_size_ = *ff;
          complete_ = true;
          state_ = State::kDone;
          return ff_size_;
        }
        break;
      }
      case State::kDone:
      case State::kFailed:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> FrameParser::process_ts_cell(
    std::span<const uint8_t> cell) {
  if (cell[0] != media::kTsSyncByte) {
    malformed_ = true;
    state_ = State::kFailed;
    return std::nullopt;
  }
  const bool payload_start = (cell[1] & 0x40) != 0;
  const uint16_t pid =
      static_cast<uint16_t>((cell[1] & 0x1F) << 8 | cell[2]);
  const uint8_t afc = (cell[3] >> 4) & 0x03;
  size_t offset = 4;
  if (afc & 0x02) {
    offset += 1 + cell[offset];
    if (offset > cell.size()) {
      malformed_ = true;
      state_ = State::kFailed;
      return std::nullopt;
    }
  }

  // Learn the video PID from the PMT.
  if (pid == media::kTsPidPmt && payload_start && (afc & 0x01) &&
      offset < cell.size()) {
    const auto payload = cell.subspan(offset);
    const uint8_t pointer = payload[0];
    if (payload.size() > 1u + pointer + 12) {
      ByteReader r(payload.subspan(1 + pointer));
      if (r.u8() == 0x02) {  // PMT table id
        r.skip(7);           // lengths / ids / section numbers
        r.u16be();           // PCR PID
        const uint16_t prog_info = r.u16be() & 0x0FFF;
        r.skip(prog_info);
        while (r.ok() && r.remaining() >= 5 + 4 /* CRC */) {
          const uint8_t stream_type = r.u8();
          const uint16_t es_pid = r.u16be() & 0x1FFF;
          const uint16_t es_info = r.u16be() & 0x0FFF;
          r.skip(es_info);
          if (stream_type == 0x1B) ts_video_pid_ = es_pid;  // H.264
        }
      }
    }
    return std::nullopt;
  }

  // First-frame boundary: a TS access unit's end is only detectable when
  // the next one starts, so the first frame (Theta_VF video AUs plus any
  // interleaved audio) completes at the (Theta_VF+1)-th video PUSI.
  if (ts_video_pid_ && pid == *ts_video_pid_ && payload_start) {
    ts_video_starts_++;
    if (ts_video_starts_ == config_.theta_vf + 1) {
      num_vf_ = config_.theta_vf;
      return ts_cells_done_ * media::kTsPacketSize;
    }
  }
  return std::nullopt;
}

}  // namespace wira::core
