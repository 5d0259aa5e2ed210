#include "media/mpegts.h"

#include <algorithm>
#include <cstring>

#include "media/filler.h"

namespace wira::media {

namespace {

constexpr uint8_t kStreamIdVideo = 0xE0;
constexpr uint8_t kStreamIdAudio = 0xC0;
constexpr uint8_t kStreamIdPrivate = 0xBD;
constexpr uint8_t kStreamTypeH264 = 0x1B;
constexpr uint8_t kStreamTypeAacAdts = 0x0F;

/// CRC-32/MPEG-2: poly 0x04C11DB7, init 0xFFFFFFFF, not reflected.
uint32_t crc32_mpeg2(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc ^= static_cast<uint32_t>(byte) << 24;
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x80000000u) ? (crc << 1) ^ 0x04C11DB7u : crc << 1;
    }
  }
  return crc;
}

constexpr PayloadFiller kFiller(0x3C, 17);

/// PES header as TsMuxer writes it: start code, stream id, length, flags,
/// header length and a 5-byte PTS.
constexpr size_t kPesHeaderSize = 6 + 3 + 5;

/// Adaptation-field stuffing bytes.
constexpr auto kStuffing = [] {
  std::array<uint8_t, kTsPacketSize> a{};
  a.fill(0xFF);
  return a;
}();

/// 90 kHz PTS from nanoseconds.
uint64_t to_pts90k(TimeNs t) {
  return static_cast<uint64_t>((static_cast<__int128>(t) * 90'000) /
                               1'000'000'000) &
         0x1FFFFFFFFull;
}

TimeNs from_pts90k(uint64_t pts) {
  return static_cast<TimeNs>((static_cast<__int128>(pts) * 1'000'000'000) /
                             90'000);
}

void put_pts(uint8_t* dst, uint64_t pts) {
  // '0010' pts[32..30] marker | pts[29..22] | pts[21..15] marker | ...
  dst[0] = static_cast<uint8_t>(0x21 | ((pts >> 29) & 0x0E));
  dst[1] = static_cast<uint8_t>((pts >> 22) & 0xFF);
  dst[2] = static_cast<uint8_t>(0x01 | ((pts >> 14) & 0xFE));
  dst[3] = static_cast<uint8_t>((pts >> 7) & 0xFF);
  dst[4] = static_cast<uint8_t>(0x01 | ((pts << 1) & 0xFE));
}

std::optional<uint64_t> parse_pts(std::span<const uint8_t> b) {
  if (b.size() < 5) return std::nullopt;
  uint64_t pts = (static_cast<uint64_t>(b[0] & 0x0E) << 29) |
                 (static_cast<uint64_t>(b[1]) << 22) |
                 (static_cast<uint64_t>(b[2] & 0xFE) << 14) |
                 (static_cast<uint64_t>(b[3]) << 7) |
                 (static_cast<uint64_t>(b[4]) >> 1);
  return pts;
}

/// Wraps a PSI section (pointer field + table) ready for a TS payload.
std::vector<uint8_t> make_psi_section(uint8_t table_id,
                                      std::span<const uint8_t> body) {
  ByteWriter w;
  w.u8(0);  // pointer_field
  ByteWriter section;
  section.u8(table_id);
  // section_syntax_indicator=1, '0', reserved '11', 12-bit length =
  // body + 5 header remainder + 4 CRC.
  const uint16_t section_length = static_cast<uint16_t>(body.size() + 5 + 4);
  section.u16be(static_cast<uint16_t>(0xB000 | section_length));
  section.u16be(1);        // transport_stream_id / program_number
  section.u8(0xC1);        // reserved, version 0, current_next 1
  section.u8(0);           // section_number
  section.u8(0);           // last_section_number
  section.bytes(body);
  const uint32_t crc = crc32_mpeg2(section.span());
  section.u32be(crc);
  w.bytes(section.span());
  return w.take();
}

}  // namespace

uint8_t TsMuxer::next_cc(uint16_t pid) {
  size_t slot;
  switch (pid) {
    case kTsPidPat: slot = 0; break;
    case kTsPidPmt: slot = 1; break;
    case kTsPidVideo: slot = 2; break;
    default: slot = 3; break;  // kTsPidAudio
  }
  uint8_t& cc = continuity_[slot];
  const uint8_t out = cc;
  cc = (cc + 1) & 0x0F;
  return out;
}

void TsMuxer::write_ts_header(uint16_t pid, bool payload_start,
                              bool random_access, size_t payload_size) {
  // Adaptation field: a length byte, then (if room) a flags byte and
  // stuffing.  A full 184-byte payload without RAI needs no field.
  const size_t header_size = 4;
  const size_t adaptation = kTsPacketSize - header_size - payload_size;

  out_.u8(kTsSyncByte);
  out_.u16be(static_cast<uint16_t>((payload_start ? 0x4000 : 0) |
                                   (pid & 0x1FFF)));
  const uint8_t afc = adaptation > 0 ? 0x30 : 0x10;  // adaptation+payload
  out_.u8(static_cast<uint8_t>(afc | next_cc(pid)));
  if (adaptation > 0) {
    out_.u8(static_cast<uint8_t>(adaptation - 1));  // field length
    if (adaptation > 1) {
      out_.u8(random_access ? 0x40 : 0x00);  // flags (RAI)
      out_.bytes(kStuffing.data(), adaptation - 2);
    }
  }
}

void TsMuxer::write_ts_packet(uint16_t pid, bool payload_start,
                              bool random_access,
                              std::span<const uint8_t> payload) {
  write_ts_header(pid, payload_start, random_access, payload.size());
  out_.bytes(payload);
}

void TsMuxer::write_psi() {
  // PAT: program 1 -> PMT PID.
  ByteWriter pat_body;
  pat_body.u16be(1);  // program_number
  pat_body.u16be(static_cast<uint16_t>(0xE000 | kTsPidPmt));
  const auto pat = make_psi_section(0x00, pat_body.span());
  write_ts_packet(kTsPidPat, true, false, pat);

  // PMT: H.264 video + AAC audio.
  ByteWriter pmt_body;
  pmt_body.u16be(static_cast<uint16_t>(0xE000 | kTsPidVideo));  // PCR PID
  pmt_body.u16be(0xF000);  // program_info_length = 0
  pmt_body.u8(kStreamTypeH264);
  pmt_body.u16be(static_cast<uint16_t>(0xE000 | kTsPidVideo));
  pmt_body.u16be(0xF000);  // ES_info_length = 0
  pmt_body.u8(kStreamTypeAacAdts);
  pmt_body.u16be(static_cast<uint16_t>(0xE000 | kTsPidAudio));
  pmt_body.u16be(0xF000);
  const auto pmt = make_psi_section(0x02, pmt_body.span());
  write_ts_packet(kTsPidPmt, true, false, pmt);
}

void TsMuxer::write_frame(const MediaFrame& frame) {
  uint16_t pid;
  uint8_t stream_id;
  switch (frame.type) {
    case TagType::kVideo:
      pid = kTsPidVideo;
      stream_id = kStreamIdVideo;
      break;
    case TagType::kAudio:
      pid = kTsPidAudio;
      stream_id = kStreamIdAudio;
      break;
    default:
      pid = kTsPidAudio;  // private data rides the audio PID here
      stream_id = kStreamIdPrivate;
      break;
  }

  // The PES header, on the stack.  Video uses PES_packet_length = 0 (the
  // norm for H.264 in TS: the access-unit end is known only when the next
  // unit starts); audio/private declare their length, which counts the
  // bytes after the 6-byte start code + stream id + length prefix.
  const size_t pes_len = kPesHeaderSize - 6 + frame.payload_bytes;
  const bool declare_length =
      frame.type != TagType::kVideo && pes_len <= 0xFFFF;
  const uint16_t length_field =
      declare_length ? static_cast<uint16_t>(pes_len) : 0;
  std::array<uint8_t, kPesHeaderSize> header = {
      0x00, 0x00, 0x01, stream_id,
      static_cast<uint8_t>(length_field >> 8),
      static_cast<uint8_t>(length_field & 0xFF),
      0x80,  // '10' + no scrambling/priority/alignment
      0x80,  // PTS only
      5,     // PES_header_data_length
  };
  put_pts(header.data() + 9, to_pts90k(frame.pts));

  // Cut TS packets straight from header + filler into the output.  The
  // first packet carries the whole PES header (key frames also a 2-byte
  // RAI adaptation field) and as much filler as fits after it.
  const bool key_video = frame.type == TagType::kVideo &&
                         frame.video_kind == VideoKind::kKey;
  const size_t payload = frame.payload_bytes;
  out_.reserve(out_.size() + ts_frame_wire_size(frame));
  const size_t first_room =
      (key_video ? kTsPacketSize - 4 - 2 : kTsPacketSize - 4) -
      kPesHeaderSize;
  size_t fill = std::min(first_room, payload);
  write_ts_header(pid, true, key_video, kPesHeaderSize + fill);
  out_.bytes(header.data(), header.size());
  kFiller.append(out_, 0, fill);
  for (size_t at = fill; at < payload; at += fill) {
    fill = std::min(kTsPacketSize - 4, payload - at);
    write_ts_header(pid, false, false, fill);
    kFiller.append(out_, at, fill);
  }
}

size_t ts_frame_wire_size(const MediaFrame& frame) {
  const size_t pes_bytes = kPesHeaderSize + frame.payload_bytes;
  const bool key_video = frame.type == TagType::kVideo &&
                         frame.video_kind == VideoKind::kKey;
  const size_t first_room =
      key_video ? kTsPacketSize - 4 - 2 : kTsPacketSize - 4;
  if (pes_bytes <= first_room) return kTsPacketSize;
  const size_t rest = pes_bytes - first_room;
  const size_t more = (rest + (kTsPacketSize - 4) - 1) / (kTsPacketSize - 4);
  return (1 + more) * kTsPacketSize;
}

// ----------------------------------------------------------------- demuxer

bool TsDemuxer::feed(std::span<const uint8_t> data) {
  if (failed_) return false;
  partial_.insert(partial_.end(), data.begin(), data.end());
  size_t pos = 0;
  while (partial_.size() - pos >= kTsPacketSize && !failed_) {
    process_packet(
        std::span<const uint8_t>(partial_.data() + pos, kTsPacketSize));
    pos += kTsPacketSize;
  }
  partial_.erase(partial_.begin(), partial_.begin() + static_cast<long>(pos));
  return !failed_;
}

void TsDemuxer::process_packet(std::span<const uint8_t> pkt) {
  if (pkt[0] != kTsSyncByte) {
    failed_ = true;
    return;
  }
  packets_parsed_++;
  const bool payload_start = (pkt[1] & 0x40) != 0;
  const uint16_t pid = static_cast<uint16_t>((pkt[1] & 0x1F) << 8 | pkt[2]);
  const uint8_t afc = (pkt[3] >> 4) & 0x03;
  size_t offset = 4;
  bool random_access = false;
  if (afc & 0x02) {
    const uint8_t af_len = pkt[offset];
    if (af_len > 0 && offset + 1 < pkt.size()) {
      random_access = (pkt[offset + 1] & 0x40) != 0;
    }
    offset += 1 + af_len;
    if (offset > pkt.size()) {
      failed_ = true;
      return;
    }
  }
  if (!(afc & 0x01) || offset >= pkt.size()) return;  // no payload
  const auto payload = pkt.subspan(offset);

  if (pid == kTsPidPat || pid == kTsPidPmt) {
    handle_psi(pid, payload, payload_start);
    return;
  }
  begin_or_append_pes(pid, payload_start, random_access, payload);
}

void TsDemuxer::handle_psi(uint16_t pid, std::span<const uint8_t> payload,
                           bool payload_start) {
  if (!payload_start || payload.empty()) return;
  const uint8_t pointer = payload[0];
  if (payload.size() < 1u + pointer + 8) return;
  ByteReader r(payload.subspan(1 + pointer));
  const uint8_t table_id = r.u8();
  const uint16_t len_field = r.u16be();
  const uint16_t section_length = len_field & 0x0FFF;
  r.u16be();  // ts id / program number
  r.u8();     // version
  r.u8();     // section number
  r.u8();     // last section
  if (!r.ok()) return;
  const size_t body_len =
      section_length >= 9 ? static_cast<size_t>(section_length) - 5 - 4 : 0;

  if (pid == kTsPidPat && table_id == 0x00) {
    // Single program assumed: skip (we know the PMT PID by convention,
    // but honour what the PAT says).
    if (body_len >= 4) {
      r.u16be();  // program number
      // PMT pid is announced here; used implicitly via kTsPidPmt.
    }
  } else if (pid == kTsPidPmt && table_id == 0x02) {
    ByteReader body(payload.subspan(1 + pointer + 8,
                                    std::min(body_len, payload.size() -
                                                           1 - pointer - 8)));
    body.u16be();  // PCR PID
    const uint16_t prog_info = body.u16be() & 0x0FFF;
    body.skip(prog_info);
    while (body.ok() && body.remaining() >= 5) {
      const uint8_t stream_type = body.u8();
      const uint16_t es_pid = body.u16be() & 0x1FFF;
      const uint16_t es_info = body.u16be() & 0x0FFF;
      body.skip(es_info);
      if (stream_type == kStreamTypeH264) video_pid_ = es_pid;
      if (stream_type == kStreamTypeAacAdts) audio_pid_ = es_pid;
    }
  }
}

void TsDemuxer::begin_or_append_pes(uint16_t pid, bool payload_start,
                                    bool random_access,
                                    std::span<const uint8_t> payload) {
  PesAssembly& asmbl = pes_[pid];
  if (payload_start) {
    if (asmbl.active) finish_pes(pid);
    asmbl.active = true;
    asmbl.random_access = random_access;
    asmbl.buffer.clear();
  }
  if (!asmbl.active) return;
  if (video_pid_ && pid == *video_pid_ && !payload.empty()) {
    video_started_ = true;
  }  // continuation without a start: drop
  asmbl.buffer.insert(asmbl.buffer.end(), payload.begin(), payload.end());

  // Early completion when the PES declared its length.
  if (asmbl.buffer.size() >= 6) {
    const uint16_t declared = static_cast<uint16_t>(
        asmbl.buffer[4] << 8 | asmbl.buffer[5]);
    if (declared != 0 && asmbl.buffer.size() >= 6u + declared) {
      finish_pes(pid);
    }
  }
}

void TsDemuxer::finish_pes(uint16_t pid) {
  PesAssembly& asmbl = pes_[pid];
  if (!asmbl.active || asmbl.buffer.size() < 9) {
    asmbl.active = false;
    return;
  }
  const auto& b = asmbl.buffer;
  if (b[0] != 0 || b[1] != 0 || b[2] != 1) {
    failed_ = true;
    return;
  }
  TsPesUnit unit;
  unit.pid = pid;
  unit.stream_id = b[3];
  unit.random_access = asmbl.random_access;
  const uint8_t pts_flags = (b[7] >> 6) & 0x03;
  const uint8_t header_len = b[8];
  if (pts_flags & 0x02) {
    unit.pts.emplace();
    auto pts = parse_pts(std::span<const uint8_t>(b.data() + 9,
                                                  b.size() - 9));
    if (pts) unit.pts = from_pts90k(*pts);
  }
  const size_t payload_off = 9 + header_len;
  if (payload_off <= b.size()) {
    unit.payload.assign(b.begin() + static_cast<long>(payload_off), b.end());
  }
  asmbl.active = false;
  asmbl.buffer.clear();
  if (on_unit_) on_unit_(unit);
}

void TsDemuxer::flush() {
  for (auto& [pid, asmbl] : pes_) {
    if (asmbl.active) finish_pes(pid);
  }
}

}  // namespace wira::media
