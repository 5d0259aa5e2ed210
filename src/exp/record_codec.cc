#include "exp/record_codec.h"

#include <bit>
#include <cstring>

#include "obs/phase_timeline.h"

namespace wira::exp {

namespace {

/// Phase names are static literals (obs::kPhaseNames); spans travel as an
/// index so the decoded PhaseSpan::name pointer is valid forever.  0xFE
/// encodes the empty default name.
constexpr uint8_t kEmptyPhaseName = 0xFE;

bool phase_name_index(const char* name, uint8_t* out) {
  if (name == nullptr || *name == '\0') {
    *out = kEmptyPhaseName;
    return true;
  }
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    if (std::strcmp(name, obs::kPhaseNames[i]) == 0) {
      *out = static_cast<uint8_t>(i);
      return true;
    }
  }
  return false;
}

const char* phase_name_from_index(uint8_t idx) {
  if (idx == kEmptyPhaseName) return "";
  if (idx < obs::kNumPhases) return obs::kPhaseNames[idx];
  return nullptr;
}

}  // namespace

uint64_t fnv1a64(std::span<const uint8_t> data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

void CodecWriter::u32(uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void CodecWriter::u64(uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void CodecWriter::f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

void CodecWriter::bytes(std::span<const uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void CodecWriter::str(std::string_view s) {
  u32(static_cast<uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

bool CodecReader::take(size_t n, const uint8_t** p) {
  if (failed_ || data_.size() - off_ < n) {
    failed_ = true;
    return false;
  }
  *p = data_.data() + off_;
  off_ += n;
  return true;
}

bool CodecReader::u8(uint8_t* v) {
  const uint8_t* p = nullptr;
  if (!take(1, &p)) return false;
  *v = *p;
  return true;
}

bool CodecReader::u32(uint32_t* v) {
  const uint8_t* p = nullptr;
  if (!take(4, &p)) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(p[i]) << (8 * i);
  *v = r;
  return true;
}

bool CodecReader::u64(uint64_t* v) {
  const uint8_t* p = nullptr;
  if (!take(8, &p)) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(p[i]) << (8 * i);
  *v = r;
  return true;
}

bool CodecReader::i64(int64_t* v) {
  uint64_t u = 0;
  if (!u64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool CodecReader::f64(double* v) {
  uint64_t u = 0;
  if (!u64(&u)) return false;
  *v = std::bit_cast<double>(u);
  return true;
}

bool CodecReader::boolean(bool* v) {
  uint8_t b = 0;
  if (!u8(&b)) return false;
  if (b > 1) {
    failed_ = true;
    return false;
  }
  *v = b != 0;
  return true;
}

bool CodecReader::str(std::string* s) {
  uint32_t n = 0;
  if (!u32(&n)) return false;
  const uint8_t* p = nullptr;
  if (!take(n, &p)) return false;
  s->assign(reinterpret_cast<const char*>(p), n);
  return true;
}

// ---- value codecs -------------------------------------------------------

void encode_hxqos_record(const core::HxQosRecord& r, CodecWriter& w) {
  w.i64(r.min_rtt);
  w.u64(r.max_bw);
  w.i64(r.server_timestamp);
  w.u64(r.od_key);
  w.f64(r.loss_rate);
}

bool decode_hxqos_record(CodecReader& r, core::HxQosRecord* out) {
  return r.i64(&out->min_rtt) && r.u64(&out->max_bw) &&
         r.i64(&out->server_timestamp) && r.u64(&out->od_key) &&
         r.f64(&out->loss_rate);
}

void encode_session_result(const SessionResult& res, CodecWriter& w) {
  w.boolean(res.first_frame_completed);
  w.i64(res.ffct);
  w.f64(res.fflr);
  w.u32(static_cast<uint32_t>(res.frames.size()));
  for (const FrameStat& f : res.frames) {
    w.i64(f.completion);
    w.f64(f.loss_rate);
  }
  w.boolean(res.zero_rtt);
  w.u64(res.ff_size);
  w.u64(res.init.init_cwnd);
  w.u64(res.init.init_pacing);
  w.boolean(res.init.used_ff_size);
  w.boolean(res.init.used_hx_qos);
  w.boolean(res.init.hx_stale);
  w.boolean(res.init.ff_pending);
  w.u64(res.server_stats.packets_sent);
  w.u64(res.server_stats.data_packets_sent);
  w.u64(res.server_stats.packets_received);
  w.u64(res.server_stats.packets_acked);
  w.u64(res.server_stats.packets_lost);
  w.u64(res.server_stats.ptos_fired);
  w.u64(res.server_stats.bytes_sent);
  w.u64(res.server_stats.stream_bytes_sent);
  w.u64(res.server_stats.stream_bytes_retransmitted);
  w.i64(res.server_stats.handshake_rtt);
  w.f64(res.retransmission_ratio);
  w.u64(res.cookies_synced);
  w.u64(res.client_cookies_received);
  w.u32(static_cast<uint32_t>(res.phases.size()));
  for (const obs::PhaseSpan& span : res.phases) {
    uint8_t idx = 0;
    // Unknown names cannot round-trip to a stable pointer; encode as
    // empty rather than shipping a dangling char*.
    if (!phase_name_index(span.name, &idx)) idx = kEmptyPhaseName;
    w.u8(idx);
    w.i64(span.begin);
    w.i64(span.end);
  }
  w.boolean(res.cwnd_fallback);
  w.boolean(res.zero_rtt_rejected);
  w.u64(res.arena_bytes);
  w.u64(res.server_stats.packets_undecodable);  // appended in v2
}

bool decode_session_result(CodecReader& r, SessionResult* out) {
  if (!r.boolean(&out->first_frame_completed) || !r.i64(&out->ffct) ||
      !r.f64(&out->fflr)) {
    return false;
  }
  uint32_t n_frames = 0;
  if (!r.u32(&n_frames)) return false;
  out->frames.clear();
  for (uint32_t i = 0; i < n_frames; ++i) {
    FrameStat f;
    if (!r.i64(&f.completion) || !r.f64(&f.loss_rate)) return false;
    out->frames.push_back(f);
  }
  if (!r.boolean(&out->zero_rtt) || !r.u64(&out->ff_size) ||
      !r.u64(&out->init.init_cwnd) || !r.u64(&out->init.init_pacing) ||
      !r.boolean(&out->init.used_ff_size) ||
      !r.boolean(&out->init.used_hx_qos) ||
      !r.boolean(&out->init.hx_stale) ||
      !r.boolean(&out->init.ff_pending) ||
      !r.u64(&out->server_stats.packets_sent) ||
      !r.u64(&out->server_stats.data_packets_sent) ||
      !r.u64(&out->server_stats.packets_received) ||
      !r.u64(&out->server_stats.packets_acked) ||
      !r.u64(&out->server_stats.packets_lost) ||
      !r.u64(&out->server_stats.ptos_fired) ||
      !r.u64(&out->server_stats.bytes_sent) ||
      !r.u64(&out->server_stats.stream_bytes_sent) ||
      !r.u64(&out->server_stats.stream_bytes_retransmitted) ||
      !r.i64(&out->server_stats.handshake_rtt) ||
      !r.f64(&out->retransmission_ratio) || !r.u64(&out->cookies_synced) ||
      !r.u64(&out->client_cookies_received)) {
    return false;
  }
  uint32_t n_phases = 0;
  if (!r.u32(&n_phases)) return false;
  out->phases.clear();
  for (uint32_t i = 0; i < n_phases; ++i) {
    uint8_t idx = 0;
    obs::PhaseSpan span;
    if (!r.u8(&idx) || !r.i64(&span.begin) || !r.i64(&span.end)) {
      return false;
    }
    span.name = phase_name_from_index(idx);
    if (span.name == nullptr) return false;
    out->phases.push_back(span);
  }
  return r.boolean(&out->cwnd_fallback) &&
         r.boolean(&out->zero_rtt_rejected) && r.u64(&out->arena_bytes) &&
         r.u64(&out->server_stats.packets_undecodable);
}

void encode_session_record(const SessionRecord& rec, CodecWriter& w) {
  w.i64(rec.conditions.min_rtt);
  w.u64(rec.conditions.max_bw);
  w.f64(rec.conditions.loss_rate);
  w.u64(rec.conditions.buffer_bytes);
  w.i64(rec.cookie_age);
  w.boolean(rec.zero_rtt);
  w.boolean(rec.had_cookie);
  w.u64(rec.ff_size);
  w.u64(rec.trace_open_failures);
  w.u32(static_cast<uint32_t>(rec.results.size()));
  for (const auto& [scheme, res] : rec.results) {
    w.u32(static_cast<uint32_t>(scheme));
    encode_session_result(res, w);
  }
  // v2: flight-recorder anomaly-trigger counts (appended after the
  // results so every pre-existing field offset is unchanged).
  w.u64(rec.anomaly_stall_dumps);
  w.u64(rec.anomaly_corner_dumps);
  w.u64(rec.anomaly_decode_dumps);
  w.u64(rec.anomaly_ffct_dumps);
}

bool decode_session_record(CodecReader& r, SessionRecord* out) {
  if (!r.i64(&out->conditions.min_rtt) || !r.u64(&out->conditions.max_bw) ||
      !r.f64(&out->conditions.loss_rate) ||
      !r.u64(&out->conditions.buffer_bytes) || !r.i64(&out->cookie_age) ||
      !r.boolean(&out->zero_rtt) || !r.boolean(&out->had_cookie) ||
      !r.u64(&out->ff_size) || !r.u64(&out->trace_open_failures)) {
    return false;
  }
  uint32_t n_results = 0;
  if (!r.u32(&n_results)) return false;
  out->results.clear();
  for (uint32_t i = 0; i < n_results; ++i) {
    uint32_t scheme = 0;
    if (!r.u32(&scheme)) return false;
    if (scheme > static_cast<uint32_t>(core::Scheme::kWiraPlus)) {
      return false;
    }
    SessionResult res;
    if (!decode_session_result(r, &res)) return false;
    const auto [it, inserted] =
        out->results.emplace(static_cast<core::Scheme>(scheme),
                             std::move(res));
    if (!inserted) return false;  // duplicate scheme = corrupt payload
  }
  return r.u64(&out->anomaly_stall_dumps) &&
         r.u64(&out->anomaly_corner_dumps) &&
         r.u64(&out->anomaly_decode_dumps) &&
         r.u64(&out->anomaly_ffct_dumps);
}

void encode_population_config(const PopulationConfig& c, CodecWriter& w) {
  w.u64(c.seed);
  w.u64(c.sessions);
  w.u64(c.num_groups);
  w.f64(c.p_zero_rtt);
  w.f64(c.p_cookie);
  w.u32(static_cast<uint32_t>(c.schemes.size()));
  for (core::Scheme s : c.schemes) w.u32(static_cast<uint32_t>(s));
  w.u64(c.defaults.init_cwnd_exp);
  w.i64(c.defaults.init_rtt_exp);
  w.i64(c.staleness_threshold);
  w.u32(c.theta_vf);
  w.u8(static_cast<uint8_t>(c.cc_algo));
  w.i64(c.sync_period);
  w.boolean(c.careful_resume);
  w.u8(static_cast<uint8_t>(c.container));
  w.boolean(c.collect_metrics);
  w.u64(c.trace_sample);
  w.str(c.trace_dir);
  w.boolean(c.flight_recorder);
  w.str(c.anomaly_dir);
  w.i64(c.anomaly_ffct);
  w.u64(c.anomaly_max_dumps);
  w.u64(c.fail_at_index);
  w.u64(c.kill_at_index);
  w.u64(c.crash_after_index);
  w.i64(c.crash_after_signal);
}

bool decode_population_config(CodecReader& r, PopulationConfig* out) {
  if (!r.u64(&out->seed) || !r.u64(&out->sessions) ||
      !r.u64(&out->num_groups) || !r.f64(&out->p_zero_rtt) ||
      !r.f64(&out->p_cookie)) {
    return false;
  }
  uint32_t n_schemes = 0;
  if (!r.u32(&n_schemes)) return false;
  out->schemes.clear();
  for (uint32_t i = 0; i < n_schemes; ++i) {
    uint32_t s = 0;
    if (!r.u32(&s)) return false;
    if (s > static_cast<uint32_t>(core::Scheme::kWiraPlus)) return false;
    out->schemes.push_back(static_cast<core::Scheme>(s));
  }
  uint8_t cc = 0, container = 0;
  int64_t rtt = 0, staleness = 0, sync = 0, ffct = 0, crash_sig = 0;
  uint64_t cwnd = 0, trace_sample = 0, max_dumps = 0;
  uint64_t fail_at = 0, kill_at = 0, crash_after = 0;
  if (!r.u64(&cwnd) || !r.i64(&rtt) || !r.i64(&staleness) ||
      !r.u32(&out->theta_vf) || !r.u8(&cc) || !r.i64(&sync) ||
      !r.boolean(&out->careful_resume) || !r.u8(&container) ||
      !r.boolean(&out->collect_metrics) || !r.u64(&trace_sample) ||
      !r.str(&out->trace_dir) || !r.boolean(&out->flight_recorder) ||
      !r.str(&out->anomaly_dir) || !r.i64(&ffct) || !r.u64(&max_dumps) ||
      !r.u64(&fail_at) || !r.u64(&kill_at) || !r.u64(&crash_after) ||
      !r.i64(&crash_sig)) {
    return false;
  }
  if (cc > static_cast<uint8_t>(cc::CcAlgo::kCubic)) return false;
  if (container > static_cast<uint8_t>(media::Container::kMpegTs)) {
    return false;
  }
  out->defaults.init_cwnd_exp = cwnd;
  out->defaults.init_rtt_exp = rtt;
  out->staleness_threshold = staleness;
  out->cc_algo = static_cast<cc::CcAlgo>(cc);
  out->sync_period = sync;
  out->container = static_cast<media::Container>(container);
  out->trace_sample = trace_sample;
  out->anomaly_ffct = ffct;
  out->anomaly_max_dumps = max_dumps;
  out->fail_at_index = fail_at;
  out->kill_at_index = kill_at;
  out->crash_after_index = crash_after;
  out->crash_after_signal = static_cast<int>(crash_sig);
  return true;
}

// ---- frame layer --------------------------------------------------------

void append_stream_header(std::vector<uint8_t>& out) {
  CodecWriter w(out);
  w.u32(kRecordCodecMagic);
  w.u32(kRecordCodecVersion);
}

void append_frame(FrameType type, std::span<const uint8_t> payload,
                  std::vector<uint8_t>& out) {
  CodecWriter w(out);
  w.u8(static_cast<uint8_t>(type));
  w.u32(static_cast<uint32_t>(payload.size()));
  w.u64(fnv1a64(payload));
  w.bytes(payload);
}

FrameStatus read_stream_header(std::span<const uint8_t> data,
                               size_t* offset) {
  CodecReader r(data.subspan(std::min(*offset, data.size())));
  uint32_t magic = 0, version = 0;
  if (!r.u32(&magic) || !r.u32(&version)) return FrameStatus::kNeedMore;
  if (magic != kRecordCodecMagic || version != kRecordCodecVersion) {
    return FrameStatus::kCorrupt;
  }
  *offset += 8;
  return FrameStatus::kOk;
}

FrameStatus next_frame(std::span<const uint8_t> data, size_t* offset,
                       FrameView* out) {
  CodecReader r(data.subspan(std::min(*offset, data.size())));
  uint8_t type = 0;
  uint32_t len = 0;
  uint64_t checksum = 0;
  if (!r.u8(&type) || !r.u32(&len) || !r.u64(&checksum)) {
    return FrameStatus::kNeedMore;
  }
  switch (static_cast<FrameType>(type)) {
    case FrameType::kSessionRecord:
    case FrameType::kEnd:
    case FrameType::kConfig:
    case FrameType::kChunkAssign:
      break;
    default:
      return FrameStatus::kCorrupt;
  }
  if (r.remaining() < len) return FrameStatus::kNeedMore;
  const std::span<const uint8_t> payload =
      data.subspan(*offset + r.offset(), len);
  if (fnv1a64(payload) != checksum) return FrameStatus::kCorrupt;
  out->type = static_cast<FrameType>(type);
  out->payload = payload;
  *offset += r.offset() + len;
  return FrameStatus::kOk;
}

}  // namespace wira::exp
