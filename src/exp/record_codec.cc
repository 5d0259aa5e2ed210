#include "exp/record_codec.h"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <map>
#include <string>

#include "obs/phase_timeline.h"

namespace wira::exp {

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

namespace {

/// Phase names are static literals (obs::kPhaseNames); spans travel as an
/// index so the decoded PhaseSpan::name pointer is valid forever.  0xFE
/// encodes the empty default name.
constexpr uint8_t kEmptyPhaseName = 0xFE;

/// Writes each field by its C++ type: bool -> u8, uint32 -> u32,
/// uint64/size_t -> u64, TimeNs/int -> i64, double -> f64, string -> str.
class Encoder {
 public:
  explicit Encoder(CodecWriter& w) : w_(w) {}

  void operator()(bool v) { w_.boolean(v); }
  void operator()(uint8_t v) { w_.u8(v); }
  void operator()(uint32_t v) { w_.u32(v); }
  void operator()(uint64_t v) { w_.u64(v); }
  void operator()(int64_t v) { w_.i64(v); }
  void operator()(int v) { w_.i64(v); }
  void operator()(double v) { w_.f64(v); }
  void operator()(const std::string& v) { w_.str(v); }

  /// u32 count, then each element through `each(*this, element)`.
  template <typename T, typename Each>
  void seq(const std::vector<T>& xs, Each each) {
    w_.u32(static_cast<uint32_t>(xs.size()));
    for (const T& x : xs) each(*this, x);
  }

  /// u32 count, then `each(*this, key, value)` per entry in key order.
  template <typename K, typename T, typename Each>
  void map(const std::map<K, T>& m, Each each) {
    w_.u32(static_cast<uint32_t>(m.size()));
    for (const auto& [key, value] : m) each(*this, key, value);
  }

  /// An enum as its `Wire`-typed value.
  template <typename Wire, typename E>
  void enumeration(E e, E /*max*/) {
    (*this)(static_cast<Wire>(e));
  }

  /// Unknown names cannot round-trip to a stable pointer; they travel as
  /// the empty name rather than as a dangling char*.
  void phase_name(const char* name) {
    uint8_t idx = kEmptyPhaseName;
    for (size_t i = 0; name != nullptr && i < obs::kNumPhases; ++i) {
      if (std::strcmp(name, obs::kPhaseNames[i]) == 0) {
        idx = static_cast<uint8_t>(i);
      }
    }
    w_.u8(idx);
  }

 private:
  CodecWriter& w_;
};

/// Reads what Encoder wrote.  A short read, an out-of-range enum or phase
/// index, or a repeated map key latches the reader's failed().
class Decoder {
 public:
  explicit Decoder(CodecReader& r) : r_(r) {}

  bool ok() const { return !r_.failed(); }

  void operator()(bool& v) { r_.boolean(&v); }
  void operator()(uint8_t& v) { r_.u8(&v); }
  void operator()(uint32_t& v) { r_.u32(&v); }
  void operator()(uint64_t& v) { r_.u64(&v); }
  void operator()(int64_t& v) { r_.i64(&v); }
  void operator()(int& v) {
    int64_t wide = 0;
    r_.i64(&wide);
    v = static_cast<int>(wide);
  }
  void operator()(double& v) { r_.f64(&v); }
  void operator()(std::string& v) { r_.str(&v); }

  template <typename T, typename Each>
  void seq(std::vector<T>& xs, Each each) {
    uint32_t n = 0;
    r_.u32(&n);
    xs.clear();
    for (uint32_t i = 0; i < n && ok(); ++i) {
      each(*this, xs.emplace_back());
    }
  }

  template <typename K, typename T, typename Each>
  void map(std::map<K, T>& m, Each each) {
    uint32_t n = 0;
    r_.u32(&n);
    m.clear();
    for (uint32_t i = 0; i < n && ok(); ++i) {
      K key{};
      T value{};
      each(*this, key, value);
      if (ok() && !m.emplace(key, std::move(value)).second) r_.fail();
    }
  }

  template <typename Wire, typename E>
  void enumeration(E& e, E max) {
    Wire v = 0;
    (*this)(v);
    if (v > static_cast<Wire>(max)) r_.fail();
    e = static_cast<E>(v);
  }

  void phase_name(const char*& name) {
    uint8_t idx = 0;
    r_.u8(&idx);
    name = idx < obs::kNumPhases ? obs::kPhaseNames[idx] : "";
    if (idx >= obs::kNumPhases && idx != kEmptyPhaseName) r_.fail();
  }

 private:
  CodecReader& r_;
};

// One field list per type, in wire order, walked by both Encoder (R
// const) and Decoder.  A layout change is made here and nowhere else, and
// it bumps kRecordCodecVersion.

template <typename V, typename R>
void walk_result(V& v, R& res) {
  v(res.first_frame_completed);
  v(res.ffct);
  v(res.fflr);
  v.seq(res.frames, [](V& v, auto& f) {
    v(f.completion);
    v(f.loss_rate);
  });
  v(res.zero_rtt);
  v(res.ff_size);
  v(res.init.init_cwnd);
  v(res.init.init_pacing);
  v(res.init.used_ff_size);
  v(res.init.used_hx_qos);
  v(res.init.hx_stale);
  v(res.init.ff_pending);
  auto& stats = res.server_stats;
  v(stats.packets_sent);
  v(stats.data_packets_sent);
  v(stats.packets_received);
  v(stats.packets_acked);
  v(stats.packets_lost);
  v(stats.ptos_fired);
  v(stats.bytes_sent);
  v(stats.stream_bytes_sent);
  v(stats.stream_bytes_retransmitted);
  v(stats.handshake_rtt);
  v(res.retransmission_ratio);
  v(res.cookies_synced);
  v(res.client_cookies_received);
  v.seq(res.phases, [](V& v, auto& span) {
    v.phase_name(span.name);
    v(span.begin);
    v(span.end);
  });
  v(res.cwnd_fallback);
  v(res.zero_rtt_rejected);
  v(res.arena_bytes);
  v(stats.packets_undecodable);  // v2
}

template <typename V, typename R>
void walk_record(V& v, R& rec) {
  v(rec.conditions.min_rtt);
  v(rec.conditions.max_bw);
  v(rec.conditions.loss_rate);
  v(rec.conditions.buffer_bytes);
  v(rec.cookie_age);
  v(rec.zero_rtt);
  v(rec.had_cookie);
  v(rec.ff_size);
  v(rec.trace_open_failures);
  v.map(rec.results, [](V& v, auto& scheme, auto& res) {
    v.template enumeration<uint32_t>(scheme, core::Scheme::kWiraPlus);
    walk_result(v, res);
  });
  // v2: flight-recorder anomaly-trigger counts.
  v(rec.anomaly_stall_dumps);
  v(rec.anomaly_corner_dumps);
  v(rec.anomaly_decode_dumps);
  v(rec.anomaly_ffct_dumps);
}

template <typename V, typename R>
void walk_config(V& v, R& c) {
  v(c.seed);
  v(c.sessions);
  v(c.num_groups);
  v(c.p_zero_rtt);
  v(c.p_cookie);
  v.seq(c.schemes, [](V& v, auto& s) {
    v.template enumeration<uint32_t>(s, core::Scheme::kWiraPlus);
  });
  v(c.defaults.init_cwnd_exp);
  v(c.defaults.init_rtt_exp);
  v(c.staleness_threshold);
  v(c.theta_vf);
  v.template enumeration<uint8_t>(c.cc_algo, cc::CcAlgo::kCubic);
  v(c.sync_period);
  v(c.careful_resume);
  v.template enumeration<uint8_t>(c.container, media::Container::kMpegTs);
  v(c.collect_metrics);
  v(c.trace_sample);
  v(c.trace_dir);
  v(c.flight_recorder);
  v(c.anomaly_dir);
  v(c.anomaly_ffct);
  v(c.anomaly_max_dumps);
  v(c.fail_at_index);
  v(c.kill_at_index);
  v(c.crash_after_index);
  v(c.crash_after_signal);
}

}  // namespace

void encode_session_result(const SessionResult& res, CodecWriter& w) {
  Encoder e(w);
  walk_result(e, res);
}

bool decode_session_result(CodecReader& r, SessionResult* out) {
  Decoder d(r);
  walk_result(d, *out);
  return d.ok();
}

void encode_session_record(const SessionRecord& rec, CodecWriter& w) {
  Encoder e(w);
  walk_record(e, rec);
}

bool decode_session_record(CodecReader& r, SessionRecord* out) {
  Decoder d(r);
  walk_record(d, *out);
  return d.ok();
}

void encode_population_config(const PopulationConfig& c, CodecWriter& w) {
  Encoder e(w);
  walk_config(e, c);
}

bool decode_population_config(CodecReader& r, PopulationConfig* out) {
  Decoder d(r);
  walk_config(d, *out);
  return d.ok();
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

ssize_t FrameReader::fill(int fd) {
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(off_));
  off_ = 0;
  uint8_t tmp[65536];
  for (;;) {
    const ssize_t n = read(fd, tmp, sizeof(tmp));
    if (n < 0 && errno == EINTR) continue;
    if (n > 0) buf_.insert(buf_.end(), tmp, tmp + n);
    return n < 0 ? -1 : n;
  }
}

FrameStatus FrameReader::next(FrameView* out) {
  const std::span<const uint8_t> data(buf_.data(), buf_.size());
  if (!header_seen_) {
    const FrameStatus st = read_stream_header(data, &off_);
    if (st != FrameStatus::kOk) return st;
    header_seen_ = true;
  }
  return next_frame(data, &off_, out);
}

}  // namespace wira::exp
