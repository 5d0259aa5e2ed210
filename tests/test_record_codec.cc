// Tests for the multiprocess runner's wire codec (exp/record_codec):
// primitive round trips, golden pins of the value layouts, bit-exact value
// round trips, frame-layer truncation/corruption rejection (the
// crash-containment half of the multiprocess contract), and FrameReader
// over a real pipe.
#include "exp/record_codec.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>

#include "obs/phase_timeline.h"
#include "util/units.h"

namespace wira::exp {
namespace {

std::string to_hex(std::span<const uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

/// A SessionRecord exercising every field the codec carries, including
/// the optional vectors (frames, phases) and the corner-case flags.
SessionRecord sample_record() {
  SessionRecord rec;
  rec.conditions.min_rtt = milliseconds(35);
  rec.conditions.max_bw = mbps(20);
  rec.conditions.loss_rate = 0.0078125;
  rec.conditions.buffer_bytes = 131072;
  rec.cookie_age = minutes(4);
  rec.zero_rtt = true;
  rec.had_cookie = true;
  rec.ff_size = 41234;
  rec.trace_open_failures = 2;

  SessionResult res;
  res.first_frame_completed = true;
  res.ffct = milliseconds(212);
  res.fflr = 0.03125;
  res.frames.push_back(FrameStat{milliseconds(250), 0.0});
  res.frames.push_back(FrameStat{kNoTime, 0.25});
  res.zero_rtt = true;
  res.ff_size = 41234;
  res.init.init_cwnd = 43000;
  res.init.init_pacing = mbps(18);
  res.init.used_ff_size = true;
  res.init.used_hx_qos = true;
  res.init.hx_stale = false;
  res.init.ff_pending = true;
  res.server_stats.packets_sent = 321;
  res.server_stats.data_packets_sent = 300;
  res.server_stats.packets_received = 280;
  res.server_stats.packets_acked = 270;
  res.server_stats.packets_lost = 3;
  res.server_stats.ptos_fired = 1;
  res.server_stats.bytes_sent = 390000;
  res.server_stats.stream_bytes_sent = 370000;
  res.server_stats.stream_bytes_retransmitted = 2800;
  res.server_stats.packets_undecodable = 4;  // v2 field
  res.server_stats.handshake_rtt = milliseconds(36);
  res.retransmission_ratio = 0.0075683593750;
  res.cookies_synced = 2;
  res.client_cookies_received = 2;
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    obs::PhaseSpan span;
    span.name = obs::kPhaseNames[p];
    span.begin = milliseconds(static_cast<int64_t>(p) * 40);
    span.end = milliseconds(static_cast<int64_t>(p + 1) * 40);
    res.phases.push_back(span);
  }
  res.cwnd_fallback = true;
  res.zero_rtt_rejected = false;
  res.arena_bytes = 777216;

  rec.results.emplace(core::Scheme::kBaseline, res);
  res.ffct = milliseconds(95);
  res.phases.clear();
  res.frames.clear();
  rec.results.emplace(core::Scheme::kWira, res);

  // v2 flight-recorder anomaly-trigger counters.
  rec.anomaly_stall_dumps = 1;
  rec.anomaly_corner_dumps = 2;
  rec.anomaly_decode_dumps = 3;
  rec.anomaly_ffct_dumps = 4;
  return rec;
}

bool records_equal(const SessionRecord& a, const SessionRecord& b) {
  std::vector<uint8_t> ea, eb;
  CodecWriter wa(ea), wb(eb);
  encode_session_record(a, wa);
  encode_session_record(b, wb);
  return ea == eb;
}

TEST(CodecPrimitives, RoundTrip) {
  std::vector<uint8_t> buf;
  CodecWriter w(buf);
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-0.125);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  w.str("");

  CodecReader r(buf);
  uint8_t u8v = 0;
  uint32_t u32v = 0;
  uint64_t u64v = 0;
  int64_t i64v = 0;
  double f64v = 0;
  bool b1 = false, b2 = true;
  std::string s1, s2 = "x";
  EXPECT_TRUE(r.u8(&u8v));
  EXPECT_TRUE(r.u32(&u32v));
  EXPECT_TRUE(r.u64(&u64v));
  EXPECT_TRUE(r.i64(&i64v));
  EXPECT_TRUE(r.f64(&f64v));
  EXPECT_TRUE(r.boolean(&b1));
  EXPECT_TRUE(r.boolean(&b2));
  EXPECT_TRUE(r.str(&s1));
  EXPECT_TRUE(r.str(&s2));
  EXPECT_EQ(u8v, 0xAB);
  EXPECT_EQ(u32v, 0xDEADBEEFu);
  EXPECT_EQ(u64v, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64v, -42);
  EXPECT_EQ(f64v, -0.125);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.failed());
}

TEST(CodecPrimitives, ReadsPastEndFailAndLatch) {
  std::vector<uint8_t> buf;
  CodecWriter w(buf);
  w.u32(7);
  CodecReader r(buf);
  uint64_t v = 0;
  EXPECT_FALSE(r.u64(&v));  // only 4 bytes present
  EXPECT_TRUE(r.failed());
  uint8_t b = 0;
  EXPECT_FALSE(r.u8(&b));  // latched: even in-bounds reads fail now
}

TEST(CodecPrimitives, BooleanRejectsNonCanonicalBytes) {
  const std::vector<uint8_t> buf = {2};
  CodecReader r(buf);
  bool v = false;
  EXPECT_FALSE(r.boolean(&v));
  EXPECT_TRUE(r.failed());
}

TEST(SessionRecordCodec, RoundTripIsBitExact) {
  const SessionRecord in = sample_record();
  std::vector<uint8_t> buf;
  CodecWriter w(buf);
  encode_session_record(in, w);
  CodecReader r(buf);
  SessionRecord out;
  ASSERT_TRUE(decode_session_record(r, &out));
  EXPECT_EQ(r.remaining(), 0u);

  EXPECT_TRUE(records_equal(in, out));
  // Spot checks in the clear, so a symmetric codec bug (both directions
  // dropping a field) cannot hide behind the re-encode comparison.
  EXPECT_EQ(out.conditions.max_bw, in.conditions.max_bw);
  EXPECT_EQ(out.trace_open_failures, 2u);
  ASSERT_EQ(out.results.size(), 2u);
  const SessionResult& res = out.results.at(core::Scheme::kBaseline);
  EXPECT_EQ(res.ffct, milliseconds(212));
  ASSERT_EQ(res.frames.size(), 2u);
  EXPECT_EQ(res.frames[1].completion, kNoTime);
  EXPECT_EQ(res.frames[1].loss_rate, 0.25);
  ASSERT_EQ(res.phases.size(), obs::kNumPhases);
  // Decoded names are the static literals, usable by the phase tables.
  EXPECT_EQ(res.phases[0].name, obs::kPhaseNames[0]);
  EXPECT_EQ(res.server_stats.handshake_rtt, milliseconds(36));
  EXPECT_EQ(res.retransmission_ratio, 0.0075683593750);
  EXPECT_EQ(res.arena_bytes, 777216u);
  EXPECT_TRUE(res.init.ff_pending);
  // v2 additions.
  EXPECT_EQ(res.server_stats.packets_undecodable, 4u);
  EXPECT_EQ(out.anomaly_stall_dumps, 1u);
  EXPECT_EQ(out.anomaly_corner_dumps, 2u);
  EXPECT_EQ(out.anomaly_decode_dumps, 3u);
  EXPECT_EQ(out.anomaly_ffct_dumps, 4u);
}

// Pins every byte of sample_record()'s encoding (both results, the
// frames and phase vectors, the v2 counters) by length and checksum.
TEST(SessionRecordCodec, GoldenDigest) {
  std::vector<uint8_t> buf;
  CodecWriter w(buf);
  encode_session_record(sample_record(), w);
  EXPECT_EQ(buf.size(), 571u);
  EXPECT_EQ(fnv1a64(buf), 0x37436fc47541a6f6ull);
}

TEST(SessionRecordCodec, RejectsOutOfRangeScheme) {
  const SessionRecord in = sample_record();
  std::vector<uint8_t> buf;
  CodecWriter w(buf);
  encode_session_record(in, w);
  // The first scheme id sits right after the fixed record prefix
  // (4×8 conditions + 8 cookie_age + 2 bools + 8 ff_size + 8 failures +
  // 4 result count).
  const size_t scheme_off = 32 + 8 + 2 + 8 + 8 + 4;
  ASSERT_EQ(buf[scheme_off],
            static_cast<uint8_t>(core::Scheme::kBaseline));
  buf[scheme_off] = 0x7F;
  CodecReader r(buf);
  SessionRecord out;
  EXPECT_FALSE(decode_session_record(r, &out));
}

TEST(SessionRecordCodec, RejectsTruncationAtEveryPrefix) {
  const SessionRecord in = sample_record();
  std::vector<uint8_t> buf;
  CodecWriter w(buf);
  encode_session_record(in, w);
  for (size_t keep = 0; keep < buf.size(); keep += 7) {
    CodecReader r(std::span<const uint8_t>(buf.data(), keep));
    SessionRecord out;
    EXPECT_FALSE(decode_session_record(r, &out)) << "prefix " << keep;
  }
}

// ---- frame layer --------------------------------------------------------

std::vector<uint8_t> sample_stream() {
  std::vector<uint8_t> out;
  append_stream_header(out);
  std::vector<uint8_t> payload;
  CodecWriter w(payload);
  w.u64(3);
  encode_session_record(sample_record(), w);
  append_frame(FrameType::kSessionRecord, payload, out);
  append_frame(FrameType::kEnd, {}, out);
  return out;
}

TEST(Frames, StreamHeaderGolden) {
  std::vector<uint8_t> out;
  append_stream_header(out);
  EXPECT_EQ(to_hex(out), "3143525702000000");  // "1CRW" LE + version 2
}

TEST(Frames, EndFrameGolden) {
  std::vector<uint8_t> out;
  append_frame(FrameType::kEnd, {}, out);
  // type 3, len 0, fnv1a64("") = 0xcbf29ce484222325 LE.
  EXPECT_EQ(to_hex(out), "0300000000" "25232284e49cf2cb");
}

TEST(Frames, RoundTrip) {
  const std::vector<uint8_t> stream = sample_stream();
  size_t off = 0;
  ASSERT_EQ(read_stream_header(stream, &off), FrameStatus::kOk);
  FrameView frame;
  ASSERT_EQ(next_frame(stream, &off, &frame), FrameStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kSessionRecord);
  CodecReader r(frame.payload);
  uint64_t index = 0;
  SessionRecord rec;
  ASSERT_TRUE(r.u64(&index));
  ASSERT_TRUE(decode_session_record(r, &rec));
  EXPECT_EQ(index, 3u);
  EXPECT_TRUE(records_equal(rec, sample_record()));
  ASSERT_EQ(next_frame(stream, &off, &frame), FrameStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kEnd);
  EXPECT_EQ(off, stream.size());
}

TEST(Frames, WrongVersionRejected) {
  std::vector<uint8_t> stream = sample_stream();
  stream[4] ^= 0xFF;  // version field
  size_t off = 0;
  EXPECT_EQ(read_stream_header(stream, &off), FrameStatus::kCorrupt);
}

TEST(Frames, EveryTruncationIsNeedMoreNeverOk) {
  const std::vector<uint8_t> stream = sample_stream();
  // Walk every prefix that cuts inside the record frame or the end frame.
  for (size_t keep = 8; keep < stream.size(); keep += 5) {
    const std::span<const uint8_t> cut(stream.data(), keep);
    size_t off = 0;
    ASSERT_EQ(read_stream_header(cut, &off), FrameStatus::kOk);
    FrameView frame;
    for (;;) {
      const FrameStatus st = next_frame(cut, &off, &frame);
      if (st == FrameStatus::kOk) {
        ASSERT_LE(off, keep);
        if (frame.type == FrameType::kEnd) break;
        continue;
      }
      EXPECT_EQ(st, FrameStatus::kNeedMore) << "prefix " << keep;
      break;
    }
  }
}

TEST(Frames, PayloadCorruptionIsDetectedByChecksum) {
  std::vector<uint8_t> stream = sample_stream();
  // Flip one byte well inside the record frame's payload.
  const size_t payload_start = 8 + 13;  // header + frame prelude
  stream[payload_start + 40] ^= 0x01;
  size_t off = 0;
  ASSERT_EQ(read_stream_header(stream, &off), FrameStatus::kOk);
  FrameView frame;
  EXPECT_EQ(next_frame(stream, &off, &frame), FrameStatus::kCorrupt);
}

TEST(Frames, GarbageStreamRejected) {
  std::vector<uint8_t> garbage(256);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  size_t off = 0;
  EXPECT_EQ(read_stream_header(garbage, &off), FrameStatus::kCorrupt);
}

// ---- PopulationConfig codec (the kConfig frame wira_workerd consumes) ---

// Every encoded field set to a distinctive non-default value.
PopulationConfig sample_population_config() {
  PopulationConfig c;
  c.seed = 0x1122334455667788ull;
  c.sessions = 4097;
  c.num_groups = 17;
  c.p_zero_rtt = 0.125;
  c.p_cookie = 0.875;
  c.schemes = {core::Scheme::kWira, core::Scheme::kBaseline,
               core::Scheme::kWiraPlus};
  c.defaults.init_cwnd_exp = 23;
  c.defaults.init_rtt_exp = -456789;
  c.staleness_threshold = 987654321;
  c.theta_vf = 3;
  c.cc_algo = cc::CcAlgo::kCubic;
  c.sync_period = 13579;
  c.careful_resume = true;
  c.container = media::Container::kMpegTs;
  c.collect_metrics = true;
  c.trace_sample = 7;
  c.trace_dir = "/tmp/wira-traces";
  c.flight_recorder = false;
  c.anomaly_dir = "/tmp/wira-anomalies";
  c.anomaly_ffct = 1234567;
  c.anomaly_max_dumps = 5;
  c.fail_at_index = 11;
  c.kill_at_index = 12;
  c.crash_after_index = 13;
  c.crash_after_signal = SIGTERM;
  return c;
}

TEST(PopulationConfigCodec, RoundTripIsBitExact) {
  const PopulationConfig orig = sample_population_config();
  std::vector<uint8_t> encoded;
  CodecWriter w(encoded);
  encode_population_config(orig, w);

  CodecReader r(encoded);
  PopulationConfig decoded;
  ASSERT_TRUE(decode_population_config(r, &decoded));
  EXPECT_EQ(r.remaining(), 0u);

  // Re-encoding the decode must reproduce the exact bytes: every field
  // the codec carries round-trips losslessly.
  std::vector<uint8_t> reencoded;
  CodecWriter w2(reencoded);
  encode_population_config(decoded, w2);
  EXPECT_EQ(encoded, reencoded);

  EXPECT_EQ(decoded.seed, orig.seed);
  EXPECT_EQ(decoded.sessions, orig.sessions);
  EXPECT_EQ(decoded.schemes, orig.schemes);
  EXPECT_EQ(decoded.cc_algo, orig.cc_algo);
  EXPECT_EQ(decoded.container, orig.container);
  EXPECT_EQ(decoded.trace_dir, orig.trace_dir);
  EXPECT_EQ(decoded.anomaly_dir, orig.anomaly_dir);
  EXPECT_EQ(decoded.kill_at_index, orig.kill_at_index);
}

// Golden bytes of the kConfig payload: every shipped field off its
// default, in wire order.  Breaking this pin means the layout changed and
// kRecordCodecVersion must be bumped.
TEST(PopulationConfigCodec, GoldenBytes) {
  std::vector<uint8_t> encoded;
  CodecWriter w(encoded);
  encode_population_config(sample_population_config(), w);
  EXPECT_EQ(to_hex(encoded),
      // seed
      "8877665544332211"
      // sessions = 4097
      "0110000000000000"
      // num_groups = 17
      "1100000000000000"
      // p_zero_rtt = 0.125
      "000000000000c03f"
      // p_cookie = 0.875
      "000000000000ec3f"
      // schemes: count 3, kWira, kBaseline, kWiraPlus (u32 each)
      "03000000030000000000000005000000"
      // defaults.init_cwnd_exp = 23
      "1700000000000000"
      // defaults.init_rtt_exp = -456789
      "ab07f9ffffffffff"
      // staleness_threshold = 987654321
      "b168de3a00000000"
      // theta_vf = 3 (u32)
      "03000000"
      // cc_algo = kCubic (u8)
      "02"
      // sync_period = 13579
      "0b35000000000000"
      // careful_resume
      "01"
      // container = kMpegTs (u8)
      "01"
      // collect_metrics
      "01"
      // trace_sample = 7
      "0700000000000000"
      // trace_dir "/tmp/wira-traces"
      "100000002f746d702f776972612d747261636573"
      // flight_recorder = false
      "00"
      // anomaly_dir "/tmp/wira-anomalies"
      "130000002f746d702f776972612d616e6f6d616c696573"
      // anomaly_ffct = 1234567
      "87d6120000000000"
      // anomaly_max_dumps = 5
      "0500000000000000"
      // fail_at_index = 11
      "0b00000000000000"
      // kill_at_index = 12
      "0c00000000000000"
      // crash_after_index = 13
      "0d00000000000000"
      // crash_after_signal = SIGTERM (15, as i64)
      "0f00000000000000");
}

TEST(PopulationConfigCodec, DispatcherOnlyFieldsAreNotShipped) {
  // threads/processes/chunk/workers/retry_dead_shards steer the
  // *dispatcher*; the worker always runs its chunks serially and learns
  // their bounds from kChunkAssign frames, so they must not leak into
  // the wire image.
  PopulationConfig a = sample_population_config();
  PopulationConfig b = a;
  b.threads = 8;
  b.processes = 4;
  b.chunk = 1;
  b.workers = {"127.0.0.1:9999"};
  b.retry_dead_shards = true;
  std::vector<uint8_t> ea, eb;
  CodecWriter wa(ea), wb(eb);
  encode_population_config(a, wa);
  encode_population_config(b, wb);
  EXPECT_EQ(ea, eb);
}

TEST(PopulationConfigCodec, RejectsOutOfRangeEnums) {
  {
    PopulationConfig c = sample_population_config();
    c.schemes = {static_cast<core::Scheme>(200)};
    std::vector<uint8_t> enc;
    CodecWriter w(enc);
    encode_population_config(c, w);
    CodecReader r(enc);
    PopulationConfig out;
    EXPECT_FALSE(decode_population_config(r, &out));
  }
  {
    PopulationConfig c = sample_population_config();
    c.cc_algo = static_cast<cc::CcAlgo>(9);
    std::vector<uint8_t> enc;
    CodecWriter w(enc);
    encode_population_config(c, w);
    CodecReader r(enc);
    PopulationConfig out;
    EXPECT_FALSE(decode_population_config(r, &out));
  }
  {
    PopulationConfig c = sample_population_config();
    c.container = static_cast<media::Container>(7);
    std::vector<uint8_t> enc;
    CodecWriter w(enc);
    encode_population_config(c, w);
    CodecReader r(enc);
    PopulationConfig out;
    EXPECT_FALSE(decode_population_config(r, &out));
  }
}

TEST(PopulationConfigCodec, RejectsTruncationAtEveryPrefix) {
  std::vector<uint8_t> encoded;
  CodecWriter w(encoded);
  encode_population_config(sample_population_config(), w);
  for (size_t keep = 0; keep < encoded.size(); ++keep) {
    const std::span<const uint8_t> cut(encoded.data(), keep);
    CodecReader r(cut);
    PopulationConfig out;
    EXPECT_FALSE(decode_population_config(r, &out)) << keep;
  }
}

// ---- control frames (dispatcher -> worker direction) --------------------

TEST(Frames, ControlFramesRoundTrip) {
  std::vector<uint8_t> stream;
  append_stream_header(stream);
  {
    std::vector<uint8_t> payload;
    CodecWriter w(payload);
    w.u64(3);  // worker id
    encode_population_config(sample_population_config(), w);
    append_frame(FrameType::kConfig, payload, stream);
  }
  {
    std::vector<uint8_t> payload;
    CodecWriter w(payload);
    w.u64(128);
    w.u64(192);
    append_frame(FrameType::kChunkAssign, payload, stream);
  }
  append_frame(FrameType::kEnd, {}, stream);

  size_t off = 0;
  ASSERT_EQ(read_stream_header(stream, &off), FrameStatus::kOk);
  FrameView frame;
  ASSERT_EQ(next_frame(stream, &off, &frame), FrameStatus::kOk);
  ASSERT_EQ(frame.type, FrameType::kConfig);
  {
    CodecReader r(frame.payload);
    uint64_t worker = 0;
    PopulationConfig cfg;
    ASSERT_TRUE(r.u64(&worker));
    ASSERT_TRUE(decode_population_config(r, &cfg));
    EXPECT_EQ(worker, 3u);
    EXPECT_EQ(cfg.sessions, 4097u);
    EXPECT_EQ(r.remaining(), 0u);
  }
  ASSERT_EQ(next_frame(stream, &off, &frame), FrameStatus::kOk);
  ASSERT_EQ(frame.type, FrameType::kChunkAssign);
  {
    CodecReader r(frame.payload);
    uint64_t b = 0, e = 0;
    ASSERT_TRUE(r.u64(&b));
    ASSERT_TRUE(r.u64(&e));
    EXPECT_EQ(b, 128u);
    EXPECT_EQ(e, 192u);
  }
  ASSERT_EQ(next_frame(stream, &off, &frame), FrameStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kEnd);
  EXPECT_EQ(off, stream.size());
}

TEST(Frames, UnknownFrameTypeIsCorrupt) {
  // 2 is the retired registry frame: inside the assigned range, but no
  // longer a frame any side writes or reads.
  for (uint8_t type : {2, 6}) {
    std::vector<uint8_t> stream;
    append_stream_header(stream);
    append_frame(static_cast<FrameType>(type), {}, stream);
    size_t off = 0;
    ASSERT_EQ(read_stream_header(stream, &off), FrameStatus::kOk);
    FrameView frame;
    EXPECT_EQ(next_frame(stream, &off, &frame), FrameStatus::kCorrupt)
        << "type " << int{type};
  }
}

// ---- FrameReader ----------------------------------------------------------

/// A pipe whose write end the test feeds and whose read end a FrameReader
/// fills from.
class Pipe {
 public:
  Pipe() { EXPECT_EQ(pipe(fds_), 0); }
  ~Pipe() {
    close(fds_[0]);
    if (fds_[1] >= 0) close(fds_[1]);
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  int read_fd() const { return fds_[0]; }
  void write(std::span<const uint8_t> bytes) {
    ASSERT_EQ(::write(fds_[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_write() {
    close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

/// Every frame the reader yields until kNeedMore, as (type, payload).
void take_frames(FrameReader& reader,
                 std::vector<std::pair<FrameType, std::vector<uint8_t>>>* out) {
  FrameView view;
  FrameStatus st;
  while ((st = reader.next(&view)) == FrameStatus::kOk) {
    out->emplace_back(view.type, std::vector<uint8_t>(view.payload.begin(),
                                                      view.payload.end()));
  }
  EXPECT_EQ(st, FrameStatus::kNeedMore);
}

TEST(FrameReader, ByteAtATimeParsesLikeOneWrite) {
  const std::vector<uint8_t> stream = sample_stream();
  std::vector<std::pair<FrameType, std::vector<uint8_t>>> whole, trickled;
  {
    Pipe p;
    FrameReader reader;
    p.write(stream);
    ASSERT_EQ(reader.fill(p.read_fd()), static_cast<ssize_t>(stream.size()));
    take_frames(reader, &whole);
  }
  {
    Pipe p;
    FrameReader reader;
    for (const uint8_t b : stream) {
      p.write({&b, 1});
      ASSERT_EQ(reader.fill(p.read_fd()), 1);
      take_frames(reader, &trickled);
    }
    p.close_write();
    EXPECT_EQ(reader.fill(p.read_fd()), 0);  // EOF
    EXPECT_EQ(reader.pending(), 0u);
  }
  ASSERT_EQ(whole.size(), 2u);
  EXPECT_EQ(whole[0].first, FrameType::kSessionRecord);
  EXPECT_EQ(whole[1].first, FrameType::kEnd);
  EXPECT_EQ(trickled, whole);
}

TEST(FrameReader, BadHeaderIsToldApartFromBadFrame) {
  {
    std::vector<uint8_t> stream = sample_stream();
    stream[4] ^= 0xFF;  // version field
    Pipe p;
    FrameReader reader;
    p.write(stream);
    ASSERT_GT(reader.fill(p.read_fd()), 0);
    FrameView view;
    EXPECT_EQ(reader.next(&view), FrameStatus::kCorrupt);
    EXPECT_FALSE(reader.header_seen());
  }
  {
    std::vector<uint8_t> stream = sample_stream();
    stream[8 + 13 + 40] ^= 0x01;  // inside the record frame's payload
    Pipe p;
    FrameReader reader;
    p.write(stream);
    ASSERT_GT(reader.fill(p.read_fd()), 0);
    FrameView view;
    EXPECT_EQ(reader.next(&view), FrameStatus::kCorrupt);
    EXPECT_TRUE(reader.header_seen());
  }
}

TEST(FrameReader, PendingCountsBytesAfterEndMarker) {
  std::vector<uint8_t> stream = sample_stream();
  const std::vector<uint8_t> junk = {0xDE, 0xAD, 0xBE};
  stream.insert(stream.end(), junk.begin(), junk.end());
  Pipe p;
  FrameReader reader;
  p.write(stream);
  ASSERT_GT(reader.fill(p.read_fd()), 0);
  FrameView view;
  ASSERT_EQ(reader.next(&view), FrameStatus::kOk);
  EXPECT_EQ(view.type, FrameType::kSessionRecord);
  EXPECT_EQ(reader.pending(), 13u + junk.size());  // the end frame + junk
  ASSERT_EQ(reader.next(&view), FrameStatus::kOk);
  EXPECT_EQ(view.type, FrameType::kEnd);
  EXPECT_EQ(reader.pending(), junk.size());
}

}  // namespace
}  // namespace wira::exp
