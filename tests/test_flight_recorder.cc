// Flight-recorder tests (DESIGN.md §7): bounded POD rings, milestone
// retention under transport churn, signal-safe crash dumps, and the
// anomaly-trigger path of the population sweep — including that every
// materialized dump is joinable by the stock cross-vantage join.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/population_experiment.h"
#include "exp/session_runner.h"
#include "obs/flight_recorder.h"
#include "obs/trace_join.h"
#include "trace/tracer.h"

namespace wira::obs {
namespace {

namespace fs = std::filesystem;
using trace::Event;
using trace::EventType;

Event ev(TimeNs t, EventType type, uint64_t a = 0, uint64_t b = 0,
         const char* detail = "") {
  Event e{t, a, b, type};
  std::strncpy(e.detail, detail, sizeof(e.detail) - 1);
  return e;
}

TEST(FlightRecorder, SlotIsCompactPod) {
  EXPECT_EQ(sizeof(Event), 48u);
  EXPECT_TRUE(std::is_trivially_copyable_v<Event>);
}

TEST(FlightRecorder, MilestoneClassification) {
  // Join markers and anomaly signals must never be ring-evicted...
  for (const EventType t :
       {EventType::kRequestSent, EventType::kFrameComplete,
        EventType::kRequestReceived, EventType::kOriginByte,
        EventType::kFfParsed, EventType::kFirstVideoByte,
        EventType::kStallObserved, EventType::kCornerCase,
        EventType::kDecodeError, EventType::kHandshakeEvent,
        EventType::kInitApplied, EventType::kCookieEvent}) {
    EXPECT_TRUE(recorder_milestone(t)) << trace::event_type_name(t);
  }
  // ...while per-packet churn cycles through the ring.
  for (const EventType t :
       {EventType::kPacketSent, EventType::kPacketReceived,
        EventType::kPacketAcked, EventType::kPacketLost,
        EventType::kRttSample, EventType::kCwndSample,
        EventType::kPacingSample, EventType::kPtoFired,
        EventType::kCcStateChanged}) {
    EXPECT_FALSE(recorder_milestone(t)) << trace::event_type_name(t);
  }
}

TEST(FlightRecorder, RingEvictsOldestButMilestonesSurvive) {
  RecorderConfig cfg;
  cfg.milestone_capacity = 8;
  cfg.ring_capacity = 4;
  VantageRecorder rec(cfg);
  rec.on_event(ev(10, EventType::kRequestSent, 100));
  for (uint64_t p = 0; p < 20; ++p) {
    rec.on_event(ev(20 + static_cast<TimeNs>(p), EventType::kPacketSent, p));
  }
  rec.on_event(ev(50, EventType::kFrameComplete, 1, 60'000));

  EXPECT_EQ(rec.total_events(), 22u);
  EXPECT_EQ(rec.count(EventType::kPacketSent), 20u);  // eviction != forgetting
  EXPECT_EQ(rec.retained(), 2u + 4u);

  const std::vector<Event> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 6u);
  for (size_t k = 1; k < snap.size(); ++k) {
    EXPECT_GE(snap[k].time, snap[k - 1].time) << k;  // qlog needs sorted time
  }
  // The ring holds exactly the newest 4 packets, oldest first.
  std::vector<uint64_t> packets;
  bool saw_request = false, saw_frame = false;
  for (const Event& e : snap) {
    if (e.type == EventType::kPacketSent) packets.push_back(e.a);
    if (e.type == EventType::kRequestSent) saw_request = true;
    if (e.type == EventType::kFrameComplete) saw_frame = true;
  }
  EXPECT_EQ(packets, (std::vector<uint64_t>{16, 17, 18, 19}));
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_frame);
}

TEST(FlightRecorder, MilestoneOverflowSpillsIntoRing) {
  RecorderConfig cfg;
  cfg.milestone_capacity = 2;
  cfg.ring_capacity = 8;
  VantageRecorder rec(cfg);
  for (uint64_t k = 0; k < 4; ++k) {
    rec.on_event(
        ev(static_cast<TimeNs>(k), EventType::kCookieEvent, k, 0, "sealed"));
  }
  EXPECT_EQ(rec.count(EventType::kCookieEvent), 4u);
  EXPECT_EQ(rec.retained(), 4u);  // 2 milestones + 2 spilled into the ring
  const std::vector<Event> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(snap[k].a, k);
    EXPECT_STREQ(snap[k].detail, "sealed");
  }
}

TEST(FlightRecorder, ResetRecyclesWithoutCarryover) {
  VantageRecorder rec(RecorderConfig{});
  rec.on_event(ev(1, EventType::kRequestSent));
  rec.on_event(ev(2, EventType::kPacketSent, 7));
  rec.reset();
  EXPECT_EQ(rec.total_events(), 0u);
  EXPECT_EQ(rec.retained(), 0u);
  EXPECT_EQ(rec.count(EventType::kPacketSent), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
  rec.on_event(ev(3, EventType::kStallObserved, 500, 0, "recv_gap"));
  ASSERT_EQ(rec.snapshot().size(), 1u);
  EXPECT_STREQ(rec.snapshot()[0].detail, "recv_gap");
}

TEST(FlightRecorder, CrashDumpRoundTripsThroughRawFd) {
  FlightRecorder fr;
  fr.server().on_event(ev(5, EventType::kRequestReceived));
  fr.server().on_event(ev(9, EventType::kPacketSent, 1, 1200));
  fr.client().on_event(ev(3, EventType::kRequestSent, 120));
  fr.client().on_event(
      ev(40, EventType::kFrameComplete, 1, 60'000, "frame"));

  const fs::path path =
      fs::temp_directory_path() /
      ("wira_crash_rt_" + std::to_string(::getpid()) + ".bin");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(fr.crash_dump(fd, /*session_index=*/42, /*scheme=*/3));
  ::close(fd);

  std::ifstream in(path, std::ios::binary);
  FlightRecorder::CrashDump dump;
  std::string error;
  ASSERT_TRUE(FlightRecorder::read_crash_dump(in, &dump, &error)) << error;
  fs::remove(path);

  EXPECT_EQ(dump.session_index, 42u);
  EXPECT_EQ(dump.scheme, 3u);
  ASSERT_EQ(dump.server_events.size(), 2u);
  ASSERT_EQ(dump.client_events.size(), 2u);
  EXPECT_EQ(dump.server_events[0].type, EventType::kRequestReceived);
  EXPECT_EQ(dump.server_events[1].b, 1200u);
  EXPECT_EQ(dump.client_events[0].a, 120u);
  EXPECT_STREQ(dump.client_events[1].detail, "frame");
  EXPECT_EQ(dump.client_events[1].time, 40);
}

TEST(FlightRecorder, ReadCrashDumpRejectsGarbageAndTruncation) {
  FlightRecorder::CrashDump dump;
  std::string error;
  {
    std::istringstream garbage("this is not a crash dump at all........");
    EXPECT_FALSE(FlightRecorder::read_crash_dump(garbage, &dump, &error));
    EXPECT_FALSE(error.empty());
  }
  // A valid dump truncated anywhere must fail, never fabricate events.
  FlightRecorder fr;
  fr.client().on_event(ev(3, EventType::kRequestSent, 120));
  const fs::path path =
      fs::temp_directory_path() /
      ("wira_crash_trunc_" + std::to_string(::getpid()) + ".bin");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(fr.crash_dump(fd, 1, 0));
  ::close(fd);
  std::ifstream in(path, std::ios::binary);
  std::stringstream whole;
  whole << in.rdbuf();
  const std::string bytes = whole.str();
  fs::remove(path);
  for (size_t keep = 0; keep < bytes.size(); keep += 13) {
    std::istringstream cut(bytes.substr(0, keep));
    EXPECT_FALSE(FlightRecorder::read_crash_dump(cut, &dump, &error))
        << "prefix " << keep;
  }
}

// ---- end-to-end: recorder attached to a real session --------------------

media::StreamProfile default_stream() {
  media::StreamProfile p;
  p.stream_id = 1;
  p.iframe_mean_bytes = 60'000;
  p.iframe_intra_cv = 0.2;
  return p;
}

exp::SessionConfig clean_path_session() {
  exp::SessionConfig cfg;
  cfg.path.bandwidth = mbps(20);
  cfg.path.rtt = milliseconds(40);
  cfg.path.loss_rate = 0.0;
  cfg.path.buffer_bytes = 128 * 1024;
  cfg.stream = default_stream();
  cfg.scheme = core::Scheme::kBaseline;
  cfg.seed = 7;
  return cfg;
}

TEST(FlightRecorder, SessionDumpJoinsLikeASampledPair) {
  FlightRecorder fr;
  exp::SessionConfig cfg = clean_path_session();
  cfg.recorder = &fr;
  const exp::SessionResult res = exp::run_session(cfg);
  ASSERT_TRUE(res.first_frame_completed);

  // Both vantages recorded: the server streamed packets, the client sent
  // the request and completed frame 1.
  EXPECT_GT(fr.server().total_events(), 0u);
  EXPECT_GT(fr.client().total_events(), 0u);
  EXPECT_EQ(fr.client().count(EventType::kRequestSent), 1u);
  EXPECT_GE(fr.client().count(EventType::kFrameComplete), 1u);

  std::ostringstream server_os, client_os;
  fr.write_sqlog_pair(server_os, client_os, "anomaly_7_Baseline");

  ParsedQlog server, client;
  std::string error;
  ASSERT_TRUE(parse_sqlog_text(server_os.str(), &server, &error)) << error;
  ASSERT_TRUE(parse_sqlog_text(client_os.str(), &client, &error)) << error;
  EXPECT_EQ(server.vantage_type, "server");
  EXPECT_EQ(client.vantage_type, "client");
  EXPECT_EQ(server.group_id, "anomaly_7_Baseline");
  EXPECT_EQ(client.group_id, server.group_id);

  JoinedPhases joined;
  ASSERT_TRUE(join_vantages(client, server, &joined, &error)) << error;
  EXPECT_GT(joined.ffct_us, 0u);
}

TEST(FlightRecorder, RecorderDoesNotPerturbResults) {
  exp::SessionConfig cfg = clean_path_session();
  const exp::SessionResult plain = exp::run_session(cfg);
  FlightRecorder fr;
  cfg.recorder = &fr;
  const exp::SessionResult taped = exp::run_session(cfg);
  EXPECT_EQ(plain.ffct, taped.ffct);
  EXPECT_EQ(plain.server_stats.packets_sent, taped.server_stats.packets_sent);
  EXPECT_EQ(plain.fflr, taped.fflr);
}

TEST(FlightRecorder, CoexistsWithPhaseCollection) {
  exp::SessionConfig cfg = clean_path_session();
  cfg.collect_phases = true;
  const exp::SessionResult plain = exp::run_session(cfg);
  FlightRecorder fr;
  cfg.recorder = &fr;
  const exp::SessionResult taped = exp::run_session(cfg);
  ASSERT_FALSE(taped.phases.empty());  // phase extraction still works
  ASSERT_EQ(plain.phases.size(), taped.phases.size());
  for (size_t p = 0; p < plain.phases.size(); ++p) {
    EXPECT_EQ(plain.phases[p].begin, taped.phases[p].begin) << p;
    EXPECT_EQ(plain.phases[p].end, taped.phases[p].end) << p;
  }
  EXPECT_GT(fr.server().total_events(), 0u);
}

// ---- population-sweep anomaly path --------------------------------------

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             (tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

size_t count_files_with(const fs::path& dir, const std::string& needle) {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(needle) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

TEST(FlightRecorder, PopulationFfctTriggerWritesJoinableDumps) {
  TempDir dir("wira_anomaly_ffct");
  exp::PopulationConfig cfg;
  cfg.sessions = 3;
  cfg.seed = 11;
  cfg.anomaly_dir = dir.path.string();
  cfg.anomaly_ffct = nanoseconds(1);  // every completed session trips it

  const auto records = exp::run_population(cfg);
  ASSERT_EQ(records.size(), cfg.sessions);
  // A 1 ns threshold trips every run — but a run that also hit a
  // higher-priority condition (a natural corner case, say) is labeled by
  // that trigger instead, so the *total* covers the sweep.
  uint64_t total_dumps = 0, ffct_dumps = 0;
  for (const auto& rec : records) {
    total_dumps += rec.anomaly_stall_dumps + rec.anomaly_corner_dumps +
                   rec.anomaly_decode_dumps + rec.anomaly_ffct_dumps;
    ffct_dumps += rec.anomaly_ffct_dumps;
  }
  EXPECT_EQ(total_dumps, cfg.sessions * cfg.schemes.size());
  EXPECT_GT(ffct_dumps, 0u);

  // Every dumped pair parses and joins with the stock checker library.
  size_t joined_pairs = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    const std::string suffix = ".client.sqlog";
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - suffix.size());
    ParsedQlog client, server;
    std::string error;
    ASSERT_TRUE(parse_sqlog_file(
        (dir.path / (base + ".client.sqlog")).string(), &client, &error))
        << error;
    ASSERT_TRUE(parse_sqlog_file(
        (dir.path / (base + ".server.sqlog")).string(), &server, &error))
        << base << ": " << error;
    JoinedPhases joined;
    ASSERT_TRUE(join_vantages(client, server, &joined, &error))
        << base << ": " << error;
    ++joined_pairs;
  }
  EXPECT_EQ(joined_pairs, cfg.sessions * cfg.schemes.size());
}

TEST(FlightRecorder, DumpFilesAreCappedButCountersAreNot) {
  TempDir dir("wira_anomaly_cap");
  exp::PopulationConfig cfg;
  cfg.sessions = 4;
  cfg.seed = 11;
  cfg.anomaly_dir = dir.path.string();
  cfg.anomaly_ffct = nanoseconds(1);
  cfg.anomaly_max_dumps = 2;

  const auto records = exp::run_population(cfg);
  uint64_t total_dumps = 0;
  for (const auto& rec : records) {
    total_dumps += rec.anomaly_stall_dumps + rec.anomaly_corner_dumps +
                   rec.anomaly_decode_dumps + rec.anomaly_ffct_dumps;
  }
  EXPECT_EQ(total_dumps, cfg.sessions * cfg.schemes.size());
  EXPECT_EQ(count_files_with(dir.path, ".sqlog"), 2u * 2u);  // 2 pairs
}

TEST(FlightRecorder, AnomalyCountersAreDeterministicAcrossRunners) {
  exp::PopulationConfig cfg;
  cfg.sessions = 8;
  cfg.seed = 11;
  cfg.anomaly_ffct = nanoseconds(1);  // counters need no anomaly_dir

  const auto serial = exp::run_population(cfg);
  cfg.threads = 4;
  const auto threaded = exp::run_population(cfg);
  cfg.threads = 1;
  cfg.processes = 2;
  const auto sharded = exp::run_population(cfg);
  ASSERT_EQ(serial.size(), threaded.size());
  ASSERT_EQ(serial.size(), sharded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].anomaly_ffct_dumps, threaded[i].anomaly_ffct_dumps);
    EXPECT_EQ(serial[i].anomaly_ffct_dumps, sharded[i].anomaly_ffct_dumps);
    EXPECT_EQ(serial[i].anomaly_stall_dumps, sharded[i].anomaly_stall_dumps);
    EXPECT_EQ(serial[i].anomaly_corner_dumps,
              sharded[i].anomaly_corner_dumps);
  }
}

TEST(FlightRecorder, RecorderOffWritesNothingAndCountsNothing) {
  TempDir dir("wira_anomaly_off");
  exp::PopulationConfig cfg;
  cfg.sessions = 2;
  cfg.seed = 11;
  cfg.flight_recorder = false;
  cfg.anomaly_dir = dir.path.string();
  cfg.anomaly_ffct = nanoseconds(1);
  const auto records = exp::run_population(cfg);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.anomaly_ffct_dumps, 0u);
    EXPECT_EQ(rec.anomaly_stall_dumps, 0u);
    EXPECT_EQ(rec.anomaly_corner_dumps, 0u);
    EXPECT_EQ(rec.anomaly_decode_dumps, 0u);
  }
  // With the recorder off the runner never even creates the dump dir.
  EXPECT_FALSE(fs::exists(dir.path));
}

}  // namespace
}  // namespace wira::obs
