// Tests for the experiment harness itself: paired A/B integrity,
// determinism, metric plausibility, the bucketing collectors, anomaly
// triggers and the traced replays behind anomaly and crash dumps.
#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "exp/population_experiment.h"
#include "exp/record_codec.h"
#include "exp/record_sink.h"
#include "exp/session_export.h"
#include "exp/session_runner.h"
#include "exp/table.h"
#include "obs/metrics.h"
#include "obs/rss.h"
#include "obs/qlog.h"
#include "obs/trace_join.h"
#include "trace/tracer.h"
#include "util/logging.h"

#if defined(__SANITIZE_ADDRESS__)
// AddressSanitizer's runtime: returns quarantined (freed) chunks to the
// allocator and releases free memory to the OS.
extern "C" void __sanitizer_purge_allocator();
#endif

namespace wira::exp {
namespace {

PopulationConfig small_config(uint64_t seed = 11) {
  PopulationConfig cfg;
  cfg.sessions = 12;
  cfg.seed = seed;
  return cfg;
}

TEST(Harness, PopulationIsDeterministic) {
  const auto a = run_population(small_config());
  const auto b = run_population(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].results.size(), b[i].results.size());
    for (const auto& [scheme, res] : a[i].results) {
      EXPECT_EQ(res.ffct, b[i].results.at(scheme).ffct);
      EXPECT_EQ(res.server_stats.packets_sent,
                b[i].results.at(scheme).server_stats.packets_sent);
    }
  }
}

// Phase spans are only collected when metrics are on, and they partition
// FFCT exactly for every completed session.
TEST(Harness, PhaseSpansPartitionFfctExactly) {
  PopulationConfig cfg = small_config(31);
  cfg.sessions = 16;
  cfg.collect_metrics = true;
  const auto records = run_population(cfg);
  size_t checked = 0;
  for (const auto& r : records) {
    for (const auto& [scheme, res] : r.results) {
      if (!res.first_frame_completed) {
        continue;
      }
      ASSERT_EQ(res.phases.size(), obs::kNumPhases)
          << core::scheme_name(scheme);
      TimeNs sum = 0;
      for (const auto& span : res.phases) {
        EXPECT_GE(span.duration(), 0);
        sum += span.duration();
      }
      EXPECT_EQ(sum, res.ffct) << core::scheme_name(scheme);
      checked++;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(Harness, MetricsOffLeavesRecordsLean) {
  PopulationConfig cfg = small_config(7);
  cfg.sessions = 4;
  const auto records = run_population(cfg);
  for (const auto& r : records) {
    for (const auto& [scheme, res] : r.results) {
      EXPECT_TRUE(res.phases.empty());
    }
  }
}

TEST(Harness, AutoThreadCountAlsoMatchesSerial) {
  PopulationConfig cfg = small_config(5);
  cfg.sessions = 8;
  cfg.schemes = {core::Scheme::kWira};
  const auto serial = run_population(cfg);
  cfg.processes = 0;  // one worker per hardware thread
  const auto parallel = run_population(cfg);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].results.at(core::Scheme::kWira).ffct,
              parallel[i].results.at(core::Scheme::kWira).ffct);
  }
}

TEST(Harness, DifferentSeedsDiffer) {
  const auto a = run_population(small_config(1));
  const auto b = run_population(small_config(2));
  const Samples sa = collect_ffct(a, core::Scheme::kWira);
  const Samples sb = collect_ffct(b, core::Scheme::kWira);
  EXPECT_NE(sa.mean(), sb.mean());
}

TEST(Harness, PairedSchemesShareConditions) {
  const auto records = run_population(small_config());
  for (const auto& r : records) {
    // Same session, all schemes: identical stream, so identical FF_Size
    // (when both parsers completed).
    uint64_t ff = 0;
    for (const auto& [scheme, res] : r.results) {
      if (res.ff_size == 0) continue;
      if (ff == 0) ff = res.ff_size;
      EXPECT_EQ(res.ff_size, ff) << core::scheme_name(scheme);
    }
  }
}

TEST(Harness, MetricsArePhysicallyPlausible) {
  const auto records = run_population(small_config());
  for (const auto& r : records) {
    for (const auto& [scheme, res] : r.results) {
      if (!res.first_frame_completed) continue;
      // FFCT can't beat the propagation RTT (request leg + data leg).
      EXPECT_GE(res.ffct, r.conditions.min_rtt);
      EXPECT_LE(res.ffct, seconds(10));
      EXPECT_GE(res.fflr, 0.0);
      EXPECT_LE(res.fflr, 1.0);
      // Frame completions are monotone.
      TimeNs prev = 0;
      for (const auto& f : res.frames) {
        if (f.completion == kNoTime) continue;
        EXPECT_GE(f.completion, prev);
        prev = f.completion;
      }
    }
  }
}

TEST(Harness, SchemeProvenanceFlagsAreConsistent) {
  const auto records = run_population(small_config());
  for (const auto& r : records) {
    const auto& base = r.results.at(core::Scheme::kBaseline);
    EXPECT_FALSE(base.init.used_ff_size);
    EXPECT_FALSE(base.init.used_hx_qos);
    const auto& wira = r.results.at(core::Scheme::kWira);
    if (wira.init.used_hx_qos) {
      EXPECT_TRUE(r.had_cookie);
      EXPECT_FALSE(wira.init.hx_stale);
    }
    if (!r.had_cookie) {
      EXPECT_FALSE(wira.init.used_hx_qos);
    }
  }
}

TEST(Harness, StaleCookiesFollowSessionGap) {
  PopulationConfig cfg = small_config();
  cfg.sessions = 40;
  cfg.staleness_threshold = minutes(2);  // tight: many gaps exceed it
  cfg.schemes = {core::Scheme::kWira};
  const auto records = run_population(cfg);
  size_t stale_seen = 0;
  for (const auto& r : records) {
    const auto& res = r.results.at(core::Scheme::kWira);
    if (r.had_cookie && r.cookie_age > minutes(2)) {
      EXPECT_FALSE(res.init.used_hx_qos);
      stale_seen++;
    }
    if (r.had_cookie && r.cookie_age <= minutes(2)) {
      EXPECT_TRUE(res.init.used_hx_qos || !res.first_frame_completed);
    }
  }
  EXPECT_GT(stale_seen, 0u) << "gap distribution should exceed 2 min often";
}

TEST(Harness, CollectorsFilter) {
  const auto records = run_population(small_config());
  const Samples all = collect_ffct(records, core::Scheme::kWira);
  const Samples zero = collect_ffct(records, core::Scheme::kWira,
                                    [](const SessionRecord& r) {
                                      return r.zero_rtt;
                                    });
  const Samples one = collect_ffct(records, core::Scheme::kWira,
                                   [](const SessionRecord& r) {
                                     return !r.zero_rtt;
                                   });
  EXPECT_EQ(all.count(), zero.count() + one.count());
}

TEST(Harness, ZeroRttShareMatchesConfig) {
  PopulationConfig cfg = small_config();
  cfg.sessions = 80;
  cfg.p_zero_rtt = 0.5;
  cfg.schemes = {core::Scheme::kBaseline};
  const auto records = run_population(cfg);
  size_t zero = 0;
  for (const auto& r : records) zero += r.zero_rtt;
  EXPECT_NEAR(static_cast<double>(zero) / records.size(), 0.5, 0.2);
}

// Bit-exact record equality via the wire codec: every field the harness
// carries participates, so this is strictly stronger than the field
// spot-checks above.
bool records_equal(const std::vector<SessionRecord>& a,
                   const std::vector<SessionRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    std::vector<uint8_t> ea, eb;
    CodecWriter wa(ea), wb(eb);
    encode_session_record(a[i], wa);
    encode_session_record(b[i], wb);
    if (ea != eb) return false;
  }
  return true;
}

// The multiprocess extension of the determinism contract: records come
// back over pipes through the wire codec and must still be bit-identical
// to a serial run, at any worker count, including the per-session JSONL.
TEST(Harness, MultiprocessRunMatchesSerialExactly) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 24;
  const auto serial = run_population(cfg);
  for (const size_t procs : {2u, 4u}) {
    cfg.processes = procs;
    const auto sharded = run_population(cfg);
    EXPECT_TRUE(records_equal(serial, sharded)) << procs << " procs";
    std::ostringstream ls, lp;
    write_records_jsonl(serial, ls);
    write_records_jsonl(sharded, lp);
    EXPECT_EQ(ls.str(), lp.str()) << procs << " procs";
  }
}

TEST(Harness, MultiprocessMetricsMatchSerialExactly) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 24;
  cfg.collect_metrics = true;
  obs::MetricsRegistry serial;
  const auto serial_records = run_population(cfg, &serial);
  cfg.processes = 4;
  obs::MetricsRegistry sharded;
  const auto sharded_records = run_population(cfg, &sharded);

  EXPECT_TRUE(records_equal(serial_records, sharded_records));
  EXPECT_EQ(serial.counters(), sharded.counters());
  EXPECT_EQ(serial.gauges(), sharded.gauges());
  std::ostringstream js, jp;
  serial.write_json(js);
  sharded.write_json(jp);
  EXPECT_EQ(js.str(), jp.str());  // covers raw histogram buckets
  // Sanity: the registry actually saw every (session, scheme) pair.
  uint64_t sessions_counted = 0;
  for (const auto& [name, v] : serial.counters()) {
    if (name.rfind("sessions.", 0) == 0) sessions_counted += v;
  }
  EXPECT_EQ(sessions_counted, cfg.sessions * cfg.schemes.size());
}

// Crash containment: a worker SIGKILLed mid-stripe must surface as a
// named error that pinpoints the session it was on, with every record it
// streamed before dying salvaged.
TEST(Harness, MultiprocessDeadWorkerIsNamedAndSalvaged) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 12;
  cfg.processes = 2;
  cfg.chunk = 6;         // chunks [0,6) and [6,12), dealt to workers 0/1
  cfg.kill_at_index = 9; // worker 1 dies after streaming 6..8
  try {
    run_population(cfg);
    FAIL() << "expected PopulationShardError";
  } catch (const PopulationShardError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "worker 1 (sessions [6,12)) killed by signal 9 "
                  "while on session 9"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("salvaged 9 of 12 records"),
              std::string::npos)
        << e.what();
    ASSERT_EQ(e.deaths.size(), 1u);
    EXPECT_EQ(e.deaths[0].worker, 1);
    EXPECT_EQ(e.deaths[0].stripe_begin, 6u);
    EXPECT_EQ(e.deaths[0].stripe_end, 12u);
    EXPECT_EQ(e.deaths[0].died_at, 9u);
    EXPECT_EQ(e.missing, (std::vector<size_t>{9, 10, 11}));
    ASSERT_EQ(e.salvaged.size(), 12u);
    for (size_t i = 0; i < 9; ++i) {
      EXPECT_FALSE(e.salvaged[i].results.empty()) << i;
    }
    for (size_t i = 9; i < 12; ++i) {
      EXPECT_TRUE(e.salvaged[i].results.empty()) << i;
    }
    // The salvage is the real data: bit-identical to a serial run.
    PopulationConfig clean = cfg;
    clean.processes = 1;
    clean.kill_at_index = kNoSessionIndex;
    const auto serial = run_population(clean);
    for (size_t i = 0; i < 9; ++i) {
      std::vector<uint8_t> ea, eb;
      CodecWriter wa(ea), wb(eb);
      encode_session_record(serial[i], wa);
      encode_session_record(e.salvaged[i], wb);
      EXPECT_EQ(ea, eb) << i;
    }
  }
}

// A worker whose session throws (rather than dying on a signal) exits
// nonzero; the parent classifies that distinctly.
TEST(Harness, MultiprocessWorkerExceptionIsNamed) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 12;
  cfg.processes = 2;
  cfg.chunk = 6;  // chunks [0,6) and [6,12), dealt to workers 0/1
  cfg.fail_at_index = 7;
  try {
    run_population(cfg);
    FAIL() << "expected PopulationShardError";
  } catch (const PopulationShardError& e) {
    ASSERT_EQ(e.deaths.size(), 1u);
    EXPECT_EQ(e.deaths[0].worker, 1);
    EXPECT_EQ(e.deaths[0].reason, "exited with status 1");
    EXPECT_EQ(e.deaths[0].died_at, 7u);
    EXPECT_EQ(e.missing, (std::vector<size_t>{7, 8, 9, 10, 11}));
  }
}

// Crash replay (DESIGN.md §7): when a forked worker dies on a fatal
// signal, the parent re-runs its chunk in a replay child that streams each
// (session, scheme) as a crash_session_<i>_<scheme> qlog pair; the replay
// dies the same way, and the pair it leaves is the one in flight, which
// the stock cross-vantage join accepts.  crash_after_index raises *after*
// the record streamed, so the surviving pair holds a complete session.
void expect_joinable_crash_trace(int signal, const char* tag) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("wira_crash_replay_") + tag + "_" +
       std::to_string(::getpid()));
  fs::remove_all(dir);

  PopulationConfig cfg = small_config(23);
  cfg.sessions = 12;
  cfg.processes = 2;
  cfg.chunk = 6;  // chunks [0,6) and [6,12), dealt to workers 0/1
  cfg.anomaly_dir = dir.string();
  cfg.crash_after_index = 9;
  cfg.crash_after_signal = signal;
  try {
    run_population(cfg);
    FAIL() << "expected PopulationShardError";
  } catch (const PopulationShardError& e) {
    ASSERT_EQ(e.deaths.size(), 1u);
    EXPECT_EQ(e.deaths[0].worker, 1);
    EXPECT_NE(e.deaths[0].reason.find(
                  "killed by signal " + std::to_string(signal)),
              std::string::npos)
        << e.deaths[0].reason;
  }

  // Exactly one crash pair, for session 9 (the session in flight when
  // the replay died), and it joins cleanly.
  std::string base;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("crash_session_9_", 0) == 0 &&
        name.find(".server.sqlog") != std::string::npos) {
      base = name.substr(0, name.size() - std::strlen(".server.sqlog"));
    }
    EXPECT_EQ(name.find("crash_worker_"), std::string::npos)
        << "raw dump " << name << " must be consumed and removed";
  }
  ASSERT_FALSE(base.empty()) << "no crash_session_9_* pair in " << dir;
  obs::ParsedQlog client, server;
  std::string error;
  ASSERT_TRUE(obs::parse_sqlog_file((dir / (base + ".server.sqlog")).string(),
                                    &server, &error))
      << error;
  ASSERT_TRUE(obs::parse_sqlog_file((dir / (base + ".client.sqlog")).string(),
                                    &client, &error))
      << error;
  EXPECT_EQ(server.group_id, base);
  EXPECT_EQ(client.group_id, base);
  obs::JoinedPhases joined;
  ASSERT_TRUE(obs::join_vantages(client, server, &joined, &error)) << error;
  EXPECT_GT(joined.ffct_us, 0u);
  fs::remove_all(dir);
}

TEST(Harness, SigabrtWorkerLeavesJoinableCrashDump) {
  expect_joinable_crash_trace(SIGABRT, "abrt");
}

TEST(Harness, SigsegvWorkerLeavesJoinableCrashDump) {
  expect_joinable_crash_trace(SIGSEGV, "segv");
}

// Crash replay of a death the sessions cannot reproduce: the replay
// survives, leaves no crash pair, is not counted as a crash, and the
// parent says the crash did not reproduce.  Worker 0 dies right after
// streaming session 1, the last of its chunk [0,2), so the death lands on
// its buffered chunk [4,6); the replay of [4,5) never reaches index 1.
TEST(Harness, CrashThatDoesNotRecurIsReported) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("wira_crash_norecur_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  PopulationConfig cfg = small_config(23);
  cfg.sessions = 8;
  cfg.processes = 2;
  cfg.chunk = 2;  // the initial deal: [0,2),[4,6) -> 0; [2,4),[6,8) -> 1
  cfg.crash_after_index = 1;
  cfg.crash_after_signal = SIGKILL;
  cfg.anomaly_dir = dir.string();
  obs::MetricsRegistry metrics;
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  EXPECT_THROW(run_population(cfg, &metrics), PopulationShardError);
  const std::string err = testing::internal::GetCapturedStderr();
  set_log_level(LogLevel::kOff);

  EXPECT_NE(err.find("crash of worker 0 (sessions [4,6)) killed by signal 9 "
                     "while on session 4 did not reproduce on replay"),
            std::string::npos)
      << err;
  EXPECT_EQ(metrics.counter("anomaly.dumps.crash"), 0u);
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().rfind("crash_session_", 0),
              std::string::npos)
        << entry.path();
  }
  fs::remove_all(dir);
}

// With retry_dead_shards the parent re-runs only the missing indices and
// folds the registry from the reassembled records, so
// the final output is still bit-identical to serial.
TEST(Harness, MultiprocessRetryDeadShardsCompletesIdentically) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 12;
  cfg.collect_metrics = true;
  obs::MetricsRegistry serial;
  const auto serial_records = run_population(cfg, &serial);

  cfg.processes = 2;
  cfg.chunk = 6;
  cfg.kill_at_index = 9;
  cfg.retry_dead_shards = true;
  obs::MetricsRegistry retried;
  const auto retried_records = run_population(cfg, &retried);

  EXPECT_TRUE(records_equal(serial_records, retried_records));
  std::ostringstream js, jp;
  serial.write_json(js);
  retried.write_json(jp);
  EXPECT_EQ(js.str(), jp.str());
}

// A worker exception in a sharded sweep must both surface and stop the
// dealer, so the other workers stop taking sessions instead of finishing
// the whole sweep first.  Trace sampling makes the drain observable:
// every completed session leaves schemes.size() files.
TEST(Harness, WorkerFailureDrainsSweepPromptly) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("wira_drain_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  PopulationConfig cfg = small_config(23);
  cfg.sessions = 40;
  cfg.processes = 2;
  cfg.chunk = 1;  // one session per claim
  cfg.fail_at_index = 4;
  cfg.trace_sample = 1;
  cfg.trace_dir = dir.string();
  try {
    run_population(cfg);
    FAIL() << "expected the injected failure to propagate";
  } catch (const std::runtime_error& e) {
    // The exception text itself goes to the worker's stderr; the parent
    // names the worker's exit.  Which worker pulled chunk [4,5) depends
    // on timing, so the worker id is not part of the match.
    EXPECT_NE(std::string(e.what()).find(
                  "(sessions [4,5)) exited with status 1 while on session 4"),
              std::string::npos)
        << e.what();
  }
  size_t traced_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    traced_files++;
  }
  fs::remove_all(dir);
  // Sessions completed after the failure: at most the ones already
  // dealt to the other worker (two).  Without the dealer stop, it
  // finishes all 39 remaining sessions first (312 files).  Each
  // sampled (session, scheme) writes two files, one per vantage.
  const size_t bound = (4 + cfg.processes + 2) * cfg.schemes.size() * 2;
  EXPECT_LE(traced_files, bound);
  EXPECT_GT(traced_files, 0u);  // sessions before the failure were traced
}

// An unopenable trace destination must degrade to untraced sessions that
// are warned about and counted — never silently dropped, never fatal.
TEST(Harness, FailedTraceOpenIsCountedNotSilent) {
  PopulationConfig cfg = small_config(7);
  cfg.sessions = 3;
  cfg.collect_metrics = true;
  cfg.trace_sample = 1;
  cfg.trace_dir = "/dev/null";  // exists, not a directory: every open fails
  obs::MetricsRegistry metrics;
  const auto records = run_population(cfg, &metrics);
  ASSERT_EQ(records.size(), 3u);
  // Two opens per sampled (session, scheme) — one per vantage — and both
  // fail against a non-directory.
  for (const auto& r : records) {
    EXPECT_EQ(r.trace_open_failures, 2 * cfg.schemes.size());
  }
  EXPECT_EQ(metrics.counter("trace.open_failed"),
            2 * cfg.sessions * cfg.schemes.size());
}

// Regression: rows wider than the header used to have their extra cells
// silently dropped by Table::print.
TEST(TablePrint, KeepsCellsBeyondHeaderWidth) {
  Table t({"scheme", "ffct"});
  t.row({"wira", "95.2", "extra-1", "extra-2"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("extra-1"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("extra-2"), std::string::npos) << os.str();
}

// ---- streaming sinks (the bounded-memory soak path, DESIGN.md §6) ----

// The soak contract: pushing records through a CollectSink is
// byte-identical to the vector API at any process count — the sink path
// introduces no new ordering, copying, or codec hazards.
TEST(Harness, StreamingSinkMatchesCollectExactly) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 24;
  const auto collected = run_population(cfg);

  for (const size_t procs : {size_t{1}, size_t{4}}) {
    cfg.processes = procs;
    CollectSink sink(cfg.sessions);
    run_population(cfg, nullptr, sink);
    EXPECT_TRUE(records_equal(collected, sink.records()))
        << procs << " procs";
  }
}

// The RecordSink ordering contract: indices arrive strictly increasing
// from 0, exactly once each, and on_complete fires after the last one —
// even when records are produced out of order by worker processes.
TEST(Harness, StreamingSinkSeesStrictIndexOrder) {
  struct IndexLogSink final : RecordSink {
    void on_record(size_t index, SessionRecord&&) override {
      indices.push_back(index);
    }
    void on_complete(size_t sessions) override { completed = sessions; }
    std::vector<size_t> indices;
    size_t completed = 0;
  };

  PopulationConfig cfg = small_config(29);
  cfg.sessions = 18;
  for (const size_t procs : {size_t{1}, size_t{3}}) {
    cfg.processes = procs;
    IndexLogSink sink;
    run_population(cfg, nullptr, sink);
    ASSERT_EQ(sink.indices.size(), cfg.sessions) << procs << " procs";
    for (size_t i = 0; i < sink.indices.size(); ++i) {
      EXPECT_EQ(sink.indices[i], i) << procs << " procs";
    }
    EXPECT_EQ(sink.completed, cfg.sessions) << procs << " procs";
  }
}

// Streaming aggregation must reproduce the batch registry exactly: same
// fold, same histograms, same JSON — collecting a million records buys
// nothing the sink does not already have.
TEST(Harness, AggregateSinkMatchesBatchRegistry) {
  PopulationConfig cfg = small_config(37);
  cfg.sessions = 10;
  cfg.collect_metrics = true;
  obs::MetricsRegistry batch;
  run_population(cfg, &batch);

  AggregateSink::Options opts;
  opts.include_phases = true;
  AggregateSink sink(opts);
  run_population(cfg, nullptr, sink);

  EXPECT_EQ(sink.sessions_seen(), cfg.sessions);
  std::ostringstream jb, js;
  batch.write_json(jb);
  sink.registry().write_json(js);
  EXPECT_EQ(jb.str(), js.str());
}

// Every record byte of a small population, in both containers and all four
// schemes, pinned through the wire codec.  The other harness tests compare
// two runs of the same build; this one catches a change that reorders
// simulated events (event-loop or timer rework) and so shifts records that
// would otherwise only show up as a drifting figure.
TEST(Harness, PopulationRecordDigestIsPinned) {
  struct Pin {
    media::Container container;
    size_t bytes;
    uint64_t fnv;
  };
  const Pin pins[] = {
      {media::Container::kFlv, 25'680, 0x3a830c7965cb0e9cull},
      {media::Container::kMpegTs, 25'680, 0xfe211c93f8d1c4e7ull}};
  for (const Pin& pin : pins) {
    PopulationConfig cfg = small_config(7);
    cfg.sessions = 24;
    cfg.container = pin.container;
    ASSERT_EQ(cfg.schemes.size(), 4u);
    const auto records = run_population(cfg);
    std::vector<uint8_t> bytes;
    CodecWriter w(bytes);
    for (const SessionRecord& rec : records) encode_session_record(rec, w);
    EXPECT_EQ(bytes.size(), pin.bytes) << static_cast<int>(pin.container);
    EXPECT_EQ(fnv1a64(bytes), pin.fnv) << static_cast<int>(pin.container);
  }
}

// Mini-soak: a streaming run with periodic flushes must emit one JSONL
// line per flush (plus the final line), fire the flush hook each time,
// and keep resident memory flat — the in-test plateau bound is loose
// (1.5x) because tiny runs sit inside allocator noise; tools/run_soak.sh
// gates the real soak at 1.10.  Under AddressSanitizer each sample first
// purges the allocator: freed memory otherwise sits in ASan's quarantine
// (256 MB by default) and RSS climbs toward that cap at the rate the run
// frees memory, whatever the program keeps live.  Counting the
// quarantine, this run read 112 -> 381 MB (1.48x), and 1.58x once its
// sessions freed less memory early on; purged, it reads 64 -> 72 MB.
TEST(Harness, MiniSoakFlushesAndRssStaysBounded) {
  PopulationConfig cfg = small_config(47);
  cfg.sessions = 160;

  std::ostringstream flushes;
  AggregateSink::Options opts;
  opts.flush_every = 20;
  opts.flush_out = &flushes;
  AggregateSink sink(opts);
  std::vector<double> rss_mb;
  sink.set_flush_hook(
      +[](uint64_t, std::string* extra, void* arg) {
#if defined(__SANITIZE_ADDRESS__)
        __sanitizer_purge_allocator();
#endif
        const std::optional<uint64_t> rss = obs::current_rss_bytes();
        if (rss.has_value()) {
          static_cast<std::vector<double>*>(arg)->push_back(
              static_cast<double>(*rss) / 1e6);
        }
        *extra += ",\"probe\":1";
      },
      &rss_mb);
  run_population(cfg, nullptr, sink);

  // 160/20 periodic flushes + the final line from on_complete.
  EXPECT_EQ(sink.flushes_written(), 9u);
  size_t lines = 0;
  for (const char c : flushes.str()) lines += c == '\n';
  EXPECT_EQ(lines, sink.flushes_written());
  EXPECT_NE(flushes.str().find("\"probe\":1"), std::string::npos);
  EXPECT_NE(flushes.str().find("\"final\":true"), std::string::npos);

  if (rss_mb.size() >= 2) {
    const size_t half = rss_mb.size() / 2;
    double early = 0, late = 0;
    for (size_t i = 0; i < half; ++i) early = std::max(early, rss_mb[i]);
    for (size_t i = half; i < rss_mb.size(); ++i) {
      late = std::max(late, rss_mb[i]);
    }
    ASSERT_GT(early, 0.0);
    EXPECT_LE(late / early, 1.5);
  }
}

// ---- workspace recycling ----

// The SessionWorkspace contract: a reset-and-reused loop is
// indistinguishable from a fresh one, so every field of the result —
// including arena accounting — is bit-identical via the wire codec.  The
// loop's caches (buffer pool classes, sent-packet rings, reassembly
// segments) are warmed first by a different session, and the compared
// sessions cover a lossy path, both containers and all four schemes, so
// recycled state from one shape of session meets another.
TEST(Workspace, ReusedLoopMatchesFreshExactly) {
  const auto encoded = [](const SessionResult& r) {
    std::vector<uint8_t> out;
    CodecWriter w(out);
    encode_session_result(r, w);
    return out;
  };
  SessionWorkspace ws;
  SessionConfig warm;
  warm.seed = 99;
  warm.path.loss_rate = 0.05;
  warm.stream.stream_id = 7;
  warm.stream.iframe_mean_bytes = 150'000;
  run_session(warm, ws);

  uint64_t runs = 1;
  for (const uint64_t seed : {3ull, 9ull, 21ull}) {
    SessionConfig cfg;
    cfg.seed = seed;
    cfg.collect_phases = true;
    EXPECT_EQ(encoded(run_session(cfg)), encoded(run_session(cfg, ws)))
        << "seed " << seed;
    ++runs;
  }
  for (const media::Container container :
       {media::Container::kFlv, media::Container::kMpegTs}) {
    for (const core::Scheme scheme : PopulationConfig{}.schemes) {
      SessionConfig cfg;
      cfg.seed = 11;
      cfg.scheme = scheme;
      cfg.collect_phases = true;
      cfg.path = sim::testbed_path();  // 3% loss
      cfg.stream.container = container;
      cfg.start_time = minutes(5);
      core::HxQosRecord cookie;
      cookie.min_rtt = milliseconds(50);
      cookie.max_bw = mbps(8);
      cookie.server_timestamp = 0;
      cfg.cookie = cookie;
      const SessionResult fresh = run_session(cfg);
      EXPECT_GT(fresh.server_stats.packets_lost, 0u);
      EXPECT_EQ(encoded(fresh), encoded(run_session(cfg, ws)))
          << core::scheme_name(scheme)
          << (container == media::Container::kFlv ? " FLV" : " TS");
      ++runs;
    }
  }
  EXPECT_EQ(ws.sessions_run(), runs);
}

// A relative trace_dir silently writes qlog samples wherever the process
// happens to be running — the runner must say so, with the resolved
// absolute path, at the default warn level.
TEST(Harness, TraceDirRelativeWarnsWithAbsolutePath) {
  namespace fs = std::filesystem;
  const std::string rel_dir = "trace_rel_warn_test";
  PopulationConfig cfg = small_config(7);
  cfg.sessions = 1;
  cfg.trace_sample = 1;
  cfg.trace_dir = rel_dir;

  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  run_population(cfg);
  const std::string err = testing::internal::GetCapturedStderr();
  set_log_level(LogLevel::kOff);
  fs::remove_all(rel_dir);

  EXPECT_NE(err.find("is relative; qlog samples will be written to"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find((fs::current_path() / rel_dir).string()),
            std::string::npos)
      << err;

  // An absolute trace_dir must stay silent.
  const fs::path abs_dir = fs::temp_directory_path() / "trace_abs_quiet";
  cfg.trace_dir = abs_dir.string();
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  run_population(cfg);
  const std::string quiet = testing::internal::GetCapturedStderr();
  set_log_level(LogLevel::kOff);
  fs::remove_all(abs_dir);
  EXPECT_EQ(quiet.find("is relative"), std::string::npos) << quiet;
}

TEST(Harness, RunnerHonorsCcChoice) {
  PopulationConfig cfg = small_config();
  cfg.sessions = 4;
  cfg.cc_algo = cc::CcAlgo::kNewReno;
  const auto records = run_population(cfg);
  size_t done = 0;
  for (const auto& r : records) {
    for (const auto& [s, res] : r.results) done += res.first_frame_completed;
  }
  EXPECT_GT(done, 0u);
}

// ---- anomaly triggers and traced replays (DESIGN.md §7) -----------------

namespace fs = std::filesystem;

/// Counts trace events by type and passes each on to `next`.
struct CountingSink : trace::EventSink {
  explicit CountingSink(trace::EventSink* next) : next(next) {}
  trace::EventSink* next;
  uint64_t counts[trace::kEventTypeCount] = {};
  void on_event(const trace::Event& e) override {
    counts[static_cast<size_t>(e.type)]++;
    next->on_event(e);
  }
  uint64_t count(trace::EventType t) const {
    return counts[static_cast<size_t>(t)];
  }
  uint64_t total() const {
    uint64_t n = 0;
    for (const uint64_t c : counts) n += c;
    return n;
  }
};

/// Both vantages of one session traced as a qlog pair into strings, each
/// through a counting sink.
struct TracedPair {
  std::ostringstream server_os, client_os;
  obs::QlogStreamWriter server_writer, client_writer;
  CountingSink server_counts{&server_writer}, client_counts{&client_writer};

  explicit TracedPair(const std::string& name)
      : server_writer(server_os,
                      obs::paired_trace_info(name, obs::QlogVantage::kServer)),
        client_writer(client_os,
                      obs::paired_trace_info(name, obs::QlogVantage::kClient)) {}
  void attach(SessionConfig* cfg) {
    cfg->tracer = &server_counts;
    cfg->client_tracer = &client_counts;
  }
};

media::StreamProfile default_stream() {
  media::StreamProfile p;
  p.stream_id = 1;
  p.iframe_mean_bytes = 60'000;
  p.iframe_intra_cv = 0.2;
  return p;
}

SessionConfig clean_path_session() {
  SessionConfig cfg;
  cfg.path.bandwidth = mbps(20);
  cfg.path.rtt = milliseconds(40);
  cfg.path.loss_rate = 0.0;
  cfg.path.buffer_bytes = 128 * 1024;
  cfg.stream = default_stream();
  cfg.scheme = core::Scheme::kBaseline;
  cfg.seed = 7;
  return cfg;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// EventSink::record builds one trace::Event per event (millions in a traced
// sweep) and sinks may copy it, so it stays a compact POD.
TEST(FlightRecorder, SlotIsCompactPod) {
  EXPECT_EQ(sizeof(trace::Event), 48u);
  EXPECT_TRUE(std::is_trivially_copyable_v<trace::Event>);
}

// The anomaly triggers read counters every run keeps, traced or not; each
// must equal the count of the trace event a traced run emits for it, on
// lossy, jittery paths for every population scheme — with stale cookies
// in the mix so both corner cases fire.
TEST(FlightRecorder, TriggerCountersMatchTracedEventCounts) {
  uint64_t stalls = 0;
  uint64_t fallbacks = 0;
  uint64_t stale = 0;
  for (const core::Scheme scheme : PopulationConfig{}.schemes) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SessionConfig cfg;
      cfg.scheme = scheme;
      cfg.seed = seed;
      cfg.path.bandwidth = mbps(4 + seed);
      cfg.path.rtt = milliseconds(30 + 20 * static_cast<int64_t>(seed));
      cfg.path.loss_rate = 0.02 * static_cast<double>(seed);
      cfg.path.jitter = milliseconds(static_cast<int64_t>(seed % 3) * 10);
      cfg.stream = default_stream();
      cfg.start_time = seconds(7200);
      core::HxQosRecord cookie;
      cookie.min_rtt = milliseconds(60);
      cookie.max_bw = mbps(6);
      // Odd seeds carry a cookie two hours old: stale (corner case 2).
      cookie.server_timestamp = seed % 2 ? 0 : cfg.start_time - seconds(60);
      cfg.cookie = cookie;
      // The counters come from an untraced run, as in the sweep.
      const SessionResult res = run_session(cfg);
      TracedPair traced("equivalence");
      traced.attach(&cfg);
      run_session(cfg);
      const std::string what =
          std::string(core::scheme_name(scheme)) + " seed " +
          std::to_string(seed);
      const auto both = [&](trace::EventType t) {
        return traced.server_counts.count(t) + traced.client_counts.count(t);
      };
      EXPECT_EQ(res.stalls_observed,
                traced.client_counts.count(trace::EventType::kStallObserved))
          << what;
      EXPECT_EQ(both(trace::EventType::kStallObserved),
                traced.client_counts.count(trace::EventType::kStallObserved))
          << what;
      EXPECT_EQ(res.ff_fallback_inits + res.stale_cookie_inits,
                traced.server_counts.count(trace::EventType::kCornerCase))
          << what;
      EXPECT_EQ(both(trace::EventType::kCornerCase),
                traced.server_counts.count(trace::EventType::kCornerCase))
          << what;
      EXPECT_EQ(res.server_stats.packets_undecodable +
                    res.client_packets_undecodable,
                both(trace::EventType::kDecodeError))
          << what;
      stalls += res.stalls_observed;
      fallbacks += res.ff_fallback_inits;
      stale += res.stale_cookie_inits;
    }
  }
  // The sweep really exercised the stall path and both corner cases.
  EXPECT_GT(stalls, 0u);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(stale, 0u);
}

// An anomaly dump is a traced re-run of the triggering (session, scheme),
// so it is byte-for-byte the pair --trace-sample writes for that run — and
// it joins like one.
TEST(FlightRecorder, SessionDumpJoinsLikeASampledPair) {
  const fs::path root = fs::temp_directory_path() /
                        ("wira_anomaly_sampled_" + std::to_string(::getpid()));
  fs::remove_all(root);
  PopulationConfig cfg;
  cfg.sessions = 2;
  cfg.seed = 11;
  cfg.trace_sample = 1;
  cfg.trace_dir = (root / "samples").string();
  cfg.anomaly_dir = (root / "anomaly").string();
  cfg.anomaly_ffct = nanoseconds(1);  // every run triggers a dump
  run_population(cfg);

  size_t pairs = 0;
  for (const auto& entry : fs::directory_iterator(cfg.anomaly_dir)) {
    const std::string name = entry.path().filename().string();
    const fs::path sample = fs::path(cfg.trace_dir) / name;
    ASSERT_TRUE(fs::exists(sample)) << name;
    EXPECT_EQ(read_file(entry.path()), read_file(sample)) << name;
    const std::string suffix = ".client.sqlog";
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - suffix.size());
    obs::ParsedQlog client, server;
    std::string error;
    ASSERT_TRUE(obs::parse_sqlog_file(entry.path().string(), &client, &error))
        << error;
    ASSERT_TRUE(obs::parse_sqlog_file(
        (fs::path(cfg.anomaly_dir) / (base + ".server.sqlog")).string(),
        &server, &error))
        << error;
    EXPECT_EQ(server.group_id, base);
    EXPECT_EQ(client.group_id, base);
    obs::JoinedPhases joined;
    ASSERT_TRUE(obs::join_vantages(client, server, &joined, &error))
        << base << ": " << error;
    EXPECT_GT(joined.ffct_us, 0u);
    ++pairs;
  }
  EXPECT_EQ(pairs, cfg.sessions * cfg.schemes.size());
  fs::remove_all(root);
}

// Replays run on the worker's recycled workspace: a session traced after
// others ran there emits exactly the trace a fresh workspace does.
TEST(FlightRecorder, ResetRecyclesWithoutCarryover) {
  SessionConfig other = clean_path_session();
  other.seed = 3;
  other.path.loss_rate = 0.05;
  SessionConfig target = clean_path_session();

  TracedPair fresh("carryover");
  SessionConfig cfg = target;
  fresh.attach(&cfg);
  run_session(cfg);

  SessionWorkspace ws;
  run_session(other, ws);
  run_session(target, ws);
  TracedPair recycled("carryover");
  cfg = target;
  recycled.attach(&cfg);
  run_session(cfg, ws);

  EXPECT_GT(fresh.server_counts.total(), 0u);
  EXPECT_EQ(fresh.server_os.str(), recycled.server_os.str());
  EXPECT_EQ(fresh.client_os.str(), recycled.client_os.str());
}

TEST(FlightRecorder, RecorderDoesNotPerturbResults) {
  SessionConfig cfg = clean_path_session();
  const SessionResult plain = run_session(cfg);
  TracedPair traced("perturb");
  traced.attach(&cfg);
  const SessionResult taped = run_session(cfg);
  EXPECT_EQ(plain.ffct, taped.ffct);
  EXPECT_EQ(plain.server_stats.packets_sent, taped.server_stats.packets_sent);
  EXPECT_EQ(plain.fflr, taped.fflr);
  std::vector<uint8_t> ea, eb;
  CodecWriter wa(ea), wb(eb);
  encode_session_result(plain, wa);
  encode_session_result(taped, wb);
  EXPECT_EQ(ea, eb);
}

TEST(FlightRecorder, CoexistsWithPhaseCollection) {
  SessionConfig cfg = clean_path_session();
  cfg.collect_phases = true;
  const SessionResult plain = run_session(cfg);
  TracedPair traced("phases");
  traced.attach(&cfg);
  const SessionResult taped = run_session(cfg);
  ASSERT_FALSE(taped.phases.empty());  // phase extraction still works
  ASSERT_EQ(plain.phases.size(), taped.phases.size());
  for (size_t p = 0; p < plain.phases.size(); ++p) {
    EXPECT_EQ(plain.phases[p].begin, taped.phases[p].begin) << p;
    EXPECT_EQ(plain.phases[p].end, taped.phases[p].end) << p;
  }
  EXPECT_GT(traced.server_counts.total(), 0u);
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

using obs::join_vantages;
using obs::JoinedPhases;
using obs::parse_sqlog_file;
using obs::ParsedQlog;

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
  cfg.processes = 2;
  const auto sharded = exp::run_population(cfg);
  ASSERT_EQ(serial.size(), sharded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
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
}  // namespace wira::exp
