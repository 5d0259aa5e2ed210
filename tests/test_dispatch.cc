// Tests for the population dispatch layer (DESIGN.md §6): the dynamic
// chunk scheduler over forked workers, its DispatchStats telemetry, and
// the failure contract the vector and sink overloads share.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/population_experiment.h"
#include "exp/record_codec.h"
#include "exp/record_sink.h"
#include "exp/session_export.h"
#include "exp/shard_dispatch.h"
#include "obs/metrics.h"

namespace wira::exp {
namespace {

PopulationConfig small_config(uint64_t seed = 23) {
  PopulationConfig cfg;
  cfg.sessions = 12;
  cfg.seed = seed;
  return cfg;
}

// Encoded-bytes comparison: every field the codec carries participates.
std::vector<uint8_t> encoded(const SessionRecord& rec) {
  std::vector<uint8_t> out;
  CodecWriter w(out);
  encode_session_record(rec, w);
  return out;
}

bool records_equal(const std::vector<SessionRecord>& a,
                   const std::vector<SessionRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (encoded(a[i]) != encoded(b[i])) return false;
  }
  return true;
}

TEST(Chunks, FixedSizeCutsWithShortTail) {
  const auto c = make_chunks(10, 4);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].begin, 0u);
  EXPECT_EQ(c[0].end, 4u);
  EXPECT_EQ(c[1].begin, 4u);
  EXPECT_EQ(c[1].end, 8u);
  EXPECT_EQ(c[2].begin, 8u);
  EXPECT_EQ(c[2].end, 10u);  // short tail
}

TEST(Chunks, OversizedChunkIsOneChunk) {
  const auto c = make_chunks(12, 4096);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].begin, 0u);
  EXPECT_EQ(c[0].end, 12u);
}

TEST(Chunks, EmptyPopulationHasNoChunks) {
  EXPECT_TRUE(make_chunks(0, 64).empty());
}

TEST(Chunks, ClampThreads) {
  EXPECT_EQ(clamp_threads(8, 3), 3u);
  EXPECT_EQ(clamp_threads(2, 100), 2u);
  EXPECT_GE(clamp_threads(0, 100), 1u);
  EXPECT_EQ(clamp_threads(4, 0), 1u);
}

// The tentpole contract: stdout-order records AND the metrics aggregate
// are byte-identical to serial at any (worker count, chunk size) point, because reassembly is index-addressed and per-session
// randomness derives only from (seed, index).  The vector overload is
// the sink overload plus a CollectSink, so this also covers streamed
// delivery.
TEST(Dispatch, ChunkMatrixMatchesSerialExactly) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 24;
  cfg.collect_metrics = true;
  obs::MetricsRegistry serial_m;
  const auto serial = run_population(cfg, &serial_m);
  std::ostringstream serial_js;
  serial_m.write_json(serial_js);

  for (size_t n : {2u, 4u}) {
    for (size_t chunk : {size_t{1}, size_t{5}, size_t{4096}}) {
      PopulationConfig sharded_cfg = cfg;
      sharded_cfg.processes = n;
      sharded_cfg.chunk = chunk;
      const std::string label =
          std::to_string(n) + " procs, chunk " + std::to_string(chunk);
      obs::MetricsRegistry sharded_m;
      const auto sharded = run_population(sharded_cfg, &sharded_m);
      EXPECT_TRUE(records_equal(serial, sharded)) << label;
      std::ostringstream ls, lp;
      write_records_jsonl(serial, ls);
      write_records_jsonl(sharded, lp);
      EXPECT_EQ(ls.str(), lp.str()) << label;
      std::ostringstream sharded_js;
      sharded_m.write_json(sharded_js);
      EXPECT_EQ(serial_js.str(), sharded_js.str()) << label;
    }
  }
}

// The sink overload keeps the vector overload's failure contract: the
// sink holds the whole chunks delivered before the death, `salvaged`
// holds what arrived but never reached the sink, and `missing` is
// exactly what never arrived.
TEST(Dispatch, StreamNoRetryDeathSalvagesInFlight) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 12;
  cfg.processes = 2;
  cfg.chunk = 6;          // chunks [0,6) and [6,12), dealt to workers 0/1
  cfg.kill_at_index = 9;  // worker 1 dies after streaming 6..8
  PopulationConfig clean = cfg;
  clean.processes = 1;
  clean.kill_at_index = kNoSessionIndex;
  const auto serial = run_population(clean);

  CollectSink sink(cfg.sessions);
  try {
    run_population(cfg, nullptr, sink);
    FAIL() << "expected PopulationShardError";
  } catch (const PopulationShardError& e) {
    EXPECT_NE(std::string(e.what()).find("salvaged 9 of 12 records"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.missing, (std::vector<size_t>{9, 10, 11}));
    ASSERT_EQ(sink.records().size(), 6u);
    for (size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(encoded(sink.records()[i]), encoded(serial[i])) << i;
    }
    ASSERT_EQ(e.salvaged.size(), 12u);
    for (size_t i = 6; i < 9; ++i) {
      EXPECT_EQ(encoded(e.salvaged[i]), encoded(serial[i])) << i;
    }
  }
}

// Retry off, the first observed death ends dealing: the survivor drains
// only the chunks it already held, however long the in-order cursor
// takes to reach the dead worker's chunk.
TEST(Dispatch, NoDealingAfterObservedDeath) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 64;
  cfg.processes = 2;
  cfg.chunk = 8;          // the initial deal: 0,2 -> worker 0; 1,3 -> worker 1
  cfg.kill_at_index = 8;  // worker 1 dies before its first session
  DispatchStats stats;
  cfg.dispatch_stats = &stats;
  try {
    run_population(cfg);
    FAIL() << "expected PopulationShardError";
  } catch (const PopulationShardError& e) {
    EXPECT_NE(std::string(e.what()).find("salvaged 16 of 64 records"),
              std::string::npos)
        << e.what();
  }
  ASSERT_EQ(stats.chunks_completed.size(), 2u);
  EXPECT_EQ(stats.chunks_completed[0], 2u);
  EXPECT_EQ(stats.chunks_completed[1], 0u);
}

// Static striping is gone: chunk 0 would leave make_chunks nothing to
// cut, so it is a caller error rather than a silent mode switch.
TEST(Dispatch, ChunkZeroIsRejected) {
  PopulationConfig cfg = small_config(23);
  cfg.processes = 2;
  cfg.chunk = 0;
  EXPECT_THROW(run_population(cfg), std::invalid_argument);
}

// Sweeps run on one host: a remote worker list is a caller error, never
// silently ignored.
TEST(Dispatch, NonEmptyWorkersIsRejected) {
  PopulationConfig cfg = small_config(23);
  cfg.workers = {"127.0.0.1:9701"};
  EXPECT_THROW(run_population(cfg), std::invalid_argument);
  cfg.processes = 2;
  EXPECT_THROW(run_population(cfg), std::invalid_argument);
  // Worker threads are gone the same way: `threads` must stay 1.
  cfg.workers.clear();
  cfg.threads = 2;
  EXPECT_THROW(run_population(cfg), std::invalid_argument);
}

// S1: workers with an empty assignment are never spawned — the worker
// count is structurally min(requested, number of chunks).
TEST(Dispatch, EmptyAssignmentsSkipWorkers) {
  PopulationConfig cfg = small_config(31);
  cfg.sessions = 3;
  cfg.processes = 8;
  cfg.chunk = 1;  // 3 chunks -> only 3 of the 8 requested workers exist
  DispatchStats stats;
  cfg.dispatch_stats = &stats;
  const auto records = run_population(cfg);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(stats.workers_spawned, 3u);
  ASSERT_EQ(stats.chunks_completed.size(), 3u);
  ASSERT_EQ(stats.sessions_completed.size(), 3u);
  uint64_t chunks = 0, sessions = 0;
  for (size_t w = 0; w < 3; ++w) {
    chunks += stats.chunks_completed[w];
    sessions += stats.sessions_completed[w];
  }
  EXPECT_EQ(chunks, 3u);
  EXPECT_EQ(sessions, 3u);
  EXPECT_LE(stats.busy_workers, stats.workers_spawned);
  EXPECT_GE(stats.busy_workers, 1u);

  // One oversized chunk collapses the fleet to a single worker.
  DispatchStats one;
  cfg.chunk = 64;
  cfg.dispatch_stats = &one;
  run_population(cfg);
  EXPECT_EQ(one.workers_spawned, 1u);
  ASSERT_EQ(one.chunks_completed.size(), 1u);
  EXPECT_EQ(one.chunks_completed[0], 1u);
  EXPECT_EQ(one.sessions_completed[0], 3u);
}

// Streaming-mode retry over pipes: a worker killed mid-chunk is retired,
// its remaining chunks run in-process, and the sink still sees the full
// uninterrupted serial byte sequence.
TEST(Dispatch, StreamRetrySurvivesDeadWorker) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 12;
  cfg.processes = 2;
  cfg.chunk = 6;
  cfg.kill_at_index = 9;
  cfg.retry_dead_shards = true;
  CollectSink sink(cfg.sessions);
  run_population(cfg, nullptr, sink);

  PopulationConfig clean = cfg;
  clean.processes = 1;
  clean.kill_at_index = kNoSessionIndex;
  clean.retry_dead_shards = false;
  EXPECT_TRUE(records_equal(run_population(clean), sink.records()));
}

// Retry with every worker dead and chunks still queued: the parent claims
// the queue head itself instead of waiting for a worker to deal it to.
// Worker 0 dies before its first session; worker 1 finishes chunk [1,2),
// is dealt chunk [4,5), and dies; chunk [5,6) is never dealt.
TEST(Dispatch, RetryRunsQueuedChunksWhenNoWorkerIsLeft) {
  PopulationConfig cfg = small_config(23);
  cfg.sessions = 6;
  cfg.processes = 2;
  cfg.chunk = 1;
  cfg.kill_at_index = 0;
  cfg.crash_after_index = 1;
  cfg.crash_after_signal = SIGKILL;
  cfg.retry_dead_shards = true;
  const auto salvaged = run_population(cfg);

  PopulationConfig clean = cfg;
  clean.processes = 1;
  clean.kill_at_index = kNoSessionIndex;
  clean.crash_after_index = kNoSessionIndex;
  clean.retry_dead_shards = false;
  EXPECT_TRUE(records_equal(run_population(clean), salvaged));
}

}  // namespace
}  // namespace wira::exp
