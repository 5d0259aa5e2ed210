// Population dispatch on one host (DESIGN.md §6): dynamic chunk
// scheduling over forked shard workers — one dealer, one channel kind.
//
// Scheduling: the parent cuts the session index space [0, sessions) into
// contiguous chunks (PopulationConfig::chunk indices each) and keeps a
// queue of unassigned chunks.  Every worker holds at most two outstanding
// chunk assignments — one in flight, one buffered so the worker never idles
// between chunks — and receives the next queue chunk the moment its
// in-flight chunk completes.  Stragglers therefore stop gating the
// sweep: a slow worker simply pulls fewer chunks.  Reassembly is
// index-addressed and per-session seeding depends only on
// (config.seed, index), so stdout, metrics JSONL, and the parent's
// registry are byte-identical to serial at any worker count or chunk size.
//
// Transport (config.processes > 1): each worker is a forked child that
// inherits the config; a control pipe carries chunk assignments to it and
// a data pipe carries record frames back.  waitpid gives exact death
// diagnoses ("killed by signal 9", "exited with status 1"), and a crash
// stays inside its worker, so the sweep can name it, salvage its records
// and replay its session.
//
// Both streams speak exp/record_codec frames: control streams are
// [header][kChunkAssign...][kEnd], data streams are
// [header][kSessionRecord...][kEnd] — one wire format, one reader
// (exp::FrameReader), one failure taxonomy (PopulationShardError,
// retry_dead_shards) and one salvage contract.
#pragma once

#include <cstddef>
#include <vector>

#include "exp/population_experiment.h"

namespace wira::exp {

class RecordSink;

/// One contiguous range of session indices the scheduler dispatches as a
/// unit.
struct Chunk {
  size_t begin = 0;
  size_t end = 0;  ///< one past the last index

  size_t size() const { return end - begin; }
};

/// Cuts [0, sessions) into fixed-size chunks (the last one short).
/// chunk_size must be positive.
std::vector<Chunk> make_chunks(size_t sessions, size_t chunk_size);

/// Workers worth using for `n` independent items given a requested
/// count (0 = hardware concurrency); always at least 1.
size_t clamp_threads(size_t requested, size_t n);

/// The multi-worker sweep behind both run_population overloads: forks
/// workers (`processes` of them, clamped), dispatches chunks, and hands each completed chunk's records to `sink`
/// in strictly increasing index order, holding O(workers · chunk) records
/// at any instant.  Metrics (when requested) are folded in that same index
/// order — bit-identical to the serial fold.  A worker death follows
/// run_population's failure contract.
void dispatch_population_stream(const PopulationConfig& config,
                                obs::MetricsRegistry* metrics,
                                RecordSink& sink);

}  // namespace wira::exp
