// Streaming record consumption for the population runner (the
// bounded-memory soak path, DESIGN.md §6).
//
// `run_population(config, metrics, sink)` pushes every completed
// SessionRecord into a RecordSink in index order instead of retaining it,
// so a million-session sweep holds O(workers) records in memory at any
// instant rather than O(sessions).  Two sinks cover the ROADMAP uses:
//
//   - CollectSink: in-memory vector — the classic API.  The vector
//     overload of run_population is exactly this sink, so collect mode
//     stays byte-identical to streaming mode by construction.
//   - AggregateSink: streaming aggregation — folds each record into an
//     obs::MetricsRegistry whose log-bucketed histograms act as quantile
//     sketches (no util::Samples, no per-session retention) and
//     optionally emits one cumulative JSONL summary line every
//     `flush_every` sessions.  This is what the fleet-scale soak runs.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "exp/population_experiment.h"
#include "obs/metrics.h"

namespace wira::exp {

/// Consumer of completed session records.
///
/// Contract: on_record is called exactly once per session, in strictly
/// increasing index order, and never concurrently (the runner serializes
/// calls no matter how many worker processes produced the records) —
/// sinks need not be thread-safe.  The record is moved from after the
/// call, so sinks may scavenge it.  on_complete fires once after the last
/// record of a fully successful sweep; on failure the sweep throws
/// instead and on_complete never runs.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void on_record(size_t index, SessionRecord&& rec) = 0;
  virtual void on_complete(size_t sessions) { (void)sessions; }
};

/// Retains every record — the pre-soak behavior, as a sink.
class CollectSink final : public RecordSink {
 public:
  CollectSink() = default;
  explicit CollectSink(size_t expected_sessions) {
    records_.reserve(expected_sessions);
  }

  void on_record(size_t index, SessionRecord&& rec) override;

  const std::vector<SessionRecord>& records() const { return records_; }
  std::vector<SessionRecord> take() { return std::move(records_); }

 private:
  std::vector<SessionRecord> records_;
};

/// Streaming aggregation: bounded memory regardless of session count.
///
/// Every record folds into `registry()` via record_session_metrics — the
/// same fold the batch runner uses, so the aggregate is bit-identical to
/// a collect-mode run's registry.  Per-scheme FFCT/FFLR quantiles come
/// from the registry's log-bucketed histograms (<=6.25% quantization);
/// no per-session value is ever retained.
class AggregateSink final : public RecordSink {
 public:
  struct Options {
    /// Emit a cumulative JSONL summary line every N sessions (0 = only
    /// the final line from on_complete).  Requires `flush_out`.
    size_t flush_every = 0;
    std::ostream* flush_out = nullptr;  ///< not owned; may be null
    /// Fold per-phase histograms too (mirrors collect_metrics).
    bool include_phases = false;
  };

  AggregateSink() = default;
  explicit AggregateSink(Options options) : options_(options) {}

  void on_record(size_t index, SessionRecord&& rec) override;
  void on_complete(size_t sessions) override;

  /// Cumulative aggregate over every record seen so far.
  const obs::MetricsRegistry& registry() const { return registry_; }
  uint64_t sessions_seen() const { return sessions_seen_; }
  uint64_t flushes_written() const { return flushes_written_; }

  /// Hook appending extra JSON fields to each flush line (the soak bench
  /// injects `"rss_mb": ...`): append `,"key":value` text to *extra.
  void set_flush_hook(void (*hook)(uint64_t sessions_done,
                                   std::string* extra, void* arg),
                      void* arg) {
    flush_hook_ = hook;
    flush_hook_arg_ = arg;
  }

  /// One cumulative summary line: {"sessions":N,"final":bool,
  /// "schemes":{name:{"sessions":n,"ffct_ms":{...},"fflr_ppm":{...}}}}.
  /// Deterministic: scheme order is lexicographic, all numbers derive
  /// from integer histogram state.
  void write_summary_line(std::ostream& os, bool final_line) const;

 private:
  void flush_line(bool final_line);

  Options options_;
  obs::MetricsRegistry registry_;
  uint64_t sessions_seen_ = 0;
  uint64_t flushes_written_ = 0;
  void (*flush_hook_)(uint64_t, std::string*, void*) = nullptr;
  void* flush_hook_arg_ = nullptr;
};

}  // namespace wira::exp
