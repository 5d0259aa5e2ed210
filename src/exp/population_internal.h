// Internal seams of the population runner, shared between
// population_experiment.cc and the shard dispatcher (exp/shard_dispatch).
// Everything here is an implementation detail: the functions live in
// population_experiment.cc and keep their exact serial semantics — the
// dispatcher reuses them so every execution mode (serial, forked workers,
// salvage retry) runs the same session code.
#pragma once

#include "exp/population_experiment.h"

namespace wira::exp::internal {

/// Crash replay state (DESIGN.md §7) of a forked worker re-running a dead
/// shard's chunk: every (session, scheme) streams, unbuffered, into
/// anomaly_dir as crash_session_<i>_<scheme>.{server,client}.sqlog, and
/// opening a pair removes the one before it — so if the replay dies, the
/// pair left behind is the one in flight.
struct CrashReplay {
  std::string open_pair;  ///< anomaly_dir/<name> of the newest pair
  /// Removes the newest pair: a replay that ends without dying leaves no
  /// crash trace behind.
  void discard();
};

/// Simulates session `i`.  All randomness derives from (config.seed, i)
/// and `population` is read-only, so any partition of the index space
/// across workers reproduces the serial records bit-exactly — and any
/// session can be re-run later to trace it.  A non-null `crash` traces
/// every scheme run as a crash replay instead of writing qlog samples or
/// anomaly dumps.
SessionRecord run_one_session(const PopulationConfig& config,
                              const popgen::Population& population, size_t i,
                              SessionWorkspace& ws,
                              CrashReplay* crash = nullptr);

/// Sweep prologues: materialize the qlog sample / anomaly-dump
/// directories (non-fatal on failure).  run_population runs them once,
/// before any worker starts.
void prepare_trace_dir(const PopulationConfig& config);
void prepare_anomaly_dir(const PopulationConfig& config);

/// EINTR-safe full write; false on any other error (EPIPE = peer gone).
bool write_all(int fd, const uint8_t* data, size_t n);

}  // namespace wira::exp::internal
