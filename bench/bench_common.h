// Shared helpers for the figure/table bench binaries.
//
// Every binary accepts an optional first argument overriding the number of
// Monte-Carlo sessions (default kDefaultSessions) and an optional second
// argument overriding the seed, so `./fig11_overall 2000 7` scales the run.
//
// Dispatch flags (parse_dispatch_flag; soak parses the same set):
// `--procs N` shards the session sweep over forked worker processes, which
// also contain crashes.  The output is identical at any worker count
// (sessions are seeded per index), and a dead worker is named and, with
// --retry-dead-shards, its missing sessions are re-run in-process (see
// exp::PopulationConfig::processes).  `--threads 1` is still accepted and
// means serial; any other --threads value is a usage error naming
// --procs, since there are no worker threads.  `--chunk N` (N >= 1) sets
// the dispatch chunk size.  run_with_obs applies them to every sweep it
// runs, so every sweep binary honours them; a dead shard without
// --retry-dead-shards ends the run with "error: ..." and exit 3.
//
// Observability flags (PR 2):
//   --metrics-out FILE   write one JSONL line per (session, scheme) with
//                        the FFCT phase breakdown; byte-identical at any
//                        --procs N (written post-join in index order).
//   --trace-sample N     dump a standard qlog (.sqlog, draft-ietf-quic-qlog
//                        as JSONL) of every Nth session into --trace-dir
//                        (default "traces/").
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "exp/population_experiment.h"
#include "exp/session_export.h"
#include "exp/table.h"
#include "obs/metrics.h"
#include "util/stats.h"

namespace wira::bench {

inline constexpr size_t kDefaultSessions = 250;

/// The dispatch flags every sweep binary and soak accept.
struct DispatchArgs {
  /// Worker processes: 1 = in-process, 0 = one per hardware thread.
  size_t procs = 1;
  /// Dynamic dispatch chunk size (sessions per chunk, >= 1).
  size_t chunk = exp::PopulationConfig{}.chunk;
  /// Salvage + re-run sessions lost to a dead worker process.
  bool retry_dead_shards = false;
};

struct Args : DispatchArgs {
  size_t sessions = kDefaultSessions;
  uint64_t seed = 1;
  /// Per-session JSONL metrics file; empty = metrics collection off.
  std::string metrics_out;
  /// Dump a full qlog of every Nth session (0 = off) into trace_dir.
  size_t trace_sample = 0;
  std::string trace_dir = "traces";
};

/// strtoull with full validation: the whole token must be a base-10
/// number (rejects "12abc", "-3", "" and overflow).
inline bool parse_u64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-' || *s == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

[[noreturn]] inline void usage_error(const char* prog, const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: %s [sessions] [seed] "
               "[--procs N] [--chunk N] [--retry-dead-shards] "
               "[--metrics-out FILE] "
               "[--trace-sample N] [--trace-dir DIR]\n",
               msg, prog);
  std::exit(2);
}

/// Reports a usage error for argv[0] and exits 2.
using UsageFn = void (*)(const char* prog, const char* msg);

/// Extracts the value of `--name VALUE` / `--name=VALUE` style flags.
/// Returns nullptr when argv[*i] is not this flag; a missing value goes
/// to `usage`.
inline const char* flag_value(const char* name, int argc, char** argv,
                              int* i, UsageFn usage = usage_error) {
  const size_t len = std::strlen(name);
  const char* arg = argv[*i];
  if (std::strncmp(arg, name, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] != '\0') return nullptr;  // e.g. --trace-sampleX
  if (++*i >= argc) {
    std::string msg(name);
    msg += " needs a value";
    usage(argv[0], msg.c_str());
  }
  return argv[*i];
}

/// Consumes argv[*i] when it is a dispatch flag, sending a bad value to
/// `usage`.  Returns false for any other argument.
inline bool parse_dispatch_flag(int argc, char** argv, int* i,
                                DispatchArgs* d, UsageFn usage) {
  uint64_t v = 0;
  if (const char* val = flag_value("--threads", argc, argv, i, usage)) {
    if (!parse_u64(val, &v) || v != 1) {
      usage(argv[0], "--threads only accepts 1 (serial); use --procs N for "
                     "a parallel sweep");
    }
    return true;
  }
  if (const char* val = flag_value("--procs", argc, argv, i, usage)) {
    // 0 is meaningful here too: one worker per hardware thread.
    if (!parse_u64(val, &v)) {
      usage(argv[0], "--procs must be a non-negative integer");
    }
    d->procs = static_cast<size_t>(v);
    return true;
  }
  if (const char* val = flag_value("--chunk", argc, argv, i, usage)) {
    if (!parse_u64(val, &v) || v == 0) {
      usage(argv[0], "--chunk must be a positive integer");
    }
    d->chunk = static_cast<size_t>(v);
    return true;
  }
  if (std::strcmp(argv[*i], "--retry-dead-shards") == 0) {
    d->retry_dead_shards = true;
    return true;
  }
  return false;
}

inline Args parse_args(int argc, char** argv) {
  Args a;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (parse_dispatch_flag(argc, argv, &i, &a, usage_error)) continue;
    if (const char* val = flag_value("--metrics-out", argc, argv, &i)) {
      if (*val == '\0') usage_error(argv[0], "--metrics-out needs a path");
      a.metrics_out = val;
      continue;
    }
    if (const char* val = flag_value("--trace-sample", argc, argv, &i)) {
      uint64_t v = 0;
      if (!parse_u64(val, &v) || v == 0) {
        usage_error(argv[0], "--trace-sample must be a positive integer");
      }
      a.trace_sample = static_cast<size_t>(v);
      continue;
    }
    if (const char* val = flag_value("--trace-dir", argc, argv, &i)) {
      if (*val == '\0') usage_error(argv[0], "--trace-dir needs a path");
      a.trace_dir = val;
      continue;
    }
    if (std::strncmp(arg, "--", 2) == 0) {
      usage_error(argv[0], ("unknown flag '" + std::string(arg) + "'").c_str());
    }
    uint64_t v = 0;
    switch (positional++) {
      case 0:
        if (!parse_u64(arg, &v) || v == 0) {
          usage_error(argv[0], "sessions must be a positive integer");
        }
        a.sessions = static_cast<size_t>(v);
        break;
      case 1:
        if (!parse_u64(arg, &v) || v == 0) {
          usage_error(argv[0], "seed must be a positive integer");
        }
        a.seed = v;
        break;
      default:
        usage_error(argv[0], "too many positional arguments");
    }
  }
  return a;
}

/// Copies the dispatch flags into `cfg`.
inline void apply_dispatch(const DispatchArgs& d, exp::PopulationConfig* cfg) {
  cfg->processes = d.procs;
  cfg->chunk = d.chunk;
  cfg->retry_dead_shards = d.retry_dead_shards;
}

inline exp::PopulationConfig default_population(const Args& a) {
  exp::PopulationConfig cfg;
  cfg.sessions = a.sessions;
  cfg.seed = a.seed;
  cfg.collect_metrics = !a.metrics_out.empty();
  cfg.trace_sample = a.trace_sample;
  cfg.trace_dir = a.trace_dir;
  return cfg;
}

/// Runs the population sweep with the dispatch flags applied and honours
/// the observability flags: when --metrics-out was given, writes the
/// per-session JSONL (post-join, index order — byte-identical at any
/// worker count).  A dead shard (retry off) prints "error: <what>" and
/// exits 3.  All fig/abl binaries go through this instead of calling
/// run_population directly.
inline std::vector<exp::SessionRecord> run_with_obs(
    exp::PopulationConfig cfg, const Args& a,
    obs::MetricsRegistry* registry = nullptr) {
  // Sweep binaries call this once per point: the first call truncates the
  // metrics file, later calls append with an incremented "run" field.
  static int run_counter = 0;
  // Phase decompositions feed the per-phase breakdown table every binary
  // prints (PR 3), so they are always collected here; --metrics-out only
  // controls the per-session JSONL dump.
  cfg.collect_metrics = true;
  if (cfg.trace_sample == 0) cfg.trace_sample = a.trace_sample;
  cfg.trace_dir = a.trace_dir;
  apply_dispatch(a, &cfg);
  std::vector<exp::SessionRecord> records;
  try {
    records = exp::run_population(cfg, registry);
  } catch (const exp::PopulationShardError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(3);
  }
  if (!a.metrics_out.empty()) {
    const int run = run_counter++;
    std::ofstream os(a.metrics_out,
                     run == 0 ? std::ios::trunc : std::ios::app);
    if (!os) {
      std::fprintf(stderr, "error: cannot open --metrics-out file %s\n",
                   a.metrics_out.c_str());
      std::exit(2);
    }
    exp::write_records_jsonl(records, os, run);
    std::fprintf(stderr, "wrote per-session metrics JSONL: %s (run %d)\n",
                 a.metrics_out.c_str(), run);
  }
  return records;
}

/// Appends the per-phase p50/p90/p99 breakdown to the binary's output.
/// Built from the same post-join records as the main tables, so it is
/// byte-identical at any --procs N.  Sweep binaries pass the records of
/// every point they visited, accumulated in visit order.
inline void print_phase_breakdown(
    const std::vector<exp::SessionRecord>& records) {
  exp::banner("FFCT phase breakdown (ms per scheme)");
  exp::ffct_phase_table(records).print();
}

/// Standard FFCT summary row: scheme, mean, p50, p70, p90, p95 (ms) and
/// the gain vs. a baseline mean.
inline std::vector<std::string> ffct_row(const std::string& name,
                                         const Samples& s,
                                         double baseline_mean) {
  return {name,
          fmt(s.mean()),
          fmt(s.percentile(50)),
          fmt(s.percentile(70)),
          fmt(s.percentile(90)),
          fmt(s.percentile(95)),
          fmt_gain(baseline_mean, s.mean()),
          std::to_string(s.count())};
}

inline const std::vector<std::string> kFfctHeaders = {
    "scheme", "avg(ms)", "p50", "p70", "p90", "p95", "avg-gain", "n"};

}  // namespace wira::bench
