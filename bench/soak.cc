// Bounded-memory soak: the million-session endurance run (DESIGN.md §6).
//
// Streams the population sweep through an exp::AggregateSink instead of
// collecting records, so memory stays O(workers) no matter how many
// sessions run.  Every --flush-every sessions the sink emits one
// cumulative JSONL summary line (with the current RSS injected) and the
// bench samples resident-set size from /proc/self/status; the final JSON
// reports peak_rss_mb and rss_plateau = max(late-half RSS samples) /
// max(early-half RSS samples) — a flat plateau (~1.0) is the measured
// form of "bounded memory".  Links the operator-new hook so
// allocs_per_session is reported from the same run.
//
// The headline invocation (ROADMAP: 1M sessions, ~4h serial on one core):
//   ./bench/soak --sessions 1000000 --flush-every 10000
//
// Live progress goes to stderr; flush lines go to --flush-out (default
// soak_flush.jsonl); the final JSON goes to stdout.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exp/record_sink.h"
#include "obs/rss.h"
#include "util/alloc_stats.h"

using namespace wira;
using exp::AggregateSink;
using exp::PopulationConfig;

namespace {

struct SoakArgs : bench::DispatchArgs {
  size_t sessions = 20'000;
  size_t flush_every = 10'000;
  uint64_t seed = 1;
  std::string flush_out = "soak_flush.jsonl";
  std::string anomaly_dir;
  uint64_t anomaly_ffct_ms = 0;  ///< 0 = FFCT trigger disabled
};

[[noreturn]] void soak_usage(const char* prog, const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: %s [sessions] [seed] [--sessions N] "
               "[--flush-every N] [--seed N] [--threads N] [--procs N] "
               "[--chunk N] [--workers host:port,...] "
               "[--connect-timeout-ms N] [--retry-dead-shards] "
               "[--flush-out FILE] [--anomaly-dir DIR] "
               "[--anomaly-ffct-ms N]\n",
               msg, prog);
  std::exit(2);
}

SoakArgs parse_soak_args(int argc, char** argv) {
  SoakArgs a;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (bench::parse_dispatch_flag(argc, argv, &i, &a, soak_usage)) continue;
    uint64_t v = 0;
    if (const char* val =
            bench::flag_value("--sessions", argc, argv, &i, soak_usage)) {
      if (!bench::parse_u64(val, &v) || v == 0) {
        soak_usage(argv[0], "--sessions must be a positive integer");
      }
      a.sessions = static_cast<size_t>(v);
      continue;
    }
    if (const char* val =
            bench::flag_value("--flush-every", argc, argv, &i, soak_usage)) {
      if (!bench::parse_u64(val, &v) || v == 0) {
        soak_usage(argv[0], "--flush-every must be a positive integer");
      }
      a.flush_every = static_cast<size_t>(v);
      continue;
    }
    if (const char* val =
            bench::flag_value("--seed", argc, argv, &i, soak_usage)) {
      if (!bench::parse_u64(val, &v) || v == 0) {
        soak_usage(argv[0], "--seed must be a positive integer");
      }
      a.seed = v;
      continue;
    }
    if (const char* val =
            bench::flag_value("--flush-out", argc, argv, &i, soak_usage)) {
      if (*val == '\0') soak_usage(argv[0], "--flush-out needs a path");
      a.flush_out = val;
      continue;
    }
    if (const char* val =
            bench::flag_value("--anomaly-dir", argc, argv, &i, soak_usage)) {
      if (*val == '\0') soak_usage(argv[0], "--anomaly-dir needs a path");
      a.anomaly_dir = val;
      continue;
    }
    if (const char* val = bench::flag_value("--anomaly-ffct-ms", argc, argv,
                                            &i, soak_usage)) {
      if (!bench::parse_u64(val, &v) || v == 0) {
        soak_usage(argv[0], "--anomaly-ffct-ms must be a positive integer");
      }
      a.anomaly_ffct_ms = v;
      continue;
    }
    switch (positional++) {
      case 0:
        if (!bench::parse_u64(argv[i], &v) || v == 0) {
          soak_usage(argv[0], "sessions must be a positive integer");
        }
        a.sessions = static_cast<size_t>(v);
        break;
      case 1:
        if (!bench::parse_u64(argv[i], &v) || v == 0) {
          soak_usage(argv[0], "seed must be a positive integer");
        }
        a.seed = v;
        break;
      default:
        soak_usage(argv[0], "too many positional arguments");
    }
  }
  return a;
}

/// Per-flush observer: samples RSS (also injected into the flush line)
/// and repaints the live progress line on stderr.
struct SoakMonitor {
  size_t total_sessions = 0;
  std::chrono::steady_clock::time_point start;
  std::vector<double> rss_mb;  ///< one sample per flush, in flush order
  /// Live chunk-scheduler telemetry (updated in place by the dispatcher;
  /// the flush hook runs inline in the same parent loop, so reads are
  /// race-free).  workers_spawned == 0 means no dispatcher ran.
  exp::DispatchStats dispatch;
};

void on_flush(uint64_t sessions_done, std::string* extra, void* arg) {
  auto* m = static_cast<SoakMonitor*>(arg);
  // Monostate contract (obs/rss.h): an unavailable reading is skipped —
  // no sample recorded, no "rss_mb" field — so rss_plateau never sees a
  // fabricated zero.
  const std::optional<uint64_t> rss = obs::current_rss_bytes();
  if (rss.has_value()) {
    const double mb = static_cast<double>(*rss) / 1e6;
    m->rss_mb.push_back(mb);
    char buf[48];
    std::snprintf(buf, sizeof buf, ",\"rss_mb\":%.1f", mb);
    *extra += buf;
  }
  // Chunk-scheduler telemetry rides every flush line when a dispatcher is
  // driving the sweep (--procs > 1 or --workers): per-worker completed
  // chunk counts plus the busy-worker high-watermark.  wira_exporterd
  // turns these into wira_dispatch_* Prometheus families.
  if (m->dispatch.workers_spawned > 0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\"dispatch\":{\"busy\":%zu,\"chunks\":{",
                  m->dispatch.busy_workers);
    *extra += buf;
    for (size_t w = 0; w < m->dispatch.chunks_completed.size(); ++w) {
      std::snprintf(buf, sizeof buf, "%s\"%zu\":%llu", w == 0 ? "" : ",", w,
                    static_cast<unsigned long long>(
                        m->dispatch.chunks_completed[w]));
      *extra += buf;
    }
    *extra += "}}";
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    m->start)
          .count();
  std::fprintf(stderr,
               "\rsoak: %llu/%zu sessions (%.1f%%)  %.1f/s  rss %.1f MB   ",
               static_cast<unsigned long long>(sessions_done),
               m->total_sessions,
               100.0 * static_cast<double>(sessions_done) /
                   static_cast<double>(m->total_sessions),
               elapsed > 0 ? static_cast<double>(sessions_done) / elapsed
                           : 0.0,
               rss.has_value() ? static_cast<double>(*rss) / 1e6 : 0.0);
  std::fflush(stderr);
}

/// max(late-half samples) / max(early-half samples); 0 when there are too
/// few samples to split (callers treat 0 as "unavailable").
double rss_plateau(const std::vector<double>& samples) {
  if (samples.size() < 2) return 0.0;
  const size_t half = samples.size() / 2;
  double early = 0.0, late = 0.0;
  for (size_t i = 0; i < half; ++i) early = std::max(early, samples[i]);
  for (size_t i = half; i < samples.size(); ++i) {
    late = std::max(late, samples[i]);
  }
  return early > 0 ? late / early : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const SoakArgs args = parse_soak_args(argc, argv);

  PopulationConfig cfg;
  cfg.sessions = args.sessions;
  cfg.seed = args.seed;
  bench::apply_dispatch(args, &cfg);
  cfg.anomaly_dir = args.anomaly_dir;
  if (args.anomaly_ffct_ms > 0) {
    cfg.anomaly_ffct =
        milliseconds(static_cast<int64_t>(args.anomaly_ffct_ms));
  }

  std::ofstream flush_stream(args.flush_out, std::ios::trunc);
  if (!flush_stream) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 args.flush_out.c_str());
    return 2;
  }

  SoakMonitor monitor;
  monitor.total_sessions = args.sessions;
  monitor.start = std::chrono::steady_clock::now();
  cfg.dispatch_stats = &monitor.dispatch;

  AggregateSink::Options opts;
  opts.flush_every = args.flush_every;
  opts.flush_out = &flush_stream;
  AggregateSink sink(opts);
  sink.set_flush_hook(&on_flush, &monitor);

  const uint64_t allocs_before = util::heap_alloc_count();
  exp::run_population(cfg, nullptr, sink);
  const uint64_t allocs = util::heap_alloc_count() - allocs_before;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    monitor.start)
          .count();
  std::fprintf(stderr, "\n");

  const double runs = static_cast<double>(args.sessions) *
                      static_cast<double>(cfg.schemes.size());
  const double peak_mb =
      static_cast<double>(obs::peak_rss_bytes().value_or(0)) / 1e6;
  std::string aggregate;
  {
    std::ostringstream os;
    sink.write_summary_line(os, /*final_line=*/true);
    aggregate = os.str();
    while (!aggregate.empty() && aggregate.back() == '\n') {
      aggregate.pop_back();
    }
  }

  std::printf(
      "{\n"
      "  \"bench\": \"soak\",\n"
      "  \"sessions\": %zu,\n"
      "  \"flush_every\": %zu,\n"
      "  \"seed\": %llu,\n"
      "  \"threads\": %zu,\n"
      "  \"procs\": %zu,\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"elapsed_sec\": %.3f,\n"
      "  \"sessions_per_sec\": %.1f,\n"
      "  \"allocs_per_session\": %.1f,\n"
      "  \"peak_rss_mb\": %.1f,\n"
      "  \"rss_plateau\": %.4f,\n"
      "  \"rss_samples\": %zu,\n"
      "  \"flushes_written\": %llu,\n"
      "  \"aggregate\": %s\n"
      "}\n",
      args.sessions, args.flush_every,
      static_cast<unsigned long long>(args.seed), args.threads, args.procs,
      std::thread::hardware_concurrency(), elapsed,
      elapsed > 0 ? static_cast<double>(args.sessions) / elapsed : 0.0,
      allocs > 0 ? static_cast<double>(allocs) / runs : 0.0,
      peak_mb, rss_plateau(monitor.rss_mb), monitor.rss_mb.size(),
      static_cast<unsigned long long>(sink.flushes_written()),
      aggregate.c_str());
  return 0;
}
