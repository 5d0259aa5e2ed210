// Performance smoke: runs the same Monte-Carlo population serially and over
// forked worker processes (sharded by the chunk dealer,
// exp/shard_dispatch), verifies all records are identical (the
// determinism contract) and unchanged with the anomaly triggers off,
// prices the observability overhead over alternating (plain, metrics)
// pairs of multiprocess passes, and prints one JSON object with
// sessions/sec, the CPU seconds of the serial and multiprocess passes
// (serial_cpu_sec, procs_cpu_sec) and the aggregate metrics registry, so
// successive runs build a perf trajectory (tools/run_perf_smoke.sh
// appends it to bench_history/; tools/bench_gate.py gates the throughput
// numbers, including the multiprocess sessions_per_sec_np datapoint).
//
// Usage: perf_smoke [sessions] [seed] [--procs N]
//        (N=0 -> hardware; --procs defaults to a 2-worker datapoint)
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "exp/record_codec.h"
#include "obs/phase_timeline.h"
#include "obs/rss.h"
#include "util/alloc_stats.h"
#include "util/json.h"

using namespace wira;
using namespace wira::exp;

namespace {

double run_timed(const PopulationConfig& cfg, std::vector<SessionRecord>* out,
                 obs::MetricsRegistry* metrics = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  *out = run_population(cfg, metrics);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// User + system CPU seconds of this process and of its reaped children
// (the forked shard workers, which run_population waits for before it
// returns).  A pass's difference is its CPU cost, which a busy host
// inflates far less than it does wall time.
double cpu_seconds() {
  double sec = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    for (const timeval& tv : {ru.ru_utime, ru.ru_stime}) {
      sec += static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    }
  }
  return sec;
}

// Formats microseconds as fixed-point milliseconds.  All inputs are
// integer-derived (histogram means/percentiles over integer buckets), so
// the string is identical across runs and worker counts.
std::string ms(double us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", us / 1000.0);
  return buf;
}

// Per-scheme mean FFCT (ms) and per-scheme-per-phase {p50,p90,p99} (ms)
// from the aggregate registry.  These two objects are the QoE half of the
// perf trajectory: tools/bench_gate.py compares them across runs, so they
// must stay deterministic at any --procs N (they are: the parent folds
// the registry in index order and percentiles are pure functions of the
// counts).
void summarize_qoe(const obs::MetricsRegistry& registry,
                   const std::vector<core::Scheme>& schemes,
                   std::string* ffct_json, std::string* phases_json) {
  std::ostringstream ff, ph;
  ff << "{";
  ph << "{";
  bool first = true;
  for (const core::Scheme scheme : schemes) {
    const char* sname = core::scheme_name(scheme);
    const obs::LatencyHistogram* ffct =
        registry.find_histogram(std::string("ffct_us.") + sname);
    if (ffct == nullptr || ffct->count() == 0) continue;
    if (!first) {
      ff << ", ";
      ph << ", ";
    }
    first = false;
    ff << "\"" << sname << "\": " << ms(ffct->mean());
    ph << "\"" << sname << "\": {";
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      if (p != 0) ph << ", ";
      ph << "\"" << obs::kPhaseNames[p] << "\": ";
      const obs::LatencyHistogram* h = registry.find_histogram(
          std::string("phase.") + obs::kPhaseNames[p] + "_us." + sname);
      if (h == nullptr || h->count() == 0) {
        ph << "null";
        continue;
      }
      ph << "{\"p50\": " << ms(h->percentile(50)) << ", \"p90\": "
         << ms(h->percentile(90)) << ", \"p99\": " << ms(h->percentile(99))
         << "}";
    }
    ph << "}";
  }
  ff << "}";
  ph << "}";
  *ffct_json = ff.str();
  *phases_json = ph.str();
}

// Every record byte through the wire codec, so the determinism check
// covers each field a sharded worker ships, not a hand-picked subset.
std::vector<uint8_t> record_bytes(const std::vector<SessionRecord>& records) {
  std::vector<uint8_t> out;
  CodecWriter w(out);
  for (const SessionRecord& rec : records) encode_session_record(rec, w);
  return out;
}

// Host identity for the trajectory's comparability key: the first CPU's
// family, model, stepping and clock from /proc/cpuinfo, as JSON strings
// ("" where the field is absent), so records from different host types
// never share a bench_gate baseline.
struct CpuKey {
  std::string family, model, stepping, mhz;
};

CpuKey read_cpu_key() {
  CpuKey key;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line) && !line.empty()) {  // first CPU block
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string name =
        line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const size_t value_at = line.find_first_not_of(' ', colon + 1);
    const std::string value =
        value_at == std::string::npos ? "" : line.substr(value_at);
    if (name == "cpu family") key.family = value;
    if (name == "model") key.model = value;
    if (name == "stepping") key.stepping = value;
    if (name == "cpu MHz") key.mhz = value;
  }
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  auto cfg = bench::default_population(args);
  bench::apply_dispatch(args, &cfg);

  // apply_dispatch copies --procs into the config; only the multiprocess
  // passes below may fork, or the serial pass would silently measure the
  // forked runner instead.
  cfg.processes = 1;
  std::vector<SessionRecord> serial_records;
  const uint64_t allocs_before = util::heap_alloc_count();
  const double serial_cpu_before = cpu_seconds();
  const double serial_sec = run_timed(cfg, &serial_records);
  const double serial_cpu_sec = cpu_seconds() - serial_cpu_before;
  const uint64_t allocs_serial = util::heap_alloc_count() - allocs_before;

  // Allocation accounting over the serial pass: operator-new calls (live
  // because this binary links alloc_hook.cc) and arena bytes, both per
  // (session, scheme) run.  Heap-side is the gated metric; arena-side
  // shows where the traffic moved.
  uint64_t session_runs = 0;
  uint64_t arena_bytes = 0;
  for (const SessionRecord& rec : serial_records) {
    session_runs += rec.results.size();
    for (const auto& [scheme, res] : rec.results) arena_bytes += res.arena_bytes;
  }
  const double runs = session_runs > 0 ? static_cast<double>(session_runs) : 1;
  const double allocs_per_session = static_cast<double>(allocs_serial) / runs;
  const double arena_bytes_per_session =
      static_cast<double>(arena_bytes) / runs;

  // The serial sweep once more with the anomaly triggers off: records must
  // stay identical apart from the four anomaly-trigger counters, the only
  // record fields flight_recorder writes.  The triggers cost a few counter
  // reads per run, below run-to-run noise, so this pass is not timed.
  cfg.flight_recorder = false;
  const std::vector<SessionRecord> recorder_off_records = run_population(cfg);
  cfg.flight_recorder = true;

  // Multiprocess pass: forked workers stream serialized records back over
  // pipes to the chunk dealer, which reassembles them index-addressed —
  // the identical-records check below extends the determinism contract
  // across the process boundary.
  const size_t procs = args.procs == 1 ? 2 : args.procs;
  cfg.processes = procs;
  std::vector<SessionRecord> procs_records;
  const double procs_cpu_before = cpu_seconds();
  const double procs_sec = run_timed(cfg, &procs_records);
  const double procs_cpu_sec = cpu_seconds() - procs_cpu_before;

  const std::vector<uint8_t> serial_bytes = record_bytes(serial_records);
  for (SessionRecord& rec : serial_records) {
    rec.anomaly_stall_dumps = 0;
    rec.anomaly_corner_dumps = 0;
    rec.anomaly_decode_dumps = 0;
    rec.anomaly_ffct_dumps = 0;
  }
  const bool deterministic =
      serial_bytes == record_bytes(procs_records) &&
      record_bytes(serial_records) == record_bytes(recorder_off_records);

  // Overhead pairs, over forked workers: a plain pass and one with the
  // full observability stack on (phase spans + the parent's index-order
  // registry fold).  One pass against one other reads host noise as
  // overhead, so the overhead is the median of the per-pair ratios, and
  // the order within a pair alternates from the first pair on, so that
  // running second (warmer caches, or a busier host) favours neither side.
  // The last metrics pass's registry is the aggregate metrics object
  // recorded in the perf trajectory (every pass folds the same one).
  constexpr int kOverheadPairs = 4;
  // Stamped into the record: bench_gate.py compares metrics_overhead only
  // between records measured the same way.
  constexpr const char* kOverheadMethod = "paired_median_4_procs";
  PopulationConfig metrics_cfg = cfg;
  metrics_cfg.collect_metrics = true;
  obs::MetricsRegistry registry;
  Samples pair_ratios;
  Samples metrics_secs;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    std::vector<SessionRecord> scratch;
    double with_sec = 0;
    const auto metrics_pass = [&] {
      registry = obs::MetricsRegistry();
      with_sec = run_timed(metrics_cfg, &scratch, &registry);
    };
    const bool metrics_first = pair % 2 == 1;
    if (metrics_first) metrics_pass();
    const double plain_sec = run_timed(cfg, &scratch);
    if (!metrics_first) metrics_pass();
    pair_ratios.add(with_sec / plain_sec);
    metrics_secs.add(with_sec);
  }
  const double metrics_overhead = pair_ratios.percentile(50) - 1.0;
  const double metrics_sec = metrics_secs.percentile(50);

  const double n = static_cast<double>(args.sessions);
  const size_t effective_procs =
      procs == 0 ? std::thread::hardware_concurrency() : procs;
  std::ostringstream metrics_json;
  registry.write_json(metrics_json);
  std::string ffct_json, phases_json;
  summarize_qoe(registry, cfg.schemes, &ffct_json, &phases_json);
  const CpuKey cpu = read_cpu_key();

  std::printf(
      "{\n"
      "  \"bench\": \"perf_smoke\",\n"
      "  \"sessions\": %zu,\n"
      "  \"seed\": %llu,\n"
      "  \"procs\": %zu,\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"cpu_family\": \"%s\",\n"
      "  \"cpu_model\": \"%s\",\n"
      "  \"cpu_stepping\": \"%s\",\n"
      "  \"cpu_mhz\": \"%s\",\n"
      "  \"peak_rss_mb\": %.1f,\n"
      "  \"serial_sec\": %.3f,\n"
      "  \"serial_cpu_sec\": %.3f,\n"
      "  \"procs_sec\": %.3f,\n"
      "  \"procs_cpu_sec\": %.3f,\n"
      "  \"metrics_sec\": %.3f,\n"
      "  \"sessions_per_sec_1t\": %.1f,\n"
      "  \"sessions_per_sec_np\": %.1f,\n"
      "  \"metrics_overhead\": %.3f,\n"
      "  \"metrics_overhead_method\": \"%s\",\n"
      "  \"allocs_per_session\": %.1f,\n"
      "  \"arena_bytes_per_session\": %.1f,\n"
      "  \"deterministic\": %s,\n"
      "  \"ffct_ms\": %s,\n"
      "  \"phases\": %s,\n"
      "  \"metrics\": %s\n"
      "}\n",
      args.sessions, static_cast<unsigned long long>(args.seed),
      effective_procs,
      std::thread::hardware_concurrency(),
      util::json_escape(cpu.family).c_str(),
      util::json_escape(cpu.model).c_str(),
      util::json_escape(cpu.stepping).c_str(),
      util::json_escape(cpu.mhz).c_str(),
      static_cast<double>(obs::peak_rss_bytes().value_or(0)) / 1e6,
      serial_sec, serial_cpu_sec, procs_sec, procs_cpu_sec, metrics_sec,
      n / serial_sec, n / procs_sec,
      metrics_overhead, kOverheadMethod, allocs_per_session,
      arena_bytes_per_session, deterministic ? "true" : "false",
      ffct_json.c_str(), phases_json.c_str(), metrics_json.str().c_str());
  return deterministic ? 0 : 1;
}
