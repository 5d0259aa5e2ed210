// perfbench: the repository benchmark's runner.  perfbench/run.py builds
// it and calls
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--proxyd PATH] [--run-dir DIR]
//
// It prints one {"detail": ...} line and then, as its last line, the
// result: {"correct", "attempted", "failed", "metrics"}.  --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep_flv|sweep_ts_sharded|proxyd_zap --seed N --seconds S "
               "--trace 0|1 [--proxyd PATH] [--run-dir DIR]\n",
               msg);
  std::exit(2);
}

bool parse_number(const char* s, double lo, double hi, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v >= lo && v <= hi)) return false;
  *out = v;
  return true;
}

perfbench::RunArgs parse_args(int argc, char** argv) {
  perfbench::RunArgs a;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage("every flag needs a value");
    const char* value = argv[++i];
    double v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!parse_number(value, 0, 1e15, &v)) usage("bad --seed");
      a.seed = static_cast<uint64_t>(v);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!parse_number(value, 0.1, 600, &v)) usage("bad --seconds");
      a.seconds = v;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--proxyd") == 0) {
      a.proxyd = value;
    } else if (std::strcmp(flag, "--run-dir") == 0) {
      a.run_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload != "sweep_flv" && a.workload != "sweep_ts_sharded" &&
      a.workload != "proxyd_zap") {
    usage("unknown --workload");
  }
  if (a.workload == "proxyd_zap" && (a.proxyd.empty() || a.run_dir.empty())) {
    usage("proxyd_zap needs --proxyd and --run-dir");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunArgs args = parse_args(argc, argv);
  perfbench::RunResult result;
  try {
    if (args.workload == "proxyd_zap") {
      perfbench::run_zap(args, result);
    } else {
      perfbench::run_sweep(args, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::string detail = "{\"detail\": {";
  for (size_t i = 0; i < result.detail.size(); ++i) {
    if (i > 0) detail += ", ";
    detail += result.detail[i];
  }
  detail += "}, \"failures\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    if (i > 0) detail += ", ";
    detail += "\"" + perfbench::json_escape(result.failures[i]) + "\"";
  }
  std::printf("%s]}\n", detail.c_str());

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
