// Shared pieces of the benchmark runner: clocks, exact percentiles,
// rusage, span accounting, and the result every workload fills in.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace wira {}

namespace perfbench {

// The runner speaks the program's vocabulary: TimeNs, exp::, sim::, ...
using namespace wira;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Every tail latency is reported at this percentile.  Higher ones swing
/// too much from seed to seed: a run simulates about a thousand distinct
/// sessions, and proxyd's media varies with the wall clock.
inline constexpr double kTailPercentile = 90;

/// Exact percentile (linear interpolation between order statistics);
/// 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// getrusage CPU seconds of this process and its reaped descendants.
struct Usage {
  double self_cpu_s = 0;
  double children_cpu_s = 0;
};
Usage usage_now();

/// Returns freed heap to the kernel and restarts this process's peak-RSS
/// high-water mark (/proc/self/clear_refs), so the next peak reading
/// covers only what runs after this call.
void reset_peak_rss();
/// Peak RSS (MB) of this process since the last reset_peak_rss().
double self_peak_rss_mb();
/// Largest peak RSS (MB) among this process's live child processes.
double children_peak_rss_mb();

/// Threads of this process right now (/proc/self/task entries).
size_t thread_count();
/// fork() calls this process has made so far (pthread_atfork counter,
/// armed by the first call).
uint64_t forks_so_far();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string proxyd;   ///< perfbench_proxyd binary (proxyd_zap)
  std::string run_dir;  ///< working directory for proxyd's port and log files
};

/// What one run reports: operations attempted and failed, the metrics,
/// and free-form detail printed above the final line.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;   ///< one line per failed check
  std::vector<std::string> detail;     ///< "key": value JSON members

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; a false `ok` is a failure named `what`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
  /// Counts `n` checked operations of which `bad` failed.
  void check_many(uint64_t n, uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0 && failures.size() < 20) {
      failures.push_back(what + ": " + std::to_string(bad) + " of " +
                         std::to_string(n));
    }
  }
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& value);
};

/// Nested wall-time spans around the benchmark's calls into one layer.
/// A span's self time is its duration minus the time its child spans
/// cover; spans opened with no parent are counted as top-level.
class SpanClock {
 public:
  static constexpr size_t kMaxKinds = 8;

  template <typename F>
  void span(size_t kind, F&& body) {
    if (stack_.empty()) top_level_[kind]++;
    stack_.push_back({kind, now_ns(), 0});
    body();
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t dur = now_ns() - open.start;
    total_ns_[kind] += dur;
    self_ns_[kind] += dur - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  int64_t total_ns(size_t kind) const { return total_ns_[kind]; }
  int64_t self_ns(size_t kind) const { return self_ns_[kind]; }
  uint64_t top_level(size_t kind) const { return top_level_[kind]; }

 private:
  struct Open {
    size_t kind;
    int64_t start;
    int64_t child_ns;
  };
  std::vector<Open> stack_;
  std::array<int64_t, kMaxKinds> total_ns_{};
  std::array<int64_t, kMaxKinds> self_ns_{};
  std::array<uint64_t, kMaxKinds> top_level_{};
};

/// `s` with quotes and backslashes escaped and control bytes dropped, for
/// a JSON string body.
std::string json_escape(const std::string& s);

/// splitmix64: derives independent seeds from the run seed.
uint64_t mix_seed(uint64_t seed, uint64_t salt);

}  // namespace perfbench
