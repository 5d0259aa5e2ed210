// Telemetry primitives for the experiment harness: named counters, gauges,
// and log-bucketed latency histograms collected into a MetricsRegistry.
//
// Design constraints (see DESIGN.md §Observability):
//   - cheap: recording a histogram sample is two integer ops + one array
//     increment; no per-sample allocation (unlike Samples, which retains
//     every value);
//   - deterministic export: names iterate in lexicographic order and all
//     stored quantities are integers (percentiles interpolate within a
//     bucket, which is a pure function of the counts).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace wira::obs {

/// Log-bucketed histogram for non-negative integer samples (latencies in
/// microseconds, byte counts, ...).  Buckets below kSubBuckets are exact;
/// above that each power-of-two octave splits into kSubBuckets linear
/// sub-buckets, bounding the relative quantization error by
/// 1/kSubBuckets (6.25%).
class LatencyHistogram {
 public:
  static constexpr uint64_t kSubBuckets = 16;  // must be a power of two

  void record(uint64_t value) { record_n(value, 1); }
  void record_n(uint64_t value, uint64_t n);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// p in [0, 100].  Walks the cumulative counts and interpolates linearly
  /// inside the bucket that crosses the rank; clamped to [min, max] so
  /// quantization never reports a value outside the observed range.
  double percentile(double p) const;

  struct Bucket {
    uint64_t lo = 0;     ///< inclusive
    uint64_t hi = 0;     ///< exclusive
    uint64_t count = 0;
  };
  /// Non-empty buckets in ascending value order.
  std::vector<Bucket> buckets() const;

  /// Raw bucket counts (index-aligned); exposed for exact-equality tests.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  static size_t bucket_index(uint64_t value);
  static uint64_t bucket_lo(size_t index);
  static uint64_t bucket_hi(size_t index);

 private:
  std::vector<uint64_t> counts_;  ///< grown on demand
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

/// Flat, name-addressed collection of counters, gauges and histograms.
/// Lookup creates on first use.  Not thread-safe: one owner folds into
/// it (the population sweep's parent folds every record in index order).
class MetricsRegistry {
 public:
  /// Adds `n` to the named counter.
  void inc(std::string_view name, uint64_t n = 1);
  /// Sets the named gauge; the last value set wins.
  void set_gauge(std::string_view name, double value);
  /// Named histogram, created empty on first access.
  LatencyHistogram& histogram(std::string_view name);

  /// Counter value; 0 when the counter was never touched.
  uint64_t counter(std::string_view name) const;
  /// Histogram lookup without creation; nullptr when absent.
  const LatencyHistogram* find_histogram(std::string_view name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  const std::map<std::string, uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, LatencyHistogram, std::less<>>& histograms()
      const {
    return histograms_;
  }

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {count,sum,min,max,mean,p50,p90,p99}}}.  Deterministic field order.
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, LatencyHistogram, std::less<>> histograms_;
};

}  // namespace wira::obs
