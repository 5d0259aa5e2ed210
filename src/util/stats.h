// Sample statistics used by the measurement harness: mean, percentiles,
// coefficient of variation (Eq. 1 of the paper), and fixed-bin histograms.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace wira {

/// Accumulates scalar samples; percentile queries sort a copy on demand.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_valid_ = false;
  }
  void add_all(const std::vector<double>& vs);

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  /// Population standard deviation.
  double stddev() const;

  /// Coefficient of variation as defined in the paper (Eq. 1):
  ///   CV = sqrt(sum (v_i - v_avg)^2) / (N * v_avg)
  /// Note the paper's formula divides the root-sum-of-squares by N (not
  /// sqrt(N)); we implement the conventional CV = stddev/mean, which is what
  /// the reported magnitudes (e.g. 36.4%) correspond to.
  double cv() const;

  /// p in [0, 100]; linear interpolation between order statistics.
  double percentile(double p) const;

  const std::vector<double>& values() const { return values_; }
  void clear() {
    values_.clear();
    sorted_.clear();
    sorted_valid_ = false;
  }

 private:
  std::vector<double> values_;
  /// Cache for percentile(); explicitly invalidated by add/add_all/clear
  /// (a size-based heuristic breaks on clear-then-refill with equal count).
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  void ensure_sorted() const;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins.  Used to print CDF rows for the figure benches.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t bins);

  void add(double v);
  size_t count() const { return total_; }

  /// Fraction of samples <= x (empirical CDF using bin upper edges).
  double cdf(double x) const;
  double bin_hi(size_t i) const;
  size_t bin_count(size_t i) const { return counts_[i]; }
  size_t num_bins() const { return counts_.size(); }

 private:
  double lo_, hi_, width_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

/// Formats "123.4" style numbers for bench table output.
std::string fmt(double v, int decimals = 1);

/// Percentage-change string, e.g. fmt_gain(158.9, 142.0) == "-10.6%".
std::string fmt_gain(double baseline, double value);

}  // namespace wira
