#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace wira {

void Samples::add_all(const std::vector<double>& vs) {
  values_.insert(values_.end(), vs.begin(), vs.end());
  sorted_valid_ = false;
}

double Samples::sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::mean() const {
  if (values_.empty()) return 0;
  return sum() / static_cast<double>(values_.size());
}

double Samples::min() const {
  if (values_.empty()) return 0;
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  if (values_.empty()) return 0;
  return *std::max_element(values_.begin(), values_.end());
}

double Samples::stddev() const {
  if (values_.size() < 2) return 0;
  const double m = mean();
  double acc = 0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size()));
}

double Samples::cv() const {
  const double m = mean();
  if (m == 0) return 0;
  return stddev() / m;
}

void Samples::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0;
  ensure_sorted();
  if (p <= 0) return sorted_.front();
  if (p >= 100) return sorted_.back();
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (bins == 0 || hi <= lo) {
    throw std::invalid_argument("Histogram: empty range");
  }
}

void Histogram::add(double v) {
  double idx = (v - lo_) / width_;
  long i = static_cast<long>(idx);
  if (i < 0) i = 0;
  if (i >= static_cast<long>(counts_.size()))
    i = static_cast<long>(counts_.size()) - 1;
  counts_[static_cast<size_t>(i)]++;
  total_++;
}

double Histogram::cdf(double x) const {
  if (total_ == 0) return 0;
  size_t acc = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (bin_hi(i) <= x) {
      acc += counts_[i];
    } else {
      break;
    }
  }
  return static_cast<double>(acc) / static_cast<double>(total_);
}

double Histogram::bin_hi(size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string fmt_gain(double baseline, double value) {
  if (baseline == 0) return "n/a";
  const double pct = (value - baseline) / baseline * 100.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", pct);
  return buf;
}

}  // namespace wira
