#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "util/json.h"

namespace wira::obs {

namespace {

constexpr uint64_t kSubBucketBits = 4;  // log2(LatencyHistogram::kSubBuckets)
static_assert((uint64_t{1} << kSubBucketBits) ==
              LatencyHistogram::kSubBuckets);

/// Formats a double with enough precision for stable round-tripping of the
/// interpolated percentiles (integers print without a fraction).
std::string fmt_double(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace

size_t LatencyHistogram::bucket_index(uint64_t value) {
  if (value < kSubBuckets) return static_cast<size_t>(value);
  // Octave = position of the highest set bit; the kSubBucketBits bits
  // below it select the linear sub-bucket within the octave.
  const int octave = std::bit_width(value) - 1;  // >= kSubBucketBits
  const int shift = octave - static_cast<int>(kSubBucketBits);
  const uint64_t sub = (value >> shift) - kSubBuckets;  // in [0, kSubBuckets)
  return static_cast<size_t>(
      kSubBuckets +
      static_cast<uint64_t>(octave - static_cast<int>(kSubBucketBits)) *
          kSubBuckets +
      sub);
}

uint64_t LatencyHistogram::bucket_lo(size_t index) {
  if (index < kSubBuckets) return index;
  const uint64_t block = (index - kSubBuckets) / kSubBuckets;
  const uint64_t sub = (index - kSubBuckets) % kSubBuckets;
  return (kSubBuckets + sub) << block;
}

uint64_t LatencyHistogram::bucket_hi(size_t index) {
  if (index < kSubBuckets) return index + 1;
  const uint64_t block = (index - kSubBuckets) / kSubBuckets;
  return bucket_lo(index) + (uint64_t{1} << block);
}

void LatencyHistogram::record_n(uint64_t value, uint64_t n) {
  if (n == 0) return;
  const size_t idx = bucket_index(value);
  if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
  counts_[idx] += n;
  count_ += n;
  sum_ += value * n;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  if (p == 0.0) return static_cast<double>(min());  // matches Samples
  // Rank in [1, count]: the p-th percentile is the value below which
  // p% of the samples fall (nearest-rank with in-bucket interpolation).
  const double target =
      std::max(1.0, p / 100.0 * static_cast<double>(count_));
  uint64_t cum = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      const double into_bucket =
          target - static_cast<double>(cum - counts_[i]);
      const double frac = into_bucket / static_cast<double>(counts_[i]);
      const double lo = static_cast<double>(bucket_lo(i));
      const double hi = static_cast<double>(bucket_hi(i));
      const double v = lo + (hi - lo) * frac;
      return std::clamp(v, static_cast<double>(min()),
                        static_cast<double>(max()));
    }
  }
  return static_cast<double>(max());
}

std::vector<LatencyHistogram::Bucket> LatencyHistogram::buckets() const {
  std::vector<Bucket> out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    out.push_back(Bucket{bucket_lo(i), bucket_hi(i), counts_[i]});
  }
  return out;
}

void MetricsRegistry::inc(std::string_view name, uint64_t n) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), n);
  } else {
    it->second += n;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), LatencyHistogram{}).first;
  }
  return it->second;
}

uint64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const LatencyHistogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    os << (first ? "" : ",") << '"' << util::json_escape(name) << "\":" << v;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges_) {
    os << (first ? "" : ",") << '"' << util::json_escape(name)
       << "\":" << fmt_double(v);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << '"' << util::json_escape(name) << "\":{"
       << "\"count\":" << h.count() << ",\"sum\":" << h.sum()
       << ",\"min\":" << h.min() << ",\"max\":" << h.max()
       << ",\"mean\":" << fmt_double(h.mean())
       << ",\"p50\":" << fmt_double(h.percentile(50))
       << ",\"p90\":" << fmt_double(h.percentile(90))
       << ",\"p99\":" << fmt_double(h.percentile(99)) << "}";
    first = false;
  }
  os << "}}";
}

}  // namespace wira::obs
