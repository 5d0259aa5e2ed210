// Unit tests for the observability subsystem: log-bucketed histograms,
// the metrics registry, and the FFCT phase decomposition.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/phase_timeline.h"

namespace wira::obs {
namespace {

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_lo(LatencyHistogram::bucket_index(v)),
              v);
  }
  h.record(3);
  h.record(3);
  h.record(7);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 13u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 7u);
}

TEST(LatencyHistogram, BucketBoundsCoverValueRange) {
  // Every value maps to a bucket whose [lo, hi) range contains it, and
  // bucket indices are monotone in the value.
  size_t prev_index = 0;
  for (uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 31ull, 32ull, 100ull,
                     1000ull, 65535ull, 65536ull, 1ull << 40}) {
    const size_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_GE(v, LatencyHistogram::bucket_lo(idx)) << "v=" << v;
    EXPECT_LT(v, LatencyHistogram::bucket_hi(idx)) << "v=" << v;
    EXPECT_GE(idx, prev_index);
    prev_index = idx;
  }
}

TEST(LatencyHistogram, QuantizationErrorBounded) {
  // Relative bucket width above the exact range is <= 1/kSubBuckets.
  for (uint64_t v : {100ull, 999ull, 12345ull, 1ull << 30}) {
    const size_t idx = LatencyHistogram::bucket_index(v);
    const uint64_t lo = LatencyHistogram::bucket_lo(idx);
    const uint64_t hi = LatencyHistogram::bucket_hi(idx);
    EXPECT_LE(static_cast<double>(hi - lo),
              static_cast<double>(lo) / LatencyHistogram::kSubBuckets *
                      1.0000001 +
                  1.0);
  }
}

TEST(LatencyHistogram, PercentilesOnUniformRamp) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.record(v);
  // 6.25% quantization bound plus in-bucket interpolation slack.
  EXPECT_NEAR(h.percentile(50), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(h.percentile(90), 900.0, 900.0 * 0.07);
  EXPECT_NEAR(h.percentile(99), 990.0, 990.0 * 0.07);
  // Extremes clamp to the observed range.
  EXPECT_EQ(h.percentile(0), 1.0);
  EXPECT_EQ(h.percentile(100), 1000.0);
}

TEST(LatencyHistogram, EmptyIsSafe) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_TRUE(h.buckets().empty());
}

TEST(MetricsRegistry, CountersAndGauges) {
  MetricsRegistry r;
  EXPECT_TRUE(r.empty());
  r.inc("sessions");
  r.inc("sessions", 4);
  r.set_gauge("bytes", 100.0);
  EXPECT_EQ(r.counter("sessions"), 5u);
  EXPECT_EQ(r.counter("never_touched"), 0u);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.find_histogram("nope"), nullptr);
  r.histogram("lat").record(10);
  ASSERT_NE(r.find_histogram("lat"), nullptr);
  EXPECT_EQ(r.find_histogram("lat")->count(), 1u);
}

TEST(MetricsRegistry, JsonIsDeterministicAndOrdered) {
  MetricsRegistry r;
  r.inc("zeta");
  r.inc("alpha");
  r.histogram("lat_us").record(1000);
  std::ostringstream os1, os2;
  r.write_json(os1);
  r.write_json(os2);
  const std::string s = os1.str();
  EXPECT_EQ(s, os2.str());
  // Lexicographic key order inside each section.
  EXPECT_LT(s.find("\"alpha\""), s.find("\"zeta\""));
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s.find("\"p99\""), std::string::npos);
}

// ---- FFCT phase decomposition ------------------------------------------

FfctBoundaries full_boundaries() {
  FfctBoundaries b;
  b.request_sent = milliseconds(10);
  b.request_received = milliseconds(30);
  b.first_origin_byte = milliseconds(45);
  b.ff_parsed = milliseconds(50);
  b.first_byte_received = milliseconds(70);
  b.first_frame_complete = milliseconds(95);
  return b;
}

TEST(PhaseTimeline, PartitionIsExact) {
  const FfctBoundaries b = full_boundaries();
  const auto spans = ffct_phases(b);
  ASSERT_EQ(spans.size(), kNumPhases);
  // Contiguous: each span starts where the previous ended.
  EXPECT_EQ(spans.front().begin, b.request_sent);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].begin, spans[i - 1].end);
  }
  EXPECT_EQ(spans.back().end, b.first_frame_complete);
  TimeNs sum = 0;
  for (const auto& s : spans) sum += s.duration();
  EXPECT_EQ(sum, b.first_frame_complete - b.request_sent);
  // Names follow the taxonomy.
  for (size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_STREQ(spans[i].name, kPhaseNames[i]);
  }
}

TEST(PhaseTimeline, MissingEventsCollapseToZeroSpans) {
  FfctBoundaries b = full_boundaries();
  b.first_origin_byte = kNoTime;
  b.ff_parsed = kNoTime;
  const auto spans = ffct_phases(b);
  ASSERT_EQ(spans.size(), kNumPhases);
  EXPECT_EQ(spans[1].duration(), 0);  // origin_fetch
  EXPECT_EQ(spans[2].duration(), 0);  // ff_parse
  TimeNs sum = 0;
  for (const auto& s : spans) sum += s.duration();
  EXPECT_EQ(sum, b.first_frame_complete - b.request_sent);
}

TEST(PhaseTimeline, OutOfOrderEventsClampMonotone) {
  FfctBoundaries b = full_boundaries();
  // Parser finished after the client already had its first byte: the
  // ff_parse boundary must clamp so no span goes negative.
  b.ff_parsed = milliseconds(80);
  b.first_byte_received = milliseconds(70);
  const auto spans = ffct_phases(b);
  ASSERT_EQ(spans.size(), kNumPhases);
  TimeNs sum = 0;
  for (const auto& s : spans) {
    EXPECT_GE(s.duration(), 0);
    sum += s.duration();
  }
  EXPECT_EQ(sum, b.first_frame_complete - b.request_sent);
}

TEST(PhaseTimeline, IncompleteSessionYieldsNoSpans) {
  FfctBoundaries b = full_boundaries();
  b.first_frame_complete = kNoTime;
  EXPECT_TRUE(ffct_phases(b).empty());
  FfctBoundaries b2 = full_boundaries();
  b2.request_sent = kNoTime;
  EXPECT_TRUE(ffct_phases(b2).empty());
}

}  // namespace
}  // namespace wira::obs
