// Unit tests for the disjoint-range set used by ACK tracking and stream
// retransmission bookkeeping.
#include "quic/range_set.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/rng.h"

namespace wira::quic {
namespace {

TEST(RangeSet, AddAndContains) {
  RangeSet s;
  s.add(5, 10);
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.contains(10));
  EXPECT_FALSE(s.contains(4));
  EXPECT_FALSE(s.contains(11));
  EXPECT_EQ(s.total_length(), 6u);
}

TEST(RangeSet, AdjacentRangesMerge) {
  RangeSet s;
  s.add(1, 3);
  s.add(4, 6);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.min(), 1u);
  EXPECT_EQ(s.max(), 6u);
}

TEST(RangeSet, OverlappingRangesMerge) {
  RangeSet s;
  s.add(1, 5);
  s.add(3, 9);
  s.add(20, 25);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.total_length(), 9u + 6u);
}

TEST(RangeSet, GapKeepsRangesSeparate) {
  RangeSet s;
  s.add(1, 3);
  s.add(5, 7);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.contains(4));
  s.add(4);
  EXPECT_EQ(s.size(), 1u);
}

TEST(RangeSet, BridgingAddMergesMany) {
  RangeSet s;
  s.add(1, 2);
  s.add(5, 6);
  s.add(9, 10);
  s.add(2, 9);  // bridges all three
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.total_length(), 10u);
}

TEST(RangeSet, SubtractMiddleSplits) {
  RangeSet s;
  s.add(1, 10);
  s.subtract(4, 6);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
  EXPECT_FALSE(s.contains(6));
  EXPECT_TRUE(s.contains(7));
}

TEST(RangeSet, SubtractEdgesTrims) {
  RangeSet s;
  s.add(5, 10);
  s.subtract(1, 6);
  s.subtract(9, 20);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.min(), 7u);
  EXPECT_EQ(s.max(), 8u);
}

TEST(RangeSet, SubtractAcrossMultipleRanges) {
  RangeSet s;
  s.add(1, 3);
  s.add(5, 7);
  s.add(9, 11);
  s.subtract(2, 10);
  EXPECT_EQ(s.ascending(),
            (std::vector<Range>{{1, 1}, {11, 11}}));
}

TEST(RangeSet, DescendingOrderForAcks) {
  RangeSet s;
  s.add(1, 3);
  s.add(10, 12);
  s.add(6, 7);
  std::vector<Range> desc;
  s.visit_descending([&](const Range& r) { desc.push_back(r); });
  ASSERT_EQ(desc.size(), 3u);
  EXPECT_EQ(desc[0], (Range{10, 12}));
  EXPECT_EQ(desc[1], (Range{6, 7}));
  EXPECT_EQ(desc[2], (Range{1, 3}));
}

TEST(RangeSet, PopFrontPartialAndFull) {
  RangeSet s;
  s.add(10, 19);
  const Range a = s.pop_front(4);
  EXPECT_EQ(a, (Range{10, 13}));
  const Range b = s.pop_front(100);
  EXPECT_EQ(b, (Range{14, 19}));
  EXPECT_TRUE(s.empty());
}

TEST(RangeSet, SingleValues) {
  RangeSet s;
  s.add(42);
  EXPECT_TRUE(s.contains(42));
  EXPECT_EQ(s.total_length(), 1u);
  s.subtract(42, 42);
  EXPECT_TRUE(s.empty());
}

TEST(RangeSet, ZeroBoundary) {
  RangeSet s;
  s.add(0, 0);
  s.add(1, 5);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.min(), 0u);
}

// Disjoint maximal ranges of a value set, ascending.
std::vector<Range> model_ranges(const std::set<uint64_t>& model) {
  std::vector<Range> out;
  for (const uint64_t v : model) {
    if (!out.empty() && out.back().hi + 1 == v) {
      out.back().hi = v;
    } else {
      out.push_back({v, v});
    }
  }
  return out;
}

// Seeded differential test: random add / subtract / pop_front calls
// against a std::set<uint64_t> model, with the full range list, contains()
// and visit_gaps() compared after every call.  Values start at 0 so the
// lo == 0 edge is exercised throughout.
TEST(RangeSet, MatchesSetModelUnderRandomOps) {
  constexpr uint64_t kUniverse = 120;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RangeSet s;
    std::set<uint64_t> model;
    for (int op = 0; op < 400; ++op) {
      const uint64_t lo = rng.below(kUniverse);
      const uint64_t hi = lo + rng.below(rng.chance(0.7) ? 4 : 30);
      const uint64_t pick = rng.below(10);
      std::string what;
      if (pick < 5) {
        s.add(lo, hi);
        for (uint64_t v = lo; v <= hi; ++v) model.insert(v);
        what = "add";
      } else if (pick < 8) {
        s.subtract(lo, hi);
        for (uint64_t v = lo; v <= hi; ++v) model.erase(v);
        what = "subtract";
      } else {
        const uint64_t max_len = rng.below(6);
        const Range got = s.pop_front(max_len);
        Range want{};
        if (!model.empty() && max_len > 0) {
          want.lo = want.hi = *model.begin();
          model.erase(model.begin());
          while (want.hi - want.lo + 1 < max_len &&
                 model.count(want.hi + 1) != 0) {
            model.erase(++want.hi);
          }
        }
        ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
        what = "pop_front";
      }
      const std::string where = "seed " + std::to_string(seed) + " op " +
                                std::to_string(op) + " (" + what + " " +
                                std::to_string(lo) + ".." +
                                std::to_string(hi) + ")";
      ASSERT_EQ(s.ascending(), model_ranges(model)) << where;
      ASSERT_EQ(s.total_length(), model.size()) << where;
      ASSERT_EQ(s.empty(), model.empty()) << where;
      for (uint64_t v = 0; v < kUniverse + 40; ++v) {
        ASSERT_EQ(s.contains(v), model.count(v) != 0) << where << " v " << v;
      }
      std::set<uint64_t> gaps;
      s.visit_gaps(lo, hi, [&](const Range& r) {
        for (uint64_t v = r.lo; v <= r.hi; ++v) gaps.insert(v);
      });
      std::set<uint64_t> want_gaps;
      for (uint64_t v = lo; v <= hi; ++v) {
        if (model.count(v) == 0) want_gaps.insert(v);
      }
      ASSERT_EQ(gaps, want_gaps) << where;
    }
  }
}

}  // namespace
}  // namespace wira::quic
