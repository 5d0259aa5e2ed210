// Set of disjoint closed uint64 ranges, used for received packet numbers,
// acked stream bytes and retransmission scheduling.
//
// Stored as a sorted flat vector: the sets stay small (a few ranges per
// loss episode), nearly every add extends or appends the last range, and
// a cleared set keeps its capacity, so the per-packet paths allocate
// nothing once warm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wira::quic {

/// Closed interval [lo, hi].
struct Range {
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t length() const { return hi - lo + 1; }
  bool operator==(const Range&) const = default;
};

class RangeSet {
 public:
  /// Adds [lo, hi] (inclusive), merging with neighbours.
  void add(uint64_t lo, uint64_t hi);
  void add(uint64_t v) { add(v, v); }

  /// Removes [lo, hi] from the set (splitting ranges as needed).
  void subtract(uint64_t lo, uint64_t hi);

  bool contains(uint64_t v) const;
  bool empty() const { return ranges_.empty(); }
  size_t size() const { return ranges_.size(); }
  uint64_t total_length() const;

  uint64_t min() const { return ranges_.front().lo; }
  uint64_t max() const { return ranges_.back().hi; }

  /// Ranges in ascending order.
  const std::vector<Range>& ascending() const { return ranges_; }

  /// Visits up to `max_ranges` ranges in descending order (ACK frame
  /// layout).
  template <typename Fn>
  void visit_descending(Fn&& fn, size_t max_ranges = SIZE_MAX) const {
    size_t n = 0;
    for (auto it = ranges_.rbegin(); it != ranges_.rend() && n < max_ranges;
         ++it, ++n) {
      fn(*it);
    }
  }

  /// Visits, in ascending order, the maximal sub-ranges of [lo, hi] that
  /// are NOT in the set.
  template <typename Fn>
  void visit_gaps(uint64_t lo, uint64_t hi, Fn&& fn) const {
    if (hi < lo) return;
    uint64_t next = lo;  // first value of [lo, hi] not yet classified
    for (auto it = first_ending_at_or_after(lo);
         it != ranges_.end() && it->lo <= hi; ++it) {
      if (it->lo > next) fn(Range{next, it->lo - 1});
      if (it->hi >= hi) return;
      next = it->hi + 1;
    }
    fn(Range{next, hi});
  }

  /// Pops up to `max_len` values from the lowest range and returns them
  /// (a zero Range when the set is empty or max_len == 0).
  Range pop_front(uint64_t max_len);

  void clear() { ranges_.clear(); }

 private:
  /// First range with hi >= v.
  std::vector<Range>::const_iterator first_ending_at_or_after(
      uint64_t v) const;

  std::vector<Range> ranges_;  ///< ascending, disjoint, gaps >= 1 value
};

}  // namespace wira::quic
