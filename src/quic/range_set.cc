#include "quic/range_set.h"

#include <algorithm>

namespace wira::quic {

std::vector<Range>::const_iterator RangeSet::first_ending_at_or_after(
    uint64_t v) const {
  return std::partition_point(ranges_.begin(), ranges_.end(),
                              [v](const Range& r) { return r.hi < v; });
}

void RangeSet::add(uint64_t lo, uint64_t hi) {
  if (hi < lo) return;
  // Ranges that overlap or touch [lo, hi] merge with it: from the first
  // with hi + 1 >= lo to the last with lo <= hi + 1.
  const auto first =
      lo == 0 ? ranges_.begin()
              : std::partition_point(
                    ranges_.begin(), ranges_.end(),
                    [lo](const Range& r) { return r.hi < lo - 1; });
  const auto last =
      hi == UINT64_MAX
          ? ranges_.end()
          : std::partition_point(first, ranges_.end(), [hi](const Range& r) {
              return r.lo <= hi + 1;
            });
  if (first == last) {
    ranges_.insert(first, Range{lo, hi});
    return;
  }
  first->lo = std::min(lo, first->lo);
  first->hi = std::max(hi, std::prev(last)->hi);
  ranges_.erase(first + 1, last);
}

void RangeSet::subtract(uint64_t lo, uint64_t hi) {
  if (hi < lo) return;
  const auto first =
      std::partition_point(ranges_.begin(), ranges_.end(),
                           [lo](const Range& r) { return r.hi < lo; });
  const auto last = std::partition_point(
      first, ranges_.end(), [hi](const Range& r) { return r.lo <= hi; });
  if (first == last) return;
  // What survives of the overlapped ranges: a left and a right remainder.
  const bool keep_left = first->lo < lo;
  const bool keep_right = std::prev(last)->hi > hi;
  const Range left{first->lo, lo - 1};
  const Range right{hi + 1, std::prev(last)->hi};
  auto out = first;
  if (keep_left) *out++ = left;
  if (keep_right) {
    if (out == last) {
      ranges_.insert(out, right);  // one range split in two
      return;
    }
    *out++ = right;
  }
  ranges_.erase(out, last);
}

bool RangeSet::contains(uint64_t v) const {
  const auto it = first_ending_at_or_after(v);
  return it != ranges_.end() && it->lo <= v;
}

uint64_t RangeSet::total_length() const {
  uint64_t n = 0;
  for (const Range& r : ranges_) n += r.length();
  return n;
}

Range RangeSet::pop_front(uint64_t max_len) {
  if (ranges_.empty() || max_len == 0) return Range{};
  Range& front = ranges_.front();
  const uint64_t take = std::min<uint64_t>(front.hi - front.lo + 1, max_len);
  const Range r{front.lo, front.lo + take - 1};
  if (r.hi == front.hi) {
    ranges_.erase(ranges_.begin());
  } else {
    front.lo = r.hi + 1;
  }
  return r;
}

}  // namespace wira::quic
