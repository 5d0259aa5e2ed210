// Synthetic payload filler shared by the FLV and TS muxers.
//
// Frame payloads are deterministic filler `seed ^ (i * step)` (mod 256),
// which varies with the position so compression-like tooling can't
// collapse it.  The byte depends only on `i & 255`, so the table holds two
// periods: any run of up to 256 bytes starting at `i & 255` is one
// contiguous slice, and a payload is appended with one copy per 256 bytes.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace wira::media {

class PayloadFiller {
 public:
  static constexpr size_t kPeriod = 256;

  constexpr PayloadFiller(uint8_t seed, uint8_t step) {
    for (size_t i = 0; i < table_.size(); ++i) {
      table_[i] = static_cast<uint8_t>(seed ^ (i * step));
    }
  }

  /// Appends filler bytes [first, first + n) of the payload to `w`.
  void append(ByteWriter& w, size_t first, size_t n) const {
    while (n > 0) {
      const size_t run = std::min(n, kPeriod);
      w.bytes(table_.data() + (first & (kPeriod - 1)), run);
      first += run;
      n -= run;
    }
  }

 private:
  std::array<uint8_t, 2 * kPeriod> table_{};
};

}  // namespace wira::media
