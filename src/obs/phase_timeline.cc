#include "obs/phase_timeline.h"

#include <algorithm>

namespace wira::obs {

std::vector<PhaseSpan> ffct_phases(const FfctBoundaries& b) {
  if (b.request_sent == kNoTime || b.first_frame_complete == kNoTime ||
      b.first_frame_complete < b.request_sent) {
    return {};
  }
  const TimeNs start = b.request_sent;
  const TimeNs end = b.first_frame_complete;
  const TimeNs raw[kNumPhases - 1] = {b.request_received, b.first_origin_byte,
                                      b.ff_parsed, b.first_byte_received};
  std::vector<PhaseSpan> spans;
  spans.reserve(kNumPhases);
  TimeNs cur = start;
  for (size_t i = 0; i + 1 < kNumPhases; ++i) {
    // A missing boundary inherits the previous one (zero-length span);
    // out-of-order boundaries clamp into [cur, end].
    const TimeNs t =
        raw[i] == kNoTime ? cur : std::clamp(raw[i], cur, end);
    spans.push_back(PhaseSpan{kPhaseNames[i], cur, t});
    cur = t;
  }
  spans.push_back(PhaseSpan{kPhaseNames[kNumPhases - 1], cur, end});
  return spans;
}

}  // namespace wira::obs
