// FFCT phase decomposition (paper §IV, Figs. 11-13 discussion): splits the
// first-frame completion time of one session into named, contiguous spans
// so regressions can be attributed to a transport phase instead of showing
// up only as an end-of-session scalar.
//
// The boundaries are timestamps the Wira server marks at its
// request_received, origin_byte and first ff_parsed events, plus the
// client's receive-side metrics (exp::ffct_boundaries joins them; no event
// sink is needed).  The spans partition [request_sent,
// first_frame_complete] exactly: every boundary is clamped to be monotone
// and missing boundaries collapse to zero-length spans, so sum(spans) ==
// FFCT identically (the JSONL acceptance check relies on this).
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.h"

namespace wira::obs {

/// One contiguous phase of a session timeline.  `name` points at a static
/// string literal (phase taxonomy below), so spans are trivially copyable.
struct PhaseSpan {
  const char* name = "";
  TimeNs begin = 0;
  TimeNs end = 0;
  TimeNs duration() const { return end - begin; }
};

/// Raw boundary timestamps of one session (kNoTime = never happened).
struct FfctBoundaries {
  TimeNs request_sent = kNoTime;         ///< client: PLAY request departed
  TimeNs request_received = kNoTime;     ///< server: PLAY seen (kRequestReceived)
  TimeNs first_origin_byte = kNoTime;    ///< server: first stream byte sent (kOriginByte)
  TimeNs ff_parsed = kNoTime;            ///< server: FF_Size known (kFfParsed)
  TimeNs first_byte_received = kNoTime;  ///< client: first video byte
                                         ///< (fallback: first stream byte)
  TimeNs first_frame_complete = kNoTime; ///< client: frame 1 done
};

/// Phase taxonomy, in timeline order:
///   handshake    request departure -> server sees PLAY (CHLO propagation,
///                cookie open, initial init-apply all happen in here)
///   origin_fetch -> first stream byte leaves the proxy
///   ff_parse     -> FF_Size parse completes / re-init (the corner-case-1
///                window during which init_cwnd_exp substitutes)
///   delivery     -> the contiguously-delivered stream reaches the first
///                byte of video payload at the client (so propagation,
///                container prelude and any reordering/reassembly stall
///                before the video data all land here)
///   frame_recv   -> first frame completely received
/// Later boundaries that fired before earlier ones (e.g. the client
/// received bytes before the parser finished) clamp to zero-length spans.
inline constexpr const char* kPhaseNames[] = {
    "handshake", "origin_fetch", "ff_parse", "delivery", "frame_recv"};
inline constexpr size_t kNumPhases = 5;

/// Builds the clamped partition.  Returns an empty vector when the session
/// never sent a request or never completed its first frame.
std::vector<PhaseSpan> ffct_phases(const FfctBoundaries& b);

}  // namespace wira::obs
