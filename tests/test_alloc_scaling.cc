// Heap allocations of a recycled session must not scale with the packets
// it sends.  This binary links the counting operator-new hook
// (WIRA_ALLOC_HOOK_SOURCE), runs sessions of two lengths on one warm
// SessionWorkspace and compares their allocation counts: per-packet state
// (sent-packet records, rate-sampler snapshots, range sets, pooled
// datagram and chunk buffers) must come from capacity the workspace
// already holds.
#include <gtest/gtest.h>

#include "exp/session_runner.h"
#include "util/alloc_stats.h"

namespace wira::exp {
namespace {

struct Cost {
  uint64_t allocs = 0;
  uint64_t packets = 0;
};

Cost run_counted(SessionWorkspace& ws, media::Container container,
                 uint32_t frames) {
  SessionConfig cfg;
  cfg.seed = 17;
  cfg.scheme = core::Scheme::kWira;
  cfg.path = sim::testbed_path();  // 3% loss: retransmissions included
  cfg.stream.container = container;
  cfg.track_frames = frames;
  // A session ends once its frames are tracked and two sync periods have
  // passed: a short period lets the short session end early.  The cookie
  // syncs themselves are off: each one seals a fresh cookie, a cost per
  // period of session time rather than per packet.
  cfg.sync_period = milliseconds(200);
  cfg.cookie_sync_enabled = false;
  cfg.max_session_time = seconds(20);
  const uint64_t before = util::heap_alloc_count();
  const SessionResult r = run_session(cfg, ws);
  Cost c;
  c.allocs = util::heap_alloc_count() - before;
  c.packets = r.server_stats.packets_sent;
  return c;
}

TEST(AllocScaling, WarmSessionAllocationsDoNotGrowWithPackets) {
  ASSERT_TRUE(util::heap_hook_linked());
  for (const media::Container container :
       {media::Container::kFlv, media::Container::kMpegTs}) {
    SessionWorkspace ws;
    // Warm every cache on the long session first.
    run_counted(ws, container, 200);
    const Cost short_run = run_counted(ws, container, 4);
    const Cost long_run = run_counted(ws, container, 200);
    const char* name = container == media::Container::kFlv ? "FLV" : "TS";
    ASSERT_GT(long_run.packets, 4 * short_run.packets) << name;
    const double extra_packets =
        static_cast<double>(long_run.packets - short_run.packets);
    const double extra_allocs =
        static_cast<double>(long_run.allocs) -
        static_cast<double>(short_run.allocs);
    EXPECT_LT(extra_allocs / extra_packets, 0.05)
        << name << ": short " << short_run.allocs << " allocs / "
        << short_run.packets << " packets, long " << long_run.allocs
        << " allocs / " << long_run.packets << " packets";
  }
}

}  // namespace
}  // namespace wira::exp
