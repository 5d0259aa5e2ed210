// Heap allocations of a recycled session must not scale with the packets
// it sends.  This binary links the counting operator-new hook
// (WIRA_ALLOC_HOOK_SOURCE), runs sessions of two lengths on one warm
// SessionWorkspace and compares their allocation counts: per-packet state
// (sent-packet records, rate-sampler snapshots, range sets, pooled
// datagram and chunk buffers) must come from capacity the workspace
// already holds, and a warm short session stays under a fixed count.  The
// pool tests check that buffers in events destroyed by a loop reset come
// back to the pool, and that one size class cannot crowd out another.
#include <gtest/gtest.h>

#include "exp/session_runner.h"
#include "sim/link.h"
#include "util/alloc_stats.h"
#include "util/buffer_pool.h"

namespace wira::exp {
namespace {

constexpr size_t kPacketBytes = 1350;
constexpr size_t kChunkBytes = 100'000;

// A datagram still on a link and an origin chunk scheduled ahead (as the
// server's live tail schedules them) go back to the loop's pool when
// reset() destroys their events, even after the link itself is gone: the
// next acquire of each size class allocates nothing.
TEST(PooledBuffers, ResetReturnsInFlightDatagramAndChunk) {
  ASSERT_TRUE(util::heap_hook_linked());
  sim::EventLoop loop;
  util::BufferPool& pool = loop.buffers();
  {
    sim::Link link(loop, sim::LinkConfig{}, 1);
    link.set_receiver([](std::span<sim::Datagram>) {});
    sim::Datagram d;
    d.payload = pool.acquire(kPacketBytes);
    d.payload.resize(kPacketBytes);
    link.send(std::move(d));
  }
  std::vector<uint8_t> chunk = pool.acquire(kChunkBytes);
  chunk.resize(kChunkBytes);
  loop.schedule_in(seconds(1),
                   [bytes = util::PooledBuffer(pool, std::move(chunk))] {});
  ASSERT_EQ(loop.pending(), 2u);
  ASSERT_EQ(pool.pooled(), 0u);

  loop.reset();
  EXPECT_EQ(pool.pooled(), 2u);
  const uint64_t before = util::heap_alloc_count();
  const std::vector<uint8_t> packet = pool.acquire(kPacketBytes);
  const std::vector<uint8_t> big = pool.acquire(kChunkBytes);
  EXPECT_EQ(util::heap_alloc_count(), before);
  EXPECT_GE(packet.capacity(), kPacketBytes);
  EXPECT_GE(big.capacity(), kChunkBytes);

  // Events still pending when the loop itself is destroyed return their
  // buffers into a pool that is still alive (the sanitizer build checks).
  std::vector<uint8_t> late = pool.acquire(kChunkBytes);
  loop.schedule_in(seconds(1),
                   [bytes = util::PooledBuffer(pool, std::move(late))] {});
}

// Each size class is bounded by bytes on its own: a flood of released
// chunk-class buffers fills only its class, so packet-class buffers
// released after it are still kept and reused.
TEST(PooledBuffers, LargeClassFloodKeepsPacketBuffers) {
  ASSERT_TRUE(util::heap_hook_linked());
  sim::EventLoop loop;
  util::BufferPool& pool = loop.buffers();
  for (int i = 0; i < 1000; ++i) {
    pool.release(std::vector<uint8_t>(util::BufferPool::kMaxCapacity));
  }
  constexpr size_t kFull =
      util::BufferPool::kClassBytes / util::BufferPool::kMaxCapacity;
  ASSERT_EQ(pool.pooled(), kFull);

  constexpr size_t kPackets = 100;
  std::vector<std::vector<uint8_t>> held;
  for (size_t i = 0; i < kPackets; ++i) {
    held.push_back(pool.acquire(kPacketBytes));
  }
  for (auto& buf : held) pool.release(std::move(buf));
  EXPECT_EQ(pool.pooled(), kFull + kPackets);

  const uint64_t before = util::heap_alloc_count();
  for (auto& buf : held) buf = pool.acquire(kPacketBytes);
  EXPECT_EQ(util::heap_alloc_count(), before);
}

struct Cost {
  uint64_t allocs = 0;
  uint64_t packets = 0;
};

Cost run_counted(SessionWorkspace& ws, media::Container container,
                 uint32_t frames, bool cookie_sync = false) {
  SessionConfig cfg;
  cfg.seed = 17;
  cfg.scheme = core::Scheme::kWira;
  cfg.path = sim::testbed_path();  // 3% loss: retransmissions included
  cfg.stream.container = container;
  cfg.track_frames = frames;
  // A session ends once its frames are tracked and two sync periods have
  // passed: a short period lets the short session end early.  The cookie
  // syncs themselves are off unless asked for: each one seals a fresh
  // cookie, a cost per period of session time rather than per packet.
  cfg.sync_period = milliseconds(200);
  cfg.cookie_sync_enabled = cookie_sync;
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

// What a warm short session still allocates is session-shaped (the
// connection, stream and client objects, their growing buffers, the
// handshake maps), plus one sized buffer per cookie seal.  The bounds sit
// about 25% above what this code measures (FLV 67, TS 98, FLV with cookie
// syncs 72).  With sent packets in map nodes and the frame parser growing
// its cell buffer byte by byte, the same sessions took 71, 107 and 75;
// before buffers in pending events went back to the pool at reset, and
// before the cookie and handshake writers were sized once, 157, 176 and
// 171.
TEST(AllocScaling, WarmShortSessionStaysUnderAbsoluteBound) {
  ASSERT_TRUE(util::heap_hook_linked());
  struct Case {
    const char* name;
    media::Container container;
    bool cookie_sync;
    uint64_t bound;
  };
  for (const Case& c : {Case{"FLV", media::Container::kFlv, false, 85},
                        Case{"TS", media::Container::kMpegTs, false, 125},
                        Case{"FLV with cookie syncs", media::Container::kFlv,
                             true, 90}}) {
    SessionWorkspace ws;
    run_counted(ws, c.container, 200, c.cookie_sync);
    run_counted(ws, c.container, 4, c.cookie_sync);
    const Cost warm = run_counted(ws, c.container, 4, c.cookie_sync);
    EXPECT_LE(warm.allocs, c.bound) << c.name;
  }
}

}  // namespace
}  // namespace wira::exp
