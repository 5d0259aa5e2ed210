// Unit tests for congestion control: the bandwidth sampler, windowed
// filter, BBRv1 state machine, NewReno, and the Wira initialization hook.
#include <gtest/gtest.h>

#include "cc/bandwidth_sampler.h"
#include "cc/bbr.h"
#include "cc/congestion_controller.h"
#include "cc/newreno.h"
#include "cc/windowed_filter.h"

namespace wira::cc {
namespace {

TEST(WindowedFilter, TracksMaxWithinWindow) {
  MaxFilter<uint64_t, int64_t> f(10);
  f.update(100, 0);
  f.update(80, 1);
  f.update(90, 2);
  EXPECT_EQ(f.best(), 100u);
  f.update(120, 3);
  EXPECT_EQ(f.best(), 120u);
}

TEST(WindowedFilter, OldBestAgesOut) {
  MaxFilter<uint64_t, int64_t> f(10);
  f.update(100, 0);
  for (int64_t t = 1; t <= 25; ++t) f.update(50, t);
  EXPECT_EQ(f.best(), 50u);
}

TEST(WindowedFilter, MinVariantTracksMin) {
  MinFilter<int64_t, int64_t> f(10);
  f.update(100, 1);
  f.update(40, 2);
  f.update(70, 3);
  EXPECT_EQ(f.best(), 40);
}

TEST(BandwidthSampler, SteadyStateAcksGiveTrueRate) {
  BandwidthSampler s;
  // Steady state: packet i sent at i ms, acked at i+5 ms (5 ms RTT), one
  // 1000-byte packet per ms in each direction -> 1 MB/s delivery rate.
  // The caller keeps each packet's snapshot, as Connection's sent_ does.
  std::vector<PacketState> sent;
  RateSample last;
  for (uint64_t i = 0; i < 40; ++i) {
    sent.push_back(s.on_packet_sent(milliseconds(static_cast<int64_t>(i)),
                                    1000, i == 0 ? 0 : 5000));
    if (i >= 5) {
      last = s.on_packet_acked(milliseconds(static_cast<int64_t>(i)),
                               sent[i - 5]);
    }
  }
  EXPECT_NEAR(static_cast<double>(last.bandwidth), 1e6, 1.5e5);
}

TEST(BandwidthSampler, AppLimitedFlagPropagates) {
  BandwidthSampler s;
  const PacketState first = s.on_packet_sent(0, 1000, 0);
  (void)s.on_packet_acked(milliseconds(10), first);
  s.on_app_limited();
  const PacketState second = s.on_packet_sent(milliseconds(20), 1000, 0);
  const auto sample = s.on_packet_acked(milliseconds(30), second);
  EXPECT_TRUE(sample.app_limited);
}

CongestionEvent make_ack_event(TimeNs now, uint64_t pn, uint64_t bytes,
                               TimeNs rtt, Bandwidth bw) {
  CongestionEvent ev;
  ev.now = now;
  ev.acked.push_back(AckedPacket{pn, bytes, now - rtt});
  ev.prior_bytes_in_flight = bytes;
  ev.latest_rtt = rtt;
  ev.min_rtt = rtt;
  ev.smoothed_rtt = rtt;
  ev.bandwidth_sample = bw;
  return ev;
}

TEST(Bbr, StartsInStartupWithDefaultWindow) {
  BbrV1 bbr;
  EXPECT_EQ(bbr.mode(), BbrV1::Mode::kStartup);
  EXPECT_EQ(bbr.congestion_window(), kDefaultInitCwndPackets * kMss);
}

TEST(Bbr, InitialParametersApplyBeforeSamples) {
  BbrV1 bbr;
  bbr.set_initial_parameters(66'000, mbps(8));
  EXPECT_EQ(bbr.congestion_window(), 66'000u);
  EXPECT_EQ(bbr.pacing_rate(), mbps(8));
}

TEST(Bbr, LateInitUpdatePreservesEarnedGrowth) {
  BbrV1 bbr;
  bbr.set_initial_parameters(40'000, mbps(8));
  // One ack grows startup cwnd by acked bytes.
  uint64_t pn = 1;
  bbr.on_packet_sent(0, pn, 10'000, 0, true);
  bbr.on_congestion_event(
      make_ack_event(milliseconds(50), pn, 10'000, milliseconds(50), 0));
  const uint64_t grown = bbr.congestion_window();
  EXPECT_EQ(grown, 50'000u);
  // Corner case 1: FF_Size arrives late and re-initializes to 66 KB.
  bbr.set_initial_parameters(66'000, 0);
  EXPECT_EQ(bbr.congestion_window(), 76'000u);  // 66k + 10k earned
}

TEST(Bbr, MeasuredBandwidthSupersedesInitialPacing) {
  BbrV1 bbr;
  bbr.set_initial_parameters(50'000, mbps(8));
  uint64_t pn = 1;
  bbr.on_packet_sent(0, pn, 1460, 0, true);
  bbr.on_congestion_event(make_ack_event(milliseconds(50), pn, 1460,
                                         milliseconds(50), mbps(4)));
  // Startup pacing gain 2.885 over the measured 4 Mbps.
  EXPECT_NEAR(static_cast<double>(bbr.pacing_rate()),
              2.885 * static_cast<double>(mbps(4)),
              static_cast<double>(mbps(4)) * 0.01);
}

TEST(Bbr, FullBandwidthDetectionExitsStartup) {
  BbrV1 bbr;
  uint64_t pn = 0;
  TimeNs now = 0;
  const Bandwidth bw = mbps(10);
  // Repeated rounds at a plateaued bandwidth must leave STARTUP within a
  // few rounds (3-round / 25% growth rule).
  for (int round = 0; round < 10; ++round) {
    now += milliseconds(20);
    bbr.on_packet_sent(now, ++pn, 1460, 0, true);
    bbr.on_congestion_event(
        make_ack_event(now + milliseconds(20), pn, 1460, milliseconds(20),
                       bw));
  }
  EXPECT_TRUE(bbr.full_bandwidth_reached());
  EXPECT_NE(bbr.mode(), BbrV1::Mode::kStartup);
  EXPECT_EQ(bbr.bandwidth_estimate(), bw);
}

TEST(Bbr, LossEntersConservationRecovery) {
  BbrV1 bbr;
  bbr.set_initial_parameters(100'000, mbps(10));
  uint64_t pn = 0;
  for (int i = 0; i < 20; ++i) bbr.on_packet_sent(0, ++pn, 1460, i * 1460, true);
  CongestionEvent ev;
  ev.now = milliseconds(50);
  ev.prior_bytes_in_flight = 20 * 1460;
  ev.acked.push_back(AckedPacket{20, 1460, 0});
  ev.lost.push_back(LostPacket{1, 1460});
  ev.lost.push_back(LostPacket{2, 1460});
  ev.latest_rtt = milliseconds(50);
  ev.min_rtt = milliseconds(50);
  bbr.on_congestion_event(ev);
  EXPECT_LT(bbr.congestion_window(), 100'000u);
}

TEST(Bbr, RtoCollapsesWindow) {
  BbrV1 bbr;
  bbr.set_initial_parameters(100'000, mbps(10));
  bbr.on_retransmission_timeout(seconds(1));
  EXPECT_EQ(bbr.congestion_window(), 4 * kMss);
}

TEST(Bbr, AppLimitedSamplesDontInflateFilter) {
  BbrV1 bbr;
  uint64_t pn = 0;
  // Establish a genuine 5 Mbps estimate.
  bbr.on_packet_sent(0, ++pn, 1460, 0, true);
  bbr.on_congestion_event(make_ack_event(milliseconds(20), pn, 1460,
                                         milliseconds(20), mbps(5)));
  // An app-limited *lower* sample must not displace it...
  auto ev = make_ack_event(milliseconds(40), ++pn, 1460, milliseconds(20),
                           mbps(1));
  ev.app_limited_sample = true;
  bbr.on_packet_sent(milliseconds(21), pn, 1460, 0, true);
  bbr.on_congestion_event(ev);
  EXPECT_EQ(bbr.bandwidth_estimate(), mbps(5));
}

TEST(Bbr, CarefulResumeSkipsStartup) {
  BbrV1 bbr;
  bbr.resume_from_history(mbps(10), milliseconds(50));
  bbr.set_initial_parameters(50'000, mbps(10));
  // Straight to PROBE_BW with a neutral gain: pacing == remembered rate.
  EXPECT_EQ(bbr.mode(), BbrV1::Mode::kProbeBw);
  EXPECT_TRUE(bbr.full_bandwidth_reached());
  EXPECT_EQ(bbr.bandwidth_estimate(), mbps(10));
  EXPECT_EQ(bbr.pacing_rate(), mbps(10));
  EXPECT_EQ(bbr.min_rtt(), milliseconds(50));
  EXPECT_EQ(bbr.congestion_window(), 50'000u);
}

TEST(Bbr, CarefulResumeIgnoresInvalidHistory) {
  BbrV1 bbr;
  bbr.resume_from_history(0, milliseconds(50));
  EXPECT_EQ(bbr.mode(), BbrV1::Mode::kStartup);
  bbr.resume_from_history(mbps(10), kNoTime);
  EXPECT_EQ(bbr.mode(), BbrV1::Mode::kStartup);
}

TEST(Bbr, ResumedModelUpdatedByHigherSamples) {
  BbrV1 bbr;
  bbr.resume_from_history(mbps(5), milliseconds(50));
  uint64_t pn = 1;
  bbr.on_packet_sent(0, pn, 1460, 0, true);
  bbr.on_congestion_event(make_ack_event(milliseconds(50), pn, 1460,
                                         milliseconds(50), mbps(12)));
  EXPECT_EQ(bbr.bandwidth_estimate(), mbps(12));
}

TEST(NewReno, SlowStartDoublesPerRtt) {
  NewReno reno;
  const uint64_t start = reno.congestion_window();
  CongestionEvent ev;
  ev.now = milliseconds(50);
  ev.acked.push_back(AckedPacket{1, start, 0});
  ev.smoothed_rtt = milliseconds(50);
  reno.on_congestion_event(ev);
  EXPECT_EQ(reno.congestion_window(), 2 * start);
  EXPECT_TRUE(reno.in_slow_start());
}

TEST(NewReno, LossHalvesOncePerRound) {
  NewReno reno;
  reno.set_initial_parameters(100'000, 0);
  reno.on_packet_sent(0, 50, 1460, 0, true);
  CongestionEvent ev;
  ev.now = milliseconds(50);
  ev.lost.push_back(LostPacket{10, 1460});
  ev.lost.push_back(LostPacket{11, 1460});  // same round: no double halving
  ev.smoothed_rtt = milliseconds(50);
  reno.on_congestion_event(ev);
  EXPECT_EQ(reno.congestion_window(), 50'000u);
}

TEST(NewReno, CongestionAvoidanceLinearGrowth) {
  NewReno reno;
  reno.set_initial_parameters(20'000, 0);
  reno.on_packet_sent(0, 1, 1460, 0, true);
  // Force out of slow start via a loss.
  CongestionEvent loss;
  loss.now = milliseconds(10);
  loss.lost.push_back(LostPacket{1, 1460});
  reno.on_congestion_event(loss);
  const uint64_t cwnd = reno.congestion_window();
  ASSERT_FALSE(reno.in_slow_start());
  // Ack a full window: +1 MSS.
  reno.on_packet_sent(milliseconds(11), 100, 1460, 0, true);
  CongestionEvent ev;
  ev.now = milliseconds(60);
  ev.acked.push_back(AckedPacket{100, cwnd, milliseconds(11)});
  ev.smoothed_rtt = milliseconds(50);
  reno.on_congestion_event(ev);
  EXPECT_EQ(reno.congestion_window(), cwnd + kMss);
}

TEST(Factory, CreatesRequestedAlgorithms) {
  EXPECT_EQ(make_controller(CcAlgo::kBbrV1)->name(), "bbr1");
  EXPECT_EQ(make_controller(CcAlgo::kNewReno)->name(), "newreno");
}

}  // namespace
}  // namespace wira::cc
