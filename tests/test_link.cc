// Unit tests for the emulated link and duplex path: serialization delay,
// queueing, buffer overflow, stochastic loss, and one delivery call per
// datagram.
#include "sim/link.h"

#include <gtest/gtest.h>

#include "sim/path.h"

namespace wira::sim {
namespace {

Datagram make_dgram(size_t size) {
  Datagram d;
  d.payload.resize(size);
  d.size = size;
  return d;
}

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = mbps(8);               // 1 MB/s
  cfg.delay = milliseconds(25);
  Link link(loop, cfg, 1);
  TimeNs delivered_at = kNoTime;
  link.set_receiver(
      [&](std::span<Datagram>) { delivered_at = loop.now(); });
  link.send(make_dgram(1000));  // 1 ms serialization
  loop.run();
  EXPECT_EQ(delivered_at, milliseconds(26));
}

TEST(Link, BackToBackPacketsQueueBehindSerializer) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = mbps(8);
  cfg.delay = 0;
  cfg.buffer_bytes = 100 * 1000;
  Link link(loop, cfg, 1);
  std::vector<TimeNs> arrivals;
  link.set_receiver([&](std::span<Datagram> batch) {
    for (size_t i = 0; i < batch.size(); ++i) arrivals.push_back(loop.now());
  });
  for (int i = 0; i < 3; ++i) link.send(make_dgram(1000));
  loop.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], milliseconds(1));
  EXPECT_EQ(arrivals[1], milliseconds(2));
  EXPECT_EQ(arrivals[2], milliseconds(3));
}

TEST(Link, DropTailOnBufferOverflow) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = mbps(8);
  cfg.delay = 0;
  cfg.buffer_bytes = 2500;  // fits two 1000-byte packets + slack
  Link link(loop, cfg, 1);
  size_t delivered = 0;
  link.set_receiver(
      [&](std::span<Datagram> batch) { delivered += batch.size(); });
  for (int i = 0; i < 5; ++i) link.send(make_dgram(1000));
  loop.run();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(link.stats().queue_drops, 3u);
}

TEST(Link, QueueDrainsOverTime) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = mbps(8);
  cfg.delay = 0;
  cfg.buffer_bytes = 2500;
  Link link(loop, cfg, 1);
  link.set_receiver([](std::span<Datagram>) {});
  link.send(make_dgram(1000));
  link.send(make_dgram(1000));
  EXPECT_EQ(link.queued_bytes(), 2000u);
  loop.run_until(milliseconds(1));
  EXPECT_EQ(link.queued_bytes(), 1000u);
  // Freed space admits a new packet.
  link.send(make_dgram(1000));
  EXPECT_EQ(link.stats().queue_drops, 0u);
}

TEST(Link, BernoulliLossApproximatesConfiguredRate) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = mbps(1000);
  cfg.delay = 0;
  cfg.buffer_bytes = 1 << 30;
  cfg.loss.loss_rate = 0.03;
  Link link(loop, cfg, 99);
  size_t delivered = 0;
  link.set_receiver(
      [&](std::span<Datagram> batch) { delivered += batch.size(); });
  const int n = 20'000;
  for (int i = 0; i < n; ++i) link.send(make_dgram(100));
  loop.run();
  const double loss =
      static_cast<double>(link.stats().wire_drops) / n;
  EXPECT_NEAR(loss, 0.03, 0.005);
  EXPECT_EQ(delivered + link.stats().wire_drops, static_cast<size_t>(n));
}

TEST(Link, GilbertElliottProducesBurstyLoss) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = mbps(1000);
  cfg.delay = 0;
  cfg.buffer_bytes = 1 << 30;
  cfg.loss.p_good_to_bad = 0.01;
  cfg.loss.p_bad_to_good = 0.2;
  cfg.loss.bad_state_loss = 0.5;
  Link link(loop, cfg, 5);
  for (int i = 0; i < 50'000; ++i) link.send(make_dgram(100));
  loop.run();
  // Expected steady-state loss ~ (0.01/(0.01+0.2)) * 0.5 ~ 2.4%.
  const double loss = static_cast<double>(link.stats().wire_drops) / 50'000;
  EXPECT_GT(loss, 0.01);
  EXPECT_LT(loss, 0.05);
}

TEST(Link, DeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    EventLoop loop;
    LinkConfig cfg;
    cfg.loss.loss_rate = 0.1;
    Link link(loop, cfg, seed);
    link.set_receiver([](std::span<Datagram>) {});
    for (int i = 0; i < 1000; ++i) link.send(make_dgram(100));
    loop.run();
    return link.stats().wire_drops;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Link, JitterSpreadsArrivals) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = mbps(1000);
  cfg.delay = milliseconds(10);
  cfg.jitter = milliseconds(20);
  Link link(loop, cfg, 3);
  std::vector<TimeNs> arrivals;
  link.set_receiver([&](std::span<Datagram> batch) {
    for (size_t i = 0; i < batch.size(); ++i) arrivals.push_back(loop.now());
  });
  for (int i = 0; i < 200; ++i) link.send(make_dgram(100));
  loop.run();
  ASSERT_EQ(arrivals.size(), 200u);
  TimeNs lo = arrivals[0], hi = arrivals[0];
  bool reordered = false;
  TimeNs prev = 0;
  for (TimeNs t : arrivals) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    if (t < prev) reordered = true;
    prev = t;
  }
  EXPECT_GT(hi - lo, milliseconds(10));  // spread well beyond tx spacing
  // Note: the delivery callback order follows event time, so observing
  // reordering requires comparing against send order, which is FIFO here.
  (void)reordered;
}

TEST(Link, ReorderRateDelaysSomePackets) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = mbps(1000);
  cfg.delay = milliseconds(5);
  cfg.reorder_rate = 0.5;
  cfg.reorder_extra_delay = milliseconds(30);
  Link link(loop, cfg, 4);
  size_t late = 0, total = 0;
  link.set_receiver([&](std::span<Datagram> batch) {
    total += batch.size();
    if (loop.now() > milliseconds(20)) late += batch.size();
  });
  for (int i = 0; i < 100; ++i) link.send(make_dgram(100));
  loop.run();
  EXPECT_EQ(total, 100u);
  EXPECT_GT(late, 25u);
  EXPECT_LT(late, 75u);
}

TEST(Link, DuplicationDeliversTwice) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = mbps(1000);
  cfg.delay = 0;
  cfg.duplicate_rate = 1.0;  // every packet duplicated
  Link link(loop, cfg, 5);
  size_t delivered = 0;
  link.set_receiver(
      [&](std::span<Datagram> batch) { delivered += batch.size(); });
  for (int i = 0; i < 50; ++i) link.send(make_dgram(100));
  loop.run();
  EXPECT_EQ(delivered, 100u);
}

TEST(Link, SameInstantArrivalsKeepSendOrder) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = mbps(8'000'000);  // 100-byte tx time rounds to 0 ns
  cfg.delay = milliseconds(5);
  Link link(loop, cfg, 1);
  std::vector<size_t> span_sizes;
  std::vector<uint8_t> tags;
  std::vector<TimeNs> arrivals;
  link.set_receiver([&](std::span<Datagram> dgrams) {
    span_sizes.push_back(dgrams.size());
    for (const Datagram& d : dgrams) tags.push_back(d.payload[0]);
    arrivals.push_back(loop.now());
  });
  for (uint8_t tag = 0; tag < 4; ++tag) {
    Datagram d = make_dgram(100);
    d.payload[0] = tag;
    link.send(std::move(d));
  }
  loop.run();
  EXPECT_EQ(span_sizes, (std::vector<size_t>{1, 1, 1, 1}));
  EXPECT_EQ(tags, (std::vector<uint8_t>{0, 1, 2, 3}));
  for (TimeNs t : arrivals) EXPECT_EQ(t, milliseconds(5));
  EXPECT_EQ(link.stats().delivered_packets, 4u);
  EXPECT_EQ(link.stats().delivered_bytes, 400u);
}

TEST(Link, LoopResetDropsInFlightDatagrams) {
  LinkConfig cfg;
  cfg.rate = mbps(8);  // 1 ms per 1000-byte packet
  cfg.delay = milliseconds(5);
  auto arrivals_on = [&](EventLoop& loop) {
    Link link(loop, cfg, 1);
    std::vector<TimeNs> arrivals;
    link.set_receiver([&](std::span<Datagram> dgrams) {
      for (size_t i = 0; i < dgrams.size(); ++i) {
        arrivals.push_back(loop.now());
      }
    });
    for (int i = 0; i < 3; ++i) link.send(make_dgram(1000));
    loop.run();
    return arrivals;
  };

  EventLoop loop;
  Link stale(loop, cfg, 1);
  size_t stale_calls = 0;
  stale.set_receiver([&](std::span<Datagram>) { ++stale_calls; });
  for (int i = 0; i < 3; ++i) stale.send(make_dgram(1000));
  loop.run_until(milliseconds(2));  // all three still in flight
  loop.reset();
  loop.run();
  EXPECT_EQ(stale_calls, 0u);
  EXPECT_EQ(stale.stats().delivered_packets, 0u);

  EventLoop fresh;
  const std::vector<TimeNs> expected = arrivals_on(fresh);
  ASSERT_EQ(expected.size(), 3u);
  EXPECT_EQ(expected[0], milliseconds(6));
  EXPECT_EQ(arrivals_on(loop), expected);
}

TEST(Path, TestbedMatchesPaperParameters) {
  const PathConfig p = testbed_path();
  EXPECT_EQ(p.bandwidth, mbps(8));
  EXPECT_EQ(p.rtt, milliseconds(50));
  EXPECT_DOUBLE_EQ(p.loss_rate, 0.03);
  EXPECT_EQ(p.buffer_bytes, 25u * 1024);
}

TEST(Path, RoundTripTimeSplitsAcrossDirections) {
  EventLoop loop;
  PathConfig cfg;
  cfg.rtt = milliseconds(50);
  cfg.bandwidth = mbps(100);
  cfg.loss_rate = 0;
  Path path(loop, cfg, 1);
  TimeNs reply_at = kNoTime;
  path.forward().set_receiver([&](std::span<Datagram>) {
    Datagram d;
    d.size = 100;
    path.reverse().send(std::move(d));
  });
  path.reverse().set_receiver(
      [&](std::span<Datagram>) { reply_at = loop.now(); });
  Datagram d;
  d.size = 100;
  path.forward().send(std::move(d));
  loop.run();
  // ~50 ms RTT plus two small serialization delays.
  EXPECT_GT(reply_at, milliseconds(50));
  EXPECT_LT(reply_at, milliseconds(51));
}

}  // namespace
}  // namespace wira::sim
