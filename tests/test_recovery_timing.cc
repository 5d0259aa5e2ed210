// Loss-recovery timing behaviour: PTO under blackholes, the delayed-ACK
// timer, and recovery after the path heals — driven by mutating link
// conditions mid-run.
#include <gtest/gtest.h>

#include "quic/connection.h"
#include "sim/path.h"

namespace wira::quic {
namespace {

struct Pair {
  sim::EventLoop loop;
  std::unique_ptr<sim::Path> path;
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;

  explicit Pair(sim::PathConfig cfg = {}, uint64_t seed = 1) {
    path = std::make_unique<sim::Path>(loop, cfg, seed);
    server = std::make_unique<Connection>(
        loop, ConnectionConfig{.is_server = true},
        [this](std::vector<uint8_t> d) {
          sim::Datagram dg;
          dg.size = d.size();
          dg.payload = std::move(d);
          path->forward().send(std::move(dg));
        });
    client = std::make_unique<Connection>(
        loop, ConnectionConfig{.is_server = false},
        [this](std::vector<uint8_t> d) {
          sim::Datagram dg;
          dg.size = d.size();
          dg.payload = std::move(d);
          path->reverse().send(std::move(dg));
        });
    path->forward().set_receiver([this](std::span<sim::Datagram> batch) {
      for (sim::Datagram& d : batch) client->on_datagram(d.payload);
    });
    path->reverse().set_receiver([this](std::span<sim::Datagram> batch) {
      for (sim::Datagram& d : batch) server->on_datagram(d.payload);
    });
    server->set_server_options({});
  }
};

std::vector<uint8_t> payload_of(size_t n) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(i * 31 + 7);
  return v;
}

TEST(RecoveryTiming, BlackholeTriggersPtoThenHeals) {
  sim::PathConfig cfg;
  cfg.bandwidth = mbps(20);
  cfg.rtt = milliseconds(40);
  Pair p(cfg, 3);
  const auto payload = payload_of(80'000);
  std::vector<uint8_t> received;
  bool fin = false;
  p.client->set_on_stream_data(
      [&](StreamId, std::span<const uint8_t> d, bool f) {
        received.insert(received.end(), d.begin(), d.end());
        fin |= f;
      });
  p.server->set_on_established(
      [&] { p.server->write_stream(kResponseStream, payload, true); });
  p.client->connect({});

  // Blackhole the data direction from 60 ms to 600 ms: everything in
  // flight is lost, ACKs stop, the server must keep probing via PTO.
  p.loop.schedule_at(milliseconds(60), [&p] {
    p.path->forward().config().loss.loss_rate = 1.0;
  });
  p.loop.schedule_at(milliseconds(600), [&p] {
    p.path->forward().config().loss.loss_rate = 0.0;
  });

  p.loop.run_until(seconds(30));
  ASSERT_TRUE(fin) << "transfer must recover after the blackhole lifts";
  EXPECT_EQ(received, payload);
  EXPECT_GT(p.server->stats().ptos_fired, 0u);
  EXPECT_GT(p.server->stats().packets_lost, 0u);
}

TEST(RecoveryTiming, ReverseBlackholeKillsAcksNotData) {
  sim::PathConfig cfg;
  cfg.bandwidth = mbps(20);
  cfg.rtt = milliseconds(40);
  Pair p(cfg, 4);
  const auto payload = payload_of(60'000);
  std::vector<uint8_t> received;
  bool fin = false;
  p.client->set_on_stream_data(
      [&](StreamId, std::span<const uint8_t> d, bool f) {
        received.insert(received.end(), d.begin(), d.end());
        fin |= f;
      });
  p.server->set_on_established(
      [&] { p.server->write_stream(kResponseStream, payload, true); });
  p.client->connect({});
  p.loop.schedule_at(milliseconds(60), [&p] {
    p.path->reverse().config().loss.loss_rate = 1.0;
  });
  p.loop.schedule_at(milliseconds(500), [&p] {
    p.path->reverse().config().loss.loss_rate = 0.0;
  });
  p.loop.run_until(seconds(30));
  ASSERT_TRUE(fin);
  EXPECT_EQ(received, payload);
  // All data flowed through the healthy forward path; the server probed
  // blindly (PTO) while ACKs were dead, and the first post-heal ACK
  // covers everything — no corruption, no lost progress.
  EXPECT_GT(p.server->stats().ptos_fired, 0u);
  // Every sent packet is eventually acked, except those a PTO already
  // abandoned (a probe forgets the old packet number).
  EXPECT_GE(p.server->stats().packets_acked + p.server->stats().ptos_fired,
            p.server->stats().data_packets_sent);
}

TEST(RecoveryTiming, DelayedAckFiresWithinMaxAckDelay) {
  sim::PathConfig cfg;
  cfg.bandwidth = mbps(50);
  cfg.rtt = milliseconds(20);
  Pair p(cfg, 5);
  p.server->set_on_established([&] {
    // One lone packet: below the 2-packet ack tolerance, so the client's
    // delayed-ack timer (25 ms) must fire.
    p.server->write_stream(kResponseStream, payload_of(500), true);
  });
  p.client->connect({});
  p.loop.run_until(seconds(2));
  // The server saw the ACK: the stream is fully acked.
  EXPECT_EQ(p.server->stats().packets_acked,
            p.server->stats().data_packets_sent);
  // RTT sample includes up to max_ack_delay; smoothed stays sane.
  EXPECT_LT(to_ms(p.server->rtt().min()), 50.0);
}

TEST(RecoveryTiming, PtoBackoffUnderPersistentBlackhole) {
  sim::PathConfig cfg;
  cfg.bandwidth = mbps(20);
  cfg.rtt = milliseconds(40);
  Pair p(cfg, 6);
  p.server->set_on_established(
      [&] { p.server->write_stream(kResponseStream, payload_of(5'000), true); });
  p.client->connect({});
  p.loop.schedule_at(milliseconds(60), [&p] {
    p.path->forward().config().loss.loss_rate = 1.0;
  });
  p.loop.run_until(seconds(20));
  // Exponential backoff keeps the probe count modest over 20 s.
  EXPECT_GT(p.server->stats().ptos_fired, 2u);
  EXPECT_LT(p.server->stats().ptos_fired, 60u);
}

TEST(RecoveryTiming, NoSpuriousPtoOnHealthyPath) {
  sim::PathConfig cfg;
  cfg.bandwidth = mbps(20);
  cfg.rtt = milliseconds(40);
  Pair p(cfg, 7);
  bool fin = false;
  p.client->set_on_stream_data(
      [&](StreamId, std::span<const uint8_t>, bool f) { fin |= f; });
  p.server->set_on_established(
      [&] { p.server->write_stream(kResponseStream, payload_of(200'000), true); });
  p.client->connect({});
  p.loop.run_until(seconds(20));
  ASSERT_TRUE(fin);
  EXPECT_EQ(p.server->stats().ptos_fired, 0u);
  EXPECT_EQ(p.server->stats().packets_lost, 0u);
}

}  // namespace
}  // namespace wira::quic
