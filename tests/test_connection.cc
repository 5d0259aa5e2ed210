// Transport-level integration tests: two Connections wired through the
// emulated path — handshake modes, bulk transfer integrity under loss and
// reordering, ACK behaviour, loss recovery, Hx_QoS packets.
#include "quic/connection.h"

#include <gtest/gtest.h>

#include <numeric>

#include "sim/path.h"

namespace wira::quic {
namespace {

struct Pair {
  sim::EventLoop loop;
  std::unique_ptr<sim::Path> path;
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;

  explicit Pair(sim::PathConfig cfg = {}, uint64_t seed = 1,
                cc::CcAlgo algo = cc::CcAlgo::kBbrV1) {
    path = std::make_unique<sim::Path>(loop, cfg, seed);
    server = std::make_unique<Connection>(
        loop,
        ConnectionConfig{.is_server = true, .conn_id = 1, .cc_algo = algo},
        [this](std::vector<uint8_t> d) {
          sim::Datagram dg;
          dg.size = d.size();
          dg.payload = std::move(d);
          path->forward().send(std::move(dg));
        });
    client = std::make_unique<Connection>(
        loop,
        ConnectionConfig{.is_server = false, .conn_id = 1, .cc_algo = algo},
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
    server->set_server_options(
        Connection::ServerOptions{{0xAA, 0xBB}});
  }
};

std::vector<uint8_t> pattern_bytes(size_t n) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(i * 7 + 1);
  return v;
}

TEST(Connection, OneRttHandshakeCompletes) {
  Pair p;
  bool server_up = false, client_up = false;
  p.server->set_on_established([&] { server_up = true; });
  p.client->set_on_established([&] { client_up = true; });
  p.client->connect({});
  p.loop.run_until(seconds(1));
  EXPECT_TRUE(server_up);
  EXPECT_TRUE(client_up);
  EXPECT_FALSE(p.client->zero_rtt());
  EXPECT_FALSE(p.server->zero_rtt());
  // Server measured the handshake RTT (~50 ms default path).
  ASSERT_NE(p.server->stats().handshake_rtt, kNoTime);
  EXPECT_NEAR(to_ms(p.server->stats().handshake_rtt), 50.0, 8.0);
}

TEST(Connection, RejDeliversServerConfigToClient) {
  Pair p;
  std::vector<uint8_t> scid;
  p.client->set_on_handshake_message([&](const HandshakeMessage& m) {
    if (m.msg_tag == kTagREJ) {
      auto v = m.get(kTagSCID);
      scid.assign(v.begin(), v.end());
    }
  });
  p.client->connect({});
  p.loop.run_until(seconds(1));
  EXPECT_EQ(scid, (std::vector<uint8_t>{0xAA, 0xBB}));
}

TEST(Connection, ZeroRttEstablishesImmediately) {
  Pair p;
  Connection::ClientConnectOptions opts;
  opts.server_config_id = std::vector<uint8_t>{0xAA, 0xBB};
  p.client->connect(opts);
  EXPECT_TRUE(p.client->established());  // before any round trip
  EXPECT_TRUE(p.client->zero_rtt());
  p.loop.run_until(seconds(1));
  EXPECT_TRUE(p.server->established());
  EXPECT_TRUE(p.server->zero_rtt());
  EXPECT_EQ(p.server->stats().handshake_rtt, kNoTime);
}

TEST(Connection, StaleServerConfigFallsBackTo1Rtt) {
  Pair p;
  Connection::ClientConnectOptions opts;
  opts.server_config_id = std::vector<uint8_t>{0xDE, 0xAD};  // wrong
  p.client->connect(opts);
  p.loop.run_until(seconds(1));
  EXPECT_TRUE(p.server->established());
  EXPECT_FALSE(p.server->zero_rtt());  // REJ happened
}

TEST(Connection, HqstTagReachesServer) {
  Pair p;
  std::optional<HqstPayload> seen;
  p.server->set_on_handshake_message([&](const HandshakeMessage& m) {
    if (m.msg_tag == kTagCHLO && m.has(kTagHQST)) {
      seen = parse_hqst(m.get(kTagHQST));
    }
  });
  Connection::ClientConnectOptions opts;
  opts.server_config_id = std::vector<uint8_t>{0xAA, 0xBB};
  HqstPayload hqst;
  hqst.supports_sync = true;
  hqst.sealed_cookie = {1, 2, 3};
  opts.hqst = hqst;
  p.client->connect(opts);
  p.loop.run_until(seconds(1));
  ASSERT_TRUE(seen.has_value());
  EXPECT_TRUE(seen->supports_sync);
  EXPECT_EQ(seen->sealed_cookie, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(Connection, BulkTransferIntactOnCleanPath) {
  Pair p;
  const auto payload = pattern_bytes(500'000);
  std::vector<uint8_t> received;
  bool fin = false;
  p.client->set_on_stream_data(
      [&](StreamId id, std::span<const uint8_t> d, bool f) {
        ASSERT_EQ(id, kResponseStream);
        received.insert(received.end(), d.begin(), d.end());
        fin |= f;
      });
  p.server->set_on_established([&] {
    p.server->write_stream(kResponseStream, payload, /*fin=*/true);
  });
  p.client->connect({});
  p.loop.run_until(seconds(30));
  EXPECT_TRUE(fin);
  EXPECT_EQ(received, payload);
}

class LossyTransfer : public ::testing::TestWithParam<double> {};

TEST_P(LossyTransfer, DataIntactUnderLoss) {
  sim::PathConfig cfg;
  cfg.bandwidth = mbps(20);
  cfg.rtt = milliseconds(40);
  cfg.loss_rate = GetParam();
  cfg.buffer_bytes = 64 * 1024;
  Pair p(cfg, /*seed=*/77);
  const auto payload = pattern_bytes(200'000);
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
  p.loop.run_until(seconds(60));
  ASSERT_TRUE(fin) << "transfer stalled at loss rate " << GetParam();
  EXPECT_EQ(received, payload);
  if (GetParam() > 0) {
    EXPECT_GT(p.server->stats().packets_lost, 0u);
    EXPECT_GT(p.server->stats().stream_bytes_retransmitted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossyTransfer,
                         ::testing::Values(0.0, 0.01, 0.03, 0.10));

TEST(Connection, TransferSurvivesTinyBottleneckBuffer) {
  sim::PathConfig cfg;
  cfg.bandwidth = mbps(4);
  cfg.rtt = milliseconds(80);
  cfg.buffer_bytes = 8 * 1024;  // heavy queue drops
  Pair p(cfg, 5);
  const auto payload = pattern_bytes(150'000);
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
  p.loop.run_until(seconds(60));
  ASSERT_TRUE(fin);
  EXPECT_EQ(received, payload);
  EXPECT_GT(p.path->forward().stats().queue_drops, 0u);
}

TEST(Connection, InitialParametersControlFirstFlight) {
  // With a large init_cwnd + fast pacing, the whole payload leaves in the
  // first RTT; with a tiny one it cannot.
  auto first_flight_bytes = [&](uint64_t cwnd, Bandwidth pace) {
    sim::PathConfig cfg;
    cfg.bandwidth = mbps(100);
    cfg.rtt = milliseconds(100);
    cfg.buffer_bytes = 256 * 1024;
    Pair p(cfg);
    const auto payload = pattern_bytes(60'000);
    p.server->set_on_established([&] {
      p.server->set_initial_parameters(cwnd, pace);
      p.server->write_stream(kResponseStream, payload, true);
    });
    Connection::ClientConnectOptions opts;
    opts.server_config_id = std::vector<uint8_t>{0xAA, 0xBB};  // 0-RTT
    p.client->connect(opts);
    // CHLO arrives ~50 ms; first ACKs return ~150 ms.  Stop in between:
    // everything sent so far belongs to the first flight.
    p.loop.run_until(milliseconds(140));
    return p.server->stats().stream_bytes_sent;
  };
  const uint64_t small = first_flight_bytes(4 * 1460, mbps(100));
  const uint64_t large = first_flight_bytes(70'000, mbps(100));
  EXPECT_LE(small, 4u * 1460 + 1460);
  EXPECT_GE(large, 60'000u);
}

TEST(Connection, PacingSpreadsFirstFlight) {
  // At 1 Mbps pacing, 60 KB takes ~480 ms to leave; at 100 Mbps it leaves
  // within the first few ms.
  auto sent_after = [&](Bandwidth pace, TimeNs when) {
    sim::PathConfig cfg;
    cfg.bandwidth = mbps(1000);
    cfg.rtt = milliseconds(400);
    cfg.buffer_bytes = 256 * 1024;
    Pair p(cfg);
    const auto payload = pattern_bytes(60'000);
    p.server->set_on_established([&] {
      p.server->set_initial_parameters(100'000, pace);
      p.server->write_stream(kResponseStream, payload, true);
    });
    Connection::ClientConnectOptions opts;
    opts.server_config_id = std::vector<uint8_t>{0xAA, 0xBB};  // 0-RTT
    p.client->connect(opts);
    p.loop.run_until(when);  // CHLO reaches the server at ~200 ms
    return p.server->stats().stream_bytes_sent;
  };
  EXPECT_LT(sent_after(mbps(1), milliseconds(250)), 30'000u);
  EXPECT_GE(sent_after(mbps(100), milliseconds(250)), 60'000u);
}

TEST(Connection, HxQosPacketDelivered) {
  Pair p;
  // The frame's blob is a borrowed span valid only inside the callback:
  // copy the bytes out before the datagram buffer is recycled.
  bool got = false;
  uint64_t got_time = 0;
  std::vector<uint8_t> got_blob;
  p.client->set_on_hxqos([&](const HxQosFrame& f) {
    got = true;
    got_time = f.server_time_ms;
    got_blob.assign(f.sealed_blob.begin(), f.sealed_blob.end());
  });
  p.server->set_on_established([&] {
    const std::vector<uint8_t> blob{7, 7, 7};
    HxQosFrame f;
    f.server_time_ms = 1234;
    f.sealed_blob = blob;
    p.server->send_hxqos(f);
  });
  p.client->connect({});
  p.loop.run_until(seconds(1));
  ASSERT_TRUE(got);
  EXPECT_EQ(got_time, 1234u);
  EXPECT_EQ(got_blob, (std::vector<uint8_t>{7, 7, 7}));
}

TEST(Connection, CloseStopsTraffic) {
  Pair p;
  p.server->set_on_established([&] {
    p.server->write_stream(kResponseStream, pattern_bytes(500'000), true);
  });
  p.client->connect({});
  p.loop.run_until(milliseconds(100));
  p.server->close(0, "done");
  const uint64_t sent_at_close = p.server->stats().packets_sent;
  p.loop.run_until(seconds(5));
  EXPECT_TRUE(p.server->closed());
  EXPECT_TRUE(p.client->closed());
  EXPECT_EQ(p.server->stats().packets_sent, sent_at_close);
  // A closed connection never reads its sent packets again: both rings
  // are back in the loop's cache while the connections still exist.
  EXPECT_EQ(p.loop.scratch<SentPacketTable::Cache>().spares.size(), 2u);
}

TEST(Connection, RttEstimateConverges) {
  sim::PathConfig cfg;
  cfg.rtt = milliseconds(60);
  cfg.bandwidth = mbps(50);
  Pair p(cfg);
  p.server->set_on_established([&] {
    p.server->write_stream(kResponseStream, pattern_bytes(300'000), true);
  });
  p.client->connect({});
  p.loop.run_until(seconds(10));
  ASSERT_TRUE(p.server->rtt().has_sample());
  EXPECT_NEAR(to_ms(p.server->rtt().min()), 60.0, 8.0);
}

TEST(Connection, BbrConvergesToPathBandwidth) {
  sim::PathConfig cfg;
  cfg.bandwidth = mbps(10);
  cfg.rtt = milliseconds(40);
  cfg.buffer_bytes = 128 * 1024;
  Pair p(cfg);
  p.server->set_on_established([&] {
    p.server->write_stream(kResponseStream, pattern_bytes(3'000'000), true);
  });
  p.client->connect({});
  p.loop.run_until(seconds(5));
  const double est = to_mbps(p.server->congestion().bandwidth_estimate());
  EXPECT_NEAR(est, 10.0, 2.0);
}

TEST(Connection, NewRenoTransfersToo) {
  Pair p({}, 1, cc::CcAlgo::kNewReno);
  const auto payload = pattern_bytes(100'000);
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
  p.loop.run_until(seconds(30));
  EXPECT_TRUE(fin);
  EXPECT_EQ(received, payload);
}

}  // namespace
}  // namespace wira::quic
