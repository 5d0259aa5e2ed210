// Tests for the shared-bottleneck topology and the multi-session edge.
#include "sim/topology.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "app/edge.h"
#include "app/player_client.h"
#include "quic/handshake.h"
#include "quic/packet.h"

namespace wira::sim {
namespace {

Datagram dgram(size_t size) {
  Datagram d;
  d.payload.resize(size);
  d.size = size;
  return d;
}

Datagram to_datagram(std::vector<uint8_t> bytes) {
  Datagram d;
  d.size = bytes.size();
  d.payload = std::move(bytes);
  return d;
}

TEST(SharedBottleneck, RoutesToCorrectLeg) {
  EventLoop loop;
  LinkConfig egress;
  egress.rate = mbps(100);
  egress.delay = 0;
  SharedBottleneck net(loop, egress, 1);
  LinkConfig access;
  access.rate = mbps(100);
  access.delay = 0;
  const size_t a = net.add_leg(access);
  const size_t b = net.add_leg(access);

  int got_a = 0, got_b = 0;
  net.set_client_receiver(
      a, [&](std::span<Datagram> batch) { got_a += batch.size(); });
  net.set_client_receiver(
      b, [&](std::span<Datagram> batch) { got_b += batch.size(); });
  net.send_to_client(a, dgram(100));
  net.send_to_client(b, dgram(100));
  net.send_to_client(b, dgram(100));
  loop.run();
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 2);
}

TEST(SharedBottleneck, EgressQueueSharedAcrossLegs) {
  EventLoop loop;
  LinkConfig egress;
  egress.rate = mbps(8);  // 1 ms per 1000 B
  egress.delay = 0;
  SharedBottleneck net(loop, egress, 1);
  LinkConfig access;
  access.rate = mbps(1000);
  access.delay = 0;
  const size_t a = net.add_leg(access);
  const size_t b = net.add_leg(access);

  std::vector<TimeNs> arrivals;
  const auto stamp = [&](std::span<Datagram> batch) {
    for (size_t i = 0; i < batch.size(); ++i) arrivals.push_back(loop.now());
  };
  net.set_client_receiver(a, stamp);
  net.set_client_receiver(b, stamp);
  // Two packets to different legs must serialize one after another on the
  // shared egress.
  net.send_to_client(a, dgram(1000));
  net.send_to_client(b, dgram(1000));
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0], microseconds(900));
}

TEST(SharedBottleneck, ReversePathReachesServer) {
  EventLoop loop;
  SharedBottleneck net(loop, {}, 1);
  const size_t leg = net.add_leg({});
  int got = 0;
  net.set_server_receiver(
      [&](std::span<Datagram> batch) { got += batch.size(); });
  net.send_to_server(leg, dgram(50));
  loop.run();
  EXPECT_EQ(got, 1);
}

TEST(WiraEdge, DemultiplexesByConnectionId) {
  EventLoop loop;
  media::StreamProfile profile;
  profile.iframe_mean_bytes = 30'000;
  profile.iframe_intra_cv = 0.05;
  media::LiveStream stream(profile, 1);
  app::ServerConfig base;
  base.master_key = crypto::key_from_string("edge-test");

  LinkConfig egress;
  egress.rate = mbps(100);
  SharedBottleneck net(loop, egress, 2);
  // Viewer i has connection id 10 + i and leg i.
  app::WiraEdge edge(loop, stream, base,
                     [&net](uint64_t id, std::vector<uint8_t> d) {
                       net.send_to_client(id - 10, to_datagram(std::move(d)));
                     });
  net.set_server_receiver([&edge](std::span<Datagram> batch) {
    for (Datagram& d : batch) {
      if (auto id = app::WiraEdge::conn_id_of(d.payload)) {
        edge.on_datagram(*id, d.payload);
      }
    }
  });

  struct V {
    std::unique_ptr<app::PlayerClient> client;
    app::ClientCache cache;
  };
  std::vector<V> viewers(3);
  for (int i = 0; i < 3; ++i) {
    const size_t leg = net.add_leg({});
    const quic::ConnectionId id = 10 + static_cast<uint64_t>(i);
    auto& server = edge.add_session(id, core::od_pair_key(id, 7, 0));
    app::ClientConfig ccfg;
    ccfg.client_id = id;
    ccfg.server_id = 7;
    ccfg.conn_id = id;
    viewers[static_cast<size_t>(i)].client =
        std::make_unique<app::PlayerClient>(
            loop, ccfg, viewers[static_cast<size_t>(i)].cache,
            [&net, leg](std::vector<uint8_t> d) {
              net.send_to_server(leg, to_datagram(std::move(d)));
            });
    net.set_client_receiver(
        leg, [c = viewers[static_cast<size_t>(i)].client.get()](
                 std::span<Datagram> batch) {
          for (Datagram& d : batch) c->on_datagram(d.payload);
        });
    viewers[static_cast<size_t>(i)].cache.server_configs[7] =
        server.server_config_id();
  }

  for (auto& v : viewers) v.client->start();
  loop.run_until(seconds(5));

  EXPECT_EQ(edge.session_count(), 3u);
  EXPECT_EQ(edge.counters().served, 3u);
  for (auto& v : viewers) {
    EXPECT_TRUE(v.client->metrics().first_frame_done());
  }
}

TEST(WiraEdge, IgnoresUnknownConnectionAndRunts) {
  EventLoop loop;
  media::StreamProfile profile;
  media::LiveStream stream(profile, 1);
  app::WiraEdge edge(loop, stream, {},
                     [](uint64_t, std::vector<uint8_t>) { FAIL(); });
  const uint8_t runt[] = {0x01, 0x02};
  EXPECT_FALSE(app::WiraEdge::conn_id_of(runt).has_value());
  edge.on_datagram(1, runt);
  const uint8_t unknown[16] = {0x01};
  edge.on_datagram(1, unknown);
  EXPECT_EQ(edge.session_count(), 0u);
  EXPECT_EQ(edge.counters().dropped, 2u);
  EXPECT_EQ(edge.counters().served, 0u);
}

/// One viewer talking to an edge over a plain delay line (no sockets):
/// datagrams take `one_way` in each direction, and the edge knows the
/// viewer by `key`, as wira_proxyd knows a peer by its address.  Every
/// viewer uses connection id 1, like wira_loadgen's.
struct DirectViewer {
  static constexpr TimeNs kOneWay = milliseconds(5);

  DirectViewer(EventLoop& loop, app::WiraEdge& edge, uint64_t key)
      : loop(loop) {
    cache.server_configs[7] = {0x57, 0x49, 0x52, 0x41};  // "WIRA"
    app::ClientConfig cfg;
    cfg.server_id = 7;
    cfg.track_frames = 1;
    client.emplace(loop, cfg, cache,
                   [this, &edge, key](std::vector<uint8_t> d) {
                     sent.push_back(d);
                     if (cut) return;
                     this->loop.schedule_in(
                         kOneWay, [&edge, key, d = std::move(d)] {
                           edge.on_datagram(key, d);
                         });
                   });
  }
  void deliver(std::vector<uint8_t> d) {
    loop.schedule_in(kOneWay, [this, d = std::move(d)] {
      client->on_datagram(d);
    });
  }
  /// Closes once the first frame completes, outside the receive path.
  void close_at_first_frame() {
    client->set_on_frame_complete([this](uint32_t) {
      loop.schedule_in(0, [this] { client->connection().close(0, "zap"); });
    });
  }

  EventLoop& loop;
  app::ClientCache cache;
  std::optional<app::PlayerClient> client;
  std::vector<std::vector<uint8_t>> sent;  ///< every datagram it sent
  bool cut = false;  ///< drop its datagrams before they reach the edge
};

TEST(WiraEdge, CreatesSessionsOnlyFromAClientChlo) {
  EventLoop loop;
  media::LiveStream stream(media::StreamProfile{}, 1);
  int sends = 0;
  app::WiraEdge edge(loop, stream, {},
                     [&sends](uint64_t, std::vector<uint8_t>) { ++sends; });

  // A runt, a 1-RTT packet, garbage, and an Initial carrying a REJ
  // instead of a CHLO: each is dropped and counted, and none costs a
  // session or a reply.
  const uint8_t runt[] = {0x00, 0x01, 0x02};
  edge.on_datagram(1, runt);
  quic::Packet one_rtt;
  one_rtt.type = quic::PacketType::kOneRtt;
  one_rtt.conn_id = 1;
  one_rtt.frames.emplace_back(quic::PingFrame{});
  edge.on_datagram(1, quic::serialize_packet(one_rtt));
  std::vector<uint8_t> garbage(200);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  edge.on_datagram(1, garbage);
  quic::HandshakeMessage rej;
  rej.msg_tag = quic::kTagREJ;
  const std::vector<uint8_t> rej_bytes = quic::serialize_handshake(rej);
  quic::Packet initial;
  initial.type = quic::PacketType::kInitial;
  initial.conn_id = 1;
  initial.frames.emplace_back(quic::CryptoFrame{0, rej_bytes});
  edge.on_datagram(1, quic::serialize_packet(initial));
  EXPECT_EQ(edge.counters().dropped, 4u);
  EXPECT_EQ(edge.counters().served, 0u);
  EXPECT_EQ(edge.session_count(), 0u);
  EXPECT_EQ(sends, 0);

  // A client's first datagram is its CHLO: that one opens a session.
  DirectViewer viewer(loop, edge, 1);
  viewer.cut = true;
  viewer.client->start();
  ASSERT_FALSE(viewer.sent.empty());
  edge.on_datagram(1, viewer.sent.front());
  EXPECT_EQ(edge.counters().served, 1u);
  EXPECT_EQ(edge.session_count(), 1u);
  EXPECT_NE(edge.session(1), nullptr);
  EXPECT_EQ(edge.counters().dropped, 4u);
}

TEST(WiraEdge, ChloAfterCloseStartsAFreshSession) {
  EventLoop loop;
  media::LiveStream stream(media::StreamProfile{}, 1);
  app::ServerConfig base;
  base.master_key = crypto::key_from_string("edge-test");
  std::optional<DirectViewer> viewers[2];
  DirectViewer* current = nullptr;
  app::WiraEdge edge(loop, stream, base,
                     [&current](uint64_t, std::vector<uint8_t> d) {
                       current->deliver(std::move(d));
                     });

  // The first viewer zaps away at its first frame.
  current = &viewers[0].emplace(loop, edge, 7);
  current->close_at_first_frame();
  current->client->start();
  loop.run_until(seconds(1));
  ASSERT_TRUE(viewers[0]->client->metrics().first_frame_done());
  ASSERT_TRUE(viewers[0]->client->connection().closed());
  EXPECT_EQ(edge.session(7), nullptr);  // closed: out of the routing table
  EXPECT_EQ(edge.session_count(), 1u);  // but its timers are still pending

  // A stray datagram from the same peer does not resurrect it.
  edge.on_datagram(7, viewers[0]->sent.back());
  EXPECT_EQ(edge.counters().dropped, 1u);
  EXPECT_EQ(edge.session(7), nullptr);

  // The same peer (a reused source port) joins again before the old
  // session has drained: its CHLO starts a fresh session.
  current = &viewers[1].emplace(loop, edge, 7);
  current->close_at_first_frame();
  current->client->start();
  loop.run_until(seconds(2));
  EXPECT_TRUE(viewers[1]->client->metrics().first_frame_done());
  EXPECT_EQ(edge.counters().served, 2u);

  // Both drain within a cookie-sync period of their requests.
  loop.run_until(seconds(2) + core::kDefaultSyncPeriod);
  EXPECT_EQ(edge.session_count(), 0u);
  EXPECT_EQ(edge.counters().evicted, 2u);
  EXPECT_EQ(edge.counters().idle_closed, 0u);
  EXPECT_TRUE(loop.empty());
}

TEST(WiraEdge, ClosesAndEvictsAnIdleSession) {
  EventLoop loop;
  media::LiveStream stream(media::StreamProfile{}, 1);
  app::ServerConfig base;
  base.master_key = crypto::key_from_string("edge-test");
  std::optional<DirectViewer> viewer;
  app::WiraEdge edge(loop, stream, base,
                     [&viewer](uint64_t, std::vector<uint8_t> d) {
                       viewer->deliver(std::move(d));
                     });
  viewer.emplace(loop, edge, 3);
  viewer->client->start();
  loop.run_until(seconds(1));
  ASSERT_TRUE(viewer->client->metrics().first_frame_done());

  // The viewer vanishes without a CONNECTION_CLOSE.
  viewer->cut = true;
  const TimeNs cut_at = loop.now();
  loop.run_until(cut_at + app::WiraEdge::kIdleTimeout - milliseconds(100));
  EXPECT_EQ(edge.counters().idle_closed, 0u);
  EXPECT_NE(edge.session(3), nullptr);

  loop.run_until(cut_at + app::WiraEdge::kIdleTimeout + milliseconds(100));
  EXPECT_EQ(edge.counters().idle_closed, 1u);
  EXPECT_EQ(edge.session(3), nullptr);
  // The server said goodbye, so the viewer is closed too.
  EXPECT_TRUE(viewer->client->connection().closed());

  loop.run_until(cut_at + app::WiraEdge::kIdleTimeout +
                 core::kDefaultSyncPeriod + milliseconds(100));
  EXPECT_EQ(edge.session_count(), 0u);
  EXPECT_EQ(edge.counters().evicted, 1u);
  EXPECT_TRUE(loop.empty());
}

// An open loop of zapping viewers, as proxyd_zap offers wira_proxyd: 200
// arrive 40 ms apart, each closing at its first frame.  The edge must
// serve every one and hold only the sessions of the last few seconds.
TEST(WiraEdge, EvictsZappingViewersWithinASyncPeriod) {
  constexpr size_t kViewers = 200;
  constexpr TimeNs kInterval = milliseconds(40);
  constexpr TimeNs kWindow = milliseconds(3500);
  constexpr uint64_t kFirstId = 1000;
  EventLoop loop;
  media::LiveStream stream(media::StreamProfile{}, 1);
  app::ServerConfig base;
  base.master_key = crypto::key_from_string("edge-test");
  LinkConfig egress;
  egress.rate = mbps(100);
  SharedBottleneck net(loop, egress, 3);
  app::WiraEdge edge(loop, stream, base,
                     [&net](uint64_t id, std::vector<uint8_t> d) {
                       net.send_to_client(id - kFirstId,
                                          to_datagram(std::move(d)));
                     });

  // The most sessions the edge may hold now: arrivals in the last 3.5 s.
  const auto bound = [&] {
    const TimeNs now = loop.now();
    size_t n = 0;
    for (size_t i = 0; i < kViewers; ++i) {
      const TimeNs at = static_cast<TimeNs>(i) * kInterval;
      if (at <= now && now < at + kWindow) ++n;
    }
    return n;
  };
  size_t peak = 0;
  size_t violations = 0;
  const auto check = [&] {
    peak = std::max(peak, edge.session_count());
    if (edge.session_count() > bound()) ++violations;
  };
  net.set_server_receiver([&](std::span<Datagram> batch) {
    for (Datagram& d : batch) {
      if (auto id = app::WiraEdge::conn_id_of(d.payload)) {
        edge.on_datagram(*id, d.payload);
      }
    }
    check();
  });

  struct Viewer {
    app::ClientCache cache;
    std::optional<app::PlayerClient> client;
  };
  std::vector<Viewer> viewers(kViewers);
  for (size_t i = 0; i < kViewers; ++i) {
    LinkConfig access;
    access.rate = mbps(20);
    access.delay = milliseconds(10);
    access.buffer_bytes = 256 * 1024;
    const size_t leg = net.add_leg(access);
    Viewer& v = viewers[i];
    v.cache.server_configs[7] = {0x57, 0x49, 0x52, 0x41};  // "WIRA"
    app::ClientConfig cfg;
    cfg.client_id = kFirstId + i;
    cfg.server_id = 7;
    cfg.conn_id = kFirstId + i;
    cfg.track_frames = 1;
    v.client.emplace(loop, cfg, v.cache,
                     [&net, leg](std::vector<uint8_t> d) {
                       net.send_to_server(leg, to_datagram(std::move(d)));
                     });
    net.set_client_receiver(leg, [c = &*v.client](std::span<Datagram> batch) {
      for (Datagram& d : batch) c->on_datagram(d.payload);
    });
    v.client->set_on_frame_complete([&loop, c = &*v.client](uint32_t) {
      loop.schedule_in(0, [c] { c->connection().close(0, "zap"); });
    });
    loop.schedule_at(static_cast<TimeNs>(i) * kInterval,
                     [c = &*v.client] { c->start(); });
  }
  const TimeNs end = static_cast<TimeNs>(kViewers) * kInterval + seconds(5);
  std::function<void()> sample = [&] {
    check();
    if (loop.now() < end) loop.schedule_in(milliseconds(5), sample);
  };
  loop.schedule_at(0, sample);
  loop.run_until(end);

  size_t completed = 0;
  for (const Viewer& v : viewers) {
    if (v.client->metrics().first_frame_done()) ++completed;
  }
  EXPECT_EQ(completed, kViewers);
  EXPECT_EQ(edge.counters().served, kViewers);
  EXPECT_EQ(violations, 0u) << "peak " << peak << " live sessions";
  EXPECT_GT(peak, 1u);
  EXPECT_EQ(edge.session_count(), 0u);
  EXPECT_EQ(edge.counters().evicted, kViewers);
  EXPECT_EQ(edge.counters().dropped, 0u);
}

}  // namespace
}  // namespace wira::sim
