// Tests for the real-socket runtime (DESIGN.md §6): the Clock seam, the
// UDP socket wrapper, the epoll/timerfd runtime driving a sim::EventLoop
// as its timer wheel — and the end-to-end identity check: the sim's own
// WiraServer/PlayerClient complete a session over real loopback sockets,
// and the resulting client/server sqlog pair joins with phase spans that
// sum exactly to the measured FFCT.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "app/player_client.h"
#include "app/wira_server.h"
#include "core/transport_cookie.h"
#include "crypto/aead.h"
#include "media/stream_source.h"
#include "net/clock.h"
#include "net/epoll_runtime.h"
#include "net/udp_socket.h"
#include "obs/qlog.h"
#include "obs/trace_join.h"
#include "sim/event_loop.h"
#include "trace/tracer.h"

namespace wira::net {
namespace {

TEST(Clock, MonotonicNeverGoesBackwards) {
  const TimeNs a = MonotonicClock::raw_now();
  const TimeNs b = MonotonicClock::raw_now();
  EXPECT_GT(a, 0);
  EXPECT_GE(b, a);
  const MonotonicClock clock;
  EXPECT_GE(clock.now(), b);
}

TEST(EventLoopTimerWheel, NextEventTimeTracksScheduleAndCancel) {
  sim::EventLoop loop;
  EXPECT_EQ(loop.next_event_time(), sim::EventLoop::kNoEvent);
  const auto id = loop.schedule_at(milliseconds(7), [] {});
  loop.schedule_at(milliseconds(9), [] {});
  EXPECT_EQ(loop.next_event_time(), milliseconds(7));
  loop.cancel(id);
  EXPECT_EQ(loop.next_event_time(), milliseconds(9));
  loop.run_until(milliseconds(10));
  EXPECT_EQ(loop.next_event_time(), sim::EventLoop::kNoEvent);
}

TEST(PeerAddrTest, DisplayAndFileTag) {
  PeerAddr p;
  p.sa.sin_family = AF_INET;
  p.sa.sin_port = htons(8443);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &p.sa.sin_addr), 1);
  EXPECT_EQ(p.display(), "127.0.0.1:8443");
  EXPECT_EQ(p.file_tag(), "127-0-0-1_8443");
  const PeerAddr back = PeerAddr::from_key(p.key());
  EXPECT_EQ(back, p);
  EXPECT_EQ(back.display(), "127.0.0.1:8443");
  p.sa.sin_port = htons(8444);
  EXPECT_NE(p.key(), back.key());
}

TEST(UdpSocketTest, ConnectedPairRoundTrip) {
  UdpSocket server;
  std::string error;
  ASSERT_TRUE(server.open_bound("127.0.0.1", 0, 0, &error)) << error;
  UdpSocket client;
  ASSERT_TRUE(client.open_connected("127.0.0.1", server.local_port(),
                                    &error))
      << error;

  const std::vector<uint8_t> ping = {1, 2, 3};
  client.send(ping);
  uint8_t buf[64];
  PeerAddr from;
  ssize_t n = -1;
  for (int i = 0; i < 1000 && n < 0; ++i) {
    n = server.recv_from(buf, sizeof buf, &from);
  }
  ASSERT_EQ(n, 3);
  EXPECT_EQ(from, client.local_addr());

  const std::vector<uint8_t> pong = {9, 8, 7, 6};
  server.send_to(from, pong);
  n = -1;
  for (int i = 0; i < 1000 && n < 0; ++i) {
    n = client.recv_from(buf, sizeof buf, nullptr);
  }
  ASSERT_EQ(n, 4);
  EXPECT_EQ(buf[0], 9);
}

TEST(EpollRuntimeTest, LoopTimerFiresAtRealTime) {
  sim::EventLoop loop;
  EpollRuntime runtime(loop);
  ASSERT_TRUE(runtime.ok()) << runtime.error();
  runtime.sync_now();

  const TimeNs start = MonotonicClock::raw_now();
  bool fired = false;
  loop.schedule_at(start + milliseconds(20), [&] { fired = true; });
  ASSERT_TRUE(runtime.run(
      [&] {
        return fired || MonotonicClock::raw_now() > start + seconds(5);
      },
      /*tick_ms=*/50));
  EXPECT_TRUE(fired);
  // The timerfd must wake the loop at the deadline, not at the next
  // coarse epoll tick — but never before the deadline.
  EXPECT_GE(MonotonicClock::raw_now() - start, milliseconds(20));
}

// The tentpole identity check: a complete Wira session — 0-RTT handshake,
// cookie, FF parse, first frame — between the sim's own server and client
// objects over real loopback UDP sockets, driven by one EpollRuntime on
// the shared monotonic timebase.  The traced pair must join exactly as
// sim-vantage pairs do: spans sum to FFCT, microsecond-truncated.
TEST(RealSocketLoopback, SessionCompletesAndVantagesJoin) {
  sim::EventLoop loop;
  EpollRuntime runtime(loop);
  ASSERT_TRUE(runtime.ok()) << runtime.error();
  runtime.sync_now();
  const MonotonicClock mono;

  UdpSocket server_sock;
  std::string error;
  ASSERT_TRUE(server_sock.open_bound("127.0.0.1", 0, 0, &error)) << error;
  UdpSocket client_sock;
  ASSERT_TRUE(client_sock.open_connected("127.0.0.1",
                                         server_sock.local_port(), &error))
      << error;
  const PeerAddr client_addr = client_sock.local_addr();

  const uint64_t server_id = 7;
  const uint64_t client_id = 11;
  const crypto::Key master_key = crypto::key_from_string("wira-server-7");

  // Paired qlog writers streaming into memory; shared group id, per-vantage
  // identity — the same shape wira_proxyd/wira_loadgen write to disk.
  std::ostringstream server_qlog;
  std::ostringstream client_qlog;
  obs::QlogTraceInfo server_info;
  server_info.title = "loopback";
  server_info.group_id = "loopback";
  obs::QlogTraceInfo client_info = server_info;
  client_info.vantage_point_name = "wira-client";
  client_info.vantage_point_type = "client";
  obs::QlogStreamWriter server_writer(server_qlog, server_info);
  obs::QlogStreamWriter client_writer(client_qlog, client_info);

  media::LiveStream stream(media::StreamProfile{}, /*corpus_seed=*/42);
  app::ServerConfig server_cfg;
  server_cfg.scheme = core::Scheme::kWira;
  server_cfg.master_key = master_key;
  server_cfg.expected_od_key = 0;
  app::WiraServer server(loop, stream, server_cfg,
                         [&](std::vector<uint8_t> dgram) {
                           server_sock.send_to(client_addr, dgram);
                           loop.buffers().release(std::move(dgram));
                         });
  server.connection().set_clock(&mono);
  server.set_tracer(&server_writer);

  app::ClientCache cache;
  cache.server_configs[server_id] = server.server_config_id();
  const uint64_t od_key = core::od_pair_key(client_id, server_id, 0);
  core::HxQosRecord rec;
  rec.min_rtt = milliseconds(1);
  rec.max_bw = mbps(500);
  rec.server_timestamp = MonotonicClock::raw_now();
  rec.od_key = od_key;
  cache.cookies.store(od_key, core::CookieSealer(master_key).seal(rec),
                      rec.server_timestamp);

  app::ClientConfig client_cfg;
  client_cfg.client_id = client_id;
  client_cfg.server_id = server_id;
  client_cfg.track_frames = 1;
  app::PlayerClient client(loop, client_cfg, cache,
                           [&](std::vector<uint8_t> dgram) {
                             client_sock.send(dgram);
                             loop.buffers().release(std::move(dgram));
                           });
  client.connection().set_clock(&mono);
  client.set_tracer(&client_writer);

  runtime.add_fd(server_sock.fd(), [&](uint32_t) {
    uint8_t buf[65536];
    for (;;) {
      const ssize_t n = server_sock.recv_from(buf, sizeof buf, nullptr);
      if (n < 0) return;
      server.on_datagram({buf, static_cast<size_t>(n)});
    }
  });
  runtime.add_fd(client_sock.fd(), [&](uint32_t) {
    uint8_t buf[65536];
    for (;;) {
      const ssize_t n = client_sock.recv_from(buf, sizeof buf, nullptr);
      if (n < 0) return;
      client.on_datagram({buf, static_cast<size_t>(n)});
    }
  });

  const TimeNs deadline = MonotonicClock::raw_now() + seconds(10);
  client.start();
  ASSERT_TRUE(runtime.run([&] {
    return client.metrics().first_frame_done() ||
           MonotonicClock::raw_now() > deadline;
  }));

  const app::PlayerClient::Metrics& m = client.metrics();
  ASSERT_TRUE(m.first_frame_done()) << "session did not complete";
  EXPECT_TRUE(m.zero_rtt);
  EXPECT_NE(m.first_byte_at, kNoTime);
  EXPECT_GT(m.ffct(), 0);
  EXPECT_TRUE(server.received_cookie().has_value());

  // Detach (flushes nothing — streaming — but stops further writes), then
  // join the two vantages exactly as wira_trace_join would from disk.
  server.set_tracer(nullptr);
  client.set_tracer(nullptr);
  obs::ParsedQlog server_parsed;
  obs::ParsedQlog client_parsed;
  ASSERT_TRUE(obs::parse_sqlog_text(server_qlog.str(), &server_parsed,
                                    &error))
      << error;
  ASSERT_TRUE(obs::parse_sqlog_text(client_qlog.str(), &client_parsed,
                                    &error))
      << error;
  EXPECT_EQ(server_parsed.vantage_type, "server");
  EXPECT_EQ(client_parsed.vantage_type, "client");

  obs::JoinedPhases joined;
  ASSERT_TRUE(obs::join_vantages(client_parsed, server_parsed, &joined,
                                 &error))
      << error;
  // Spans partition [request_sent, frame1] — they must sum to the FFCT
  // the client measured, at the traces' microsecond precision.
  uint64_t sum_us = 0;
  for (const auto& span : joined.spans) sum_us += span.duration_us();
  EXPECT_EQ(sum_us, joined.ffct_us);
  const uint64_t expect_ffct_us =
      static_cast<uint64_t>(m.frame_complete_at[0]) / 1000 -
      static_cast<uint64_t>(m.request_sent_at) / 1000;
  EXPECT_EQ(joined.ffct_us, expect_ffct_us);
}

}  // namespace
}  // namespace wira::net
