// Tests for the tracing module and its Connection integration.
#include "trace/tracer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <string>

#include "exp/session_runner.h"
#include "obs/qlog.h"
#include "quic/connection.h"
#include "sim/path.h"

namespace wira::trace {
namespace {

size_t count(const EventLog& log, EventType type) {
  return static_cast<size_t>(
      std::count_if(log.events.begin(), log.events.end(),
                    [type](const Event& e) { return e.type == type; }));
}

TEST(Tracer, RecordsAndCounts) {
  EventLog log;
  log.record(milliseconds(1), EventType::kPacketSent, 1, 100);
  log.record(milliseconds(2), EventType::kPacketSent, 2, 100);
  log.record(milliseconds(3), EventType::kPacketLost, 1, 100);
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(count(log, EventType::kPacketSent), 2u);
  EXPECT_EQ(count(log, EventType::kPacketLost), 1u);
  EXPECT_EQ(count(log, EventType::kPtoFired), 0u);
  EXPECT_EQ(log.events[1].time, milliseconds(2));
  EXPECT_EQ(log.events[1].a, 2u);
  EXPECT_EQ(log.events[1].b, 100u);
  EXPECT_STREQ(log.events[1].detail, "");
}

// The qlog writer is a sink like any other: each record() appends its line
// at once (nothing is buffered on the way).
TEST(Tracer, StreamingSinkWritesJsonlImmediately) {
  std::ostringstream os;
  obs::QlogStreamWriter writer(os, obs::QlogTraceInfo{});
  os.str("");  // drop the header line
  writer.record(microseconds(5), EventType::kPacketSent, 1, 1200);
  EXPECT_EQ(os.str(),
            "{\"time\": 0.005, \"name\": \"transport:packet_sent\", "
            "\"data\": {\"header\": {\"packet_number\": 1}, \"raw\": "
            "{\"length\": 1200}}}\n");
  writer.record(microseconds(6), EventType::kPacketAcked, 1, 1200);
  EXPECT_NE(os.str().find("packets_acked"), std::string::npos);
}

TEST(Tracer, LongDetailIsTruncatedNulTerminated) {
  EventLog log;
  const std::string longer(40, 'x');
  log.record(1, EventType::kCcStateChanged, 0, 0, longer.c_str());
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(std::string(log.events[0].detail),
            std::string(sizeof(Event::detail) - 1, 'x'));
}

TEST(TracerIntegration, ConnectionEmitsLifecycleEvents) {
  sim::EventLoop loop;
  sim::PathConfig pc;
  pc.loss_rate = 0.05;
  sim::Path path(loop, pc, 9);
  quic::Connection server(
      loop, {.is_server = true, .conn_id = 1},
      [&path](std::vector<uint8_t> d) {
        sim::Datagram dg;
        dg.size = d.size();
        dg.payload = std::move(d);
        path.forward().send(std::move(dg));
      });
  quic::Connection client(
      loop, {.is_server = false, .conn_id = 1},
      [&path](std::vector<uint8_t> d) {
        sim::Datagram dg;
        dg.size = d.size();
        dg.payload = std::move(d);
        path.reverse().send(std::move(dg));
      });
  path.forward().set_receiver([&client](std::span<sim::Datagram> batch) {
    for (sim::Datagram& d : batch) client.on_datagram(d.payload);
  });
  path.reverse().set_receiver([&server](std::span<sim::Datagram> batch) {
    for (sim::Datagram& d : batch) server.on_datagram(d.payload);
  });
  server.set_server_options({});

  EventLog log;
  server.set_tracer(&log);
  server.set_on_established([&server] {
    server.set_initial_parameters(60'000, mbps(10));
    std::vector<uint8_t> payload(120'000, 0x42);
    server.write_stream(quic::kResponseStream, payload, true);
  });
  client.connect({});
  loop.run_until(seconds(20));

  EXPECT_GT(count(log, EventType::kPacketSent), 50u);
  EXPECT_GT(count(log, EventType::kPacketAcked), 20u);
  EXPECT_GT(count(log, EventType::kPacketLost), 0u);  // 5% loss path
  EXPECT_GT(count(log, EventType::kRttSample), 10u);
  EXPECT_GT(count(log, EventType::kCwndSample), 10u);
  EXPECT_EQ(count(log, EventType::kInitApplied), 1u);
  // Handshake trail: CHLO seen by server, established marker.
  bool saw_chlo = false, saw_established = false;
  for (const Event& e : log.events) {
    if (e.type != EventType::kHandshakeEvent) continue;
    saw_chlo |= std::string(e.detail) == "chlo";
    saw_established |= std::string(e.detail) == "established";
  }
  EXPECT_TRUE(saw_chlo);
  EXPECT_TRUE(saw_established);
  // Events are time-ordered.
  TimeNs prev = 0;
  for (const Event& e : log.events) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
  // The init event carries the values we set.
  const auto init = std::find_if(
      log.events.begin(), log.events.end(),
      [](const Event& e) { return e.type == EventType::kInitApplied; });
  ASSERT_NE(init, log.events.end());
  EXPECT_EQ(init->a, 60'000u);
  EXPECT_EQ(init->b, mbps(10));
}

// Every detail the stack emits is one of its literals and fits the 21-byte
// field whole: a literal that outgrew it would reach qlog truncated and no
// longer match its entry below.
TEST(TracerIntegration, DetailsAreStackLiterals) {
  const std::set<std::string> literals = {
      "",
      // quic::Connection handshake trail and cookie actions.
      "chlo", "rej", "shlo", "established", "opened", "rejected", "sealed",
      // WiraServer corner cases, PlayerClient stalls.
      "cwnd_before_parse", "stale_cookie", "recv_gap",
      // Controller state names (cc::CongestionController::state_name).
      "startup", "drain", "probe_bw", "probe_rtt", "recovery", "slow_start",
      "congestion_avoidance"};
  std::set<std::string> seen;
  for (const cc::CcAlgo algo :
       {cc::CcAlgo::kBbrV1, cc::CcAlgo::kNewReno, cc::CcAlgo::kCubic}) {
    exp::SessionConfig cfg;
    cfg.path.bandwidth = mbps(8);
    cfg.path.rtt = milliseconds(60);
    cfg.path.loss_rate = 0.02;
    cfg.path.buffer_bytes = 64 * 1024;
    cfg.stream.iframe_mean_bytes = 60'000;
    cfg.scheme = core::Scheme::kWira;
    cfg.cc_algo = algo;
    cfg.seed = 5;
    core::HxQosRecord cookie;
    cookie.min_rtt = milliseconds(60);
    cookie.max_bw = mbps(8);
    cookie.server_timestamp = 0;
    cfg.cookie = cookie;
    cfg.start_time = minutes(5);
    EventLog server_log, client_log;
    cfg.tracer = &server_log;
    cfg.client_tracer = &client_log;
    ASSERT_TRUE(exp::run_session(cfg).first_frame_completed);
    for (const EventLog* log : {&server_log, &client_log}) {
      for (const Event& e : log->events) {
        const std::string detail(e.detail);
        EXPECT_TRUE(literals.count(detail))
            << event_type_name(e.type) << " detail \"" << detail << "\"";
        seen.insert(detail);
      }
    }
  }
  // The sweep actually exercised the longest literals and every controller.
  for (const char* d : {"established", "opened", "sealed", "startup",
                        "slow_start", "congestion_avoidance"}) {
    EXPECT_TRUE(seen.count(d)) << d;
  }
}

TEST(TracerIntegration, NoTracerMeansNoCrash) {
  sim::EventLoop loop;
  sim::Path path(loop, {}, 1);
  quic::Connection server(loop, {.is_server = true}, [](auto) {});
  server.set_tracer(nullptr);
  // Nothing attached: all trace() calls are no-ops.
  server.write_stream(quic::kResponseStream, std::vector<uint8_t>(10), true);
  SUCCEED();
}

}  // namespace
}  // namespace wira::trace
