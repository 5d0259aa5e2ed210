// Trace a Wira session: attaches an in-memory EventLog to the server
// connection, runs one session, prints a startup timeline from the log and
// writes the same events as standard qlog to session_trace.sqlog in the
// current directory.
//
//   $ ./trace_session
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "app/player_client.h"
#include "app/wira_server.h"
#include "media/stream_source.h"
#include "obs/qlog.h"
#include "sim/path.h"
#include "trace/tracer.h"

using namespace wira;

int main() {
  sim::EventLoop loop;
  sim::PathConfig pc;
  pc.bandwidth = mbps(10);
  pc.rtt = milliseconds(60);
  pc.loss_rate = 0.01;
  pc.buffer_bytes = 96 * 1024;
  sim::Path path(loop, pc, 5);

  media::StreamProfile profile;
  profile.iframe_mean_bytes = 60'000;
  media::LiveStream stream(profile, 11);

  app::ServerConfig scfg;
  scfg.scheme = core::Scheme::kWira;
  scfg.master_key = crypto::key_from_string("trace-demo");
  scfg.expected_od_key = core::od_pair_key(1, 1, 0);
  app::WiraServer server(loop, stream, scfg,
                         [&path](std::vector<uint8_t> d) {
                           sim::Datagram dg;
                           dg.size = d.size();
                           dg.payload = std::move(d);
                           path.forward().send(std::move(dg));
                         });
  app::ClientCache cache;
  cache.server_configs[1] = server.server_config_id();  // 0-RTT
  core::CookieSealer sealer(crypto::key_from_string("trace-demo"));
  core::HxQosRecord rec;
  rec.min_rtt = milliseconds(60);
  rec.max_bw = mbps(9);
  rec.server_timestamp = 0;
  rec.od_key = core::od_pair_key(1, 1, 0);
  cache.cookies.store(rec.od_key, sealer.seal(rec), 0);

  app::PlayerClient client(loop, {}, cache,
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

  trace::EventLog log;
  server.connection().set_tracer(&log);
  client.set_on_frame_complete([&](uint32_t idx) {
    log.record(loop.now(), trace::EventType::kFrameComplete, idx);
  });

  loop.schedule_at(minutes(5), [&client] { client.start(); });
  loop.run_until(minutes(5) + seconds(4));

  std::ofstream sqlog("session_trace.sqlog");
  obs::QlogTraceInfo info;
  info.title = "wira trace_session";
  obs::QlogStreamWriter writer(sqlog, info);
  for (const trace::Event& e : log.events) writer.on_event(e);

  uint64_t peak_in_flight = 0;
  for (const trace::Event& e : log.events) {
    if (e.type == trace::EventType::kCwndSample) {
      peak_in_flight = std::max(peak_in_flight, e.b);
    }
  }

  std::printf("Startup timeline (server-side events, first 400 ms):\n");
  std::printf("%10s  %-16s %s\n", "t (ms)", "event", "values");
  const TimeNs t0 = minutes(5);
  size_t printed = 0;
  for (const trace::Event& e : log.events) {
    if (e.time - t0 > milliseconds(400)) break;
    // Keep the narrative readable: skip the chatty per-packet events
    // except the first few of each type.
    if ((e.type == trace::EventType::kPacketSent ||
         e.type == trace::EventType::kPacketAcked ||
         e.type == trace::EventType::kRttSample ||
         e.type == trace::EventType::kCwndSample ||
         e.type == trace::EventType::kPacingSample) &&
        printed > 40) {
      continue;
    }
    std::printf("%10.2f  %-16s a=%llu b=%llu %s\n", to_ms(e.time - t0),
                trace::event_type_name(e.type),
                static_cast<unsigned long long>(e.a),
                static_cast<unsigned long long>(e.b), e.detail);
    printed++;
  }
  std::printf("... %zu events total; FFCT %.1f ms; peak in-flight %.1f "
              "KB\n",
              log.events.size(), to_ms(client.metrics().ffct()),
              static_cast<double>(peak_in_flight) / 1000.0);
  std::printf("Wrote session_trace.sqlog\n");
  return sqlog ? 0 : 1;
}
