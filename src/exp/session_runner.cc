#include "exp/session_runner.h"

#include <algorithm>

namespace wira::exp {

namespace {

using LinkSnapshot = detail::LinkWindow;

LinkSnapshot snapshot(const sim::Link& link) {
  const auto& st = link.stats();
  LinkSnapshot s;
  s.drops = st.queue_drops + st.wire_drops;
  s.attempts = st.delivered_packets + s.drops;
  return s;
}

double window_loss(const LinkSnapshot& before, const LinkSnapshot& after) {
  const uint64_t attempts = after.attempts - before.attempts;
  if (attempts == 0) return 0;
  return static_cast<double>(after.drops - before.drops) /
         static_cast<double>(attempts);
}

SessionResult run_impl(const SessionConfig& cfg,
                       const std::optional<app::ServerConfig::ManualInit>&
                           manual_init,
                       sim::EventLoop& loop,
                       std::vector<LinkSnapshot>& frame_snapshots) {
  // Recycle the workspace's loop (reset keeps slot/heap/pool/arena
  // capacity).  Everything below is loop-relative, so a reset loop is
  // indistinguishable from a fresh one.
  loop.reset();
  // Arena accounting must stay per-session even though the recycled
  // arena's total is cumulative across sessions.
  const uint64_t arena_total_before = loop.arena().total_allocated();
  sim::Path path(loop, cfg.path, cfg.seed);
  media::LiveStream stream(cfg.stream, cfg.corpus_seed);

  const uint64_t server_id = 7;
  const uint64_t client_id = cfg.seed;
  const uint32_t network_type = 0;
  const uint64_t od_key =
      core::od_pair_key(client_id, server_id, network_type);
  const crypto::Key master_key = crypto::key_from_string("wira-server-7");

  app::ServerConfig server_cfg;
  server_cfg.scheme = cfg.scheme;
  server_cfg.defaults = cfg.defaults;
  server_cfg.theta_vf = cfg.theta_vf;
  server_cfg.sync_period = cfg.sync_period;
  server_cfg.staleness_threshold = cfg.staleness_threshold;
  server_cfg.cc_algo = cfg.cc_algo;
  server_cfg.cookie_sync_enabled = cfg.cookie_sync_enabled;
  server_cfg.careful_resume = cfg.careful_resume;
  server_cfg.master_key = master_key;
  server_cfg.expected_od_key = od_key;
  server_cfg.origin_latency = cfg.origin_latency;
  server_cfg.ug_qos = cfg.ug_qos;
  server_cfg.manual_init = manual_init;

  app::WiraServer server(loop, stream, server_cfg,
                         [&path](std::vector<uint8_t> dgram) {
                           sim::Datagram d;
                           d.size = dgram.size();
                           d.payload = std::move(dgram);
                           path.forward().send(std::move(d));
                         });

  app::ClientCache cache;
  if (cfg.zero_rtt) {
    cache.server_configs[server_id] = server.server_config_id();
  }
  if (cfg.cookie) {
    core::HxQosRecord rec = *cfg.cookie;
    rec.od_key = od_key;
    core::CookieSealer sealer(master_key);
    cache.cookies.store(od_key, sealer.seal(rec),
                        rec.server_timestamp != kNoTime
                            ? rec.server_timestamp
                            : TimeNs{0});
  }

  app::ClientConfig client_cfg;
  client_cfg.client_id = client_id;
  client_cfg.server_id = server_id;
  client_cfg.network_type = network_type;
  client_cfg.theta_vf = cfg.theta_vf;
  client_cfg.supports_cookie_sync = cfg.client_supports_cookie;
  client_cfg.track_frames = cfg.track_frames;
  client_cfg.container = cfg.stream.container;

  app::PlayerClient client(loop, client_cfg, cache,
                           [&path](std::vector<uint8_t> dgram) {
                             sim::Datagram d;
                             d.size = dgram.size();
                             d.payload = std::move(dgram);
                             path.reverse().send(std::move(d));
                           });

  path.forward().set_receiver([&client](std::span<sim::Datagram> batch) {
    for (sim::Datagram& d : batch) client.on_datagram(d.payload);
  });
  path.reverse().set_receiver([&server](std::span<sim::Datagram> batch) {
    for (sim::Datagram& d : batch) server.on_datagram(d.payload);
  });

  server.set_tracer(cfg.tracer);
  client.set_tracer(cfg.client_tracer);

  // Per-frame loss windows over the bottleneck (data) direction.  The
  // snapshot vector is workspace scratch (cleared here, capacity
  // retained).
  frame_snapshots.clear();
  LinkSnapshot start_snapshot;
  client.set_on_frame_complete([&](uint32_t /*frame_index*/) {
    frame_snapshots.push_back(snapshot(path.forward()));
  });

  loop.schedule_at(cfg.start_time, [&] {
    start_snapshot = snapshot(path.forward());
    client.start();
  });

  // The loop advances in 100-ms steps so the break check below samples a
  // fixed grid.  A population session starts minutes into simulated time,
  // so first jump straight to the last grid point strictly before the
  // earliest pending event: nothing runs in the skipped steps, and the
  // break check cannot fire there (it needs now >= start_time >= that
  // event), so the jump is unobservable.
  const TimeNs step = milliseconds(100);
  const TimeNs deadline = cfg.start_time + cfg.max_session_time;
  const TimeNs first = std::min(loop.next_event_time(), deadline);
  if (first > loop.now()) {
    loop.run_until(first - 1 - (first - 1 - loop.now()) % step);
  }
  while (loop.now() < deadline) {
    loop.run_until(std::min(loop.now() + step, deadline));
    if (client.metrics().frame_complete_at.size() >= cfg.track_frames &&
        loop.now() >= cfg.start_time + 2 * cfg.sync_period) {
      break;  // everything measured (incl. at least one cookie sync)
    }
  }

  SessionResult result;
  const auto& m = client.metrics();
  result.zero_rtt = m.zero_rtt;
  result.first_frame_completed = m.first_frame_done();
  result.ffct = m.ffct();
  result.frames.resize(cfg.track_frames);
  LinkSnapshot prev = start_snapshot;
  // Guard on frame_snapshots itself (not frame_complete_at): the two are
  // filled by different callbacks, so a mismatch must never index out of
  // bounds here.
  for (uint32_t i = 0; i < cfg.track_frames; ++i) {
    if (i < m.frame_complete_at.size() && i < frame_snapshots.size()) {
      result.frames[i].completion = m.frame_time(i + 1);
      result.frames[i].loss_rate = window_loss(prev, frame_snapshots[i]);
      prev = frame_snapshots[i];
    }
  }
  if (result.first_frame_completed && !frame_snapshots.empty()) {
    result.fflr = window_loss(start_snapshot, frame_snapshots[0]);
  }
  result.ff_size =
      server.parser().complete() ? server.parser().ff_size() : 0;
  result.init = server.last_init();
  result.server_stats = server.connection().stats();
  if (result.server_stats.stream_bytes_sent > 0) {
    result.retransmission_ratio =
        static_cast<double>(result.server_stats.stream_bytes_retransmitted) /
        static_cast<double>(result.server_stats.stream_bytes_sent);
  }
  result.cookies_synced = server.cookies_synced();
  result.client_cookies_received = m.cookies_received;
  result.cwnd_fallback = server.ff_fallback_inits() > 0;
  result.zero_rtt_rejected = cfg.zero_rtt && !m.zero_rtt;
  result.stalls_observed = client.stalls_observed();
  result.ff_fallback_inits = server.ff_fallback_inits();
  result.stale_cookie_inits = server.stale_cookie_inits();
  result.client_packets_undecodable = client.packets_undecodable();
  if (cfg.collect_phases) {
    result.phases = obs::ffct_phases(ffct_boundaries(server, client));
  }
  result.arena_bytes = loop.arena().total_allocated() - arena_total_before;
  return result;
}

}  // namespace

obs::FfctBoundaries ffct_boundaries(const app::WiraServer& server,
                                    const app::PlayerClient& client) {
  const app::PlayerClient::Metrics& m = client.metrics();
  obs::FfctBoundaries b;
  b.request_sent = m.request_sent_at;
  b.request_received = server.request_received();
  b.first_origin_byte = server.first_origin_byte();
  b.ff_parsed = server.ff_parsed();
  // Delivery ends at the first *video* byte so reorder/reassembly stalls
  // anywhere in the container prelude stay attributed to delivery.
  b.first_byte_received = m.first_frame_byte_at != kNoTime
                              ? m.first_frame_byte_at
                              : m.first_byte_at;
  b.first_frame_complete =
      m.frame_complete_at.empty() ? kNoTime : m.frame_complete_at[0];
  return b;
}

SessionResult run_session(const SessionConfig& config) {
  SessionWorkspace ws;
  return run_session(config, ws);
}

SessionResult run_session(const SessionConfig& config, SessionWorkspace& ws) {
  ws.sessions_run_++;
  return run_impl(config, std::nullopt, ws.loop_, ws.frame_snapshots_);
}

SessionResult run_manual_init_session(const ManualInitConfig& config) {
  SessionConfig cfg;
  cfg.path = config.path;
  cfg.stream = config.stream;
  cfg.corpus_seed = config.corpus_seed;
  cfg.seed = config.seed;
  cfg.start_time = config.start_time;
  cfg.zero_rtt = true;
  cfg.cookie_sync_enabled = false;
  cfg.collect_phases = config.collect_phases;
  app::ServerConfig::ManualInit manual{config.init_cwnd_bytes,
                                       config.init_pacing};
  SessionWorkspace ws;
  return run_impl(cfg, manual, ws.loop_, ws.frame_snapshots_);
}

}  // namespace wira::exp
