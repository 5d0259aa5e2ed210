#include "layers.h"

#include <algorithm>
#include <optional>
#include <span>

#include "app/player_client.h"
#include "app/wira_server.h"
#include "core/frame_parser.h"
#include "core/transport_cookie.h"
#include "crypto/aead.h"
#include "exp/record_codec.h"
#include "sim/path.h"
#include "util/buffer_pool.h"
#include "util/rng.h"

namespace perfbench {

exp::SessionConfig population_session(const exp::PopulationConfig& pop_cfg,
                                      const popgen::Population& population,
                                      size_t i, core::Scheme scheme) {
  // Same draw order as exp::run_population's per-session runner.
  wira::Rng rng(pop_cfg.seed ^ (0x5DEECE66Dull * (i + 1)));
  const popgen::OdPair od = population.random_od(rng);
  const TimeNs gap = popgen::Population::sample_session_gap(rng);
  const TimeNs prev_time = from_seconds(rng.uniform(60.0, 7200.0));
  const TimeNs start_time = prev_time + gap;
  const popgen::PathSample prev = od.sample(prev_time, rng);
  const popgen::PathSample now = od.sample(start_time, rng);
  const bool zero_rtt = rng.chance(pop_cfg.p_zero_rtt);
  const bool had_cookie = rng.chance(pop_cfg.p_cookie);

  exp::SessionConfig cfg;
  cfg.path = popgen::OdPair::to_path_config(now);
  cfg.cc_algo = pop_cfg.cc_algo;
  cfg.seed = rng.next() | 1;
  cfg.stream = media::sample_stream_profile(rng, i + 1);
  cfg.stream.container = pop_cfg.container;
  cfg.corpus_seed = pop_cfg.seed * 1000 + 99;
  cfg.start_time = start_time;
  cfg.theta_vf = pop_cfg.theta_vf;
  cfg.zero_rtt = zero_rtt;
  cfg.defaults = pop_cfg.defaults;
  cfg.staleness_threshold = pop_cfg.staleness_threshold;
  cfg.sync_period = pop_cfg.sync_period;
  cfg.careful_resume = pop_cfg.careful_resume;
  if (had_cookie) {
    core::HxQosRecord cookie;
    cookie.min_rtt = prev.min_rtt;
    cookie.max_bw = static_cast<Bandwidth>(static_cast<double>(prev.max_bw) *
                                           rng.uniform(0.65, 1.0));
    cookie.server_timestamp = prev_time;
    cookie.loss_rate = prev.loss_rate * rng.uniform(0.7, 1.3);
    cfg.cookie = cookie;
  }
  const auto ug = population.group_average_qos(od.group_id());
  core::HxQosRecord ug_qos;
  ug_qos.min_rtt = ug.mean_rtt;
  ug_qos.max_bw = ug.mean_bw;
  ug_qos.server_timestamp = start_time;
  cfg.ug_qos = ug_qos;
  cfg.scheme = scheme;
  return cfg;
}

WiredOutcome run_wired_session(const exp::SessionConfig& cfg,
                               WiredStats& stats) {
  SpanClock& spans = stats.spans;
  sim::EventLoop loop;
  const uint64_t arena_before = loop.arena().total_allocated();
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

  auto link_send = [&spans](sim::Link& link, std::vector<uint8_t> dgram) {
    spans.span(kLinkSend, [&] {
      sim::Datagram d;
      d.size = dgram.size();
      d.payload = std::move(dgram);
      link.send(std::move(d));
    });
  };
  app::WiraServer server(loop, stream, server_cfg,
                         [&](std::vector<uint8_t> dgram) {
                           link_send(path.forward(), std::move(dgram));
                         });

  app::ClientCache cache;
  if (cfg.zero_rtt) {
    cache.server_configs[server_id] = server.server_config_id();
  }
  if (cfg.cookie) {
    core::HxQosRecord rec = *cfg.cookie;
    rec.od_key = od_key;
    core::CookieSealer sealer(master_key);
    cache.cookies.store(
        od_key, sealer.seal(rec),
        rec.server_timestamp != kNoTime ? rec.server_timestamp : TimeNs{0});
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
                           [&](std::vector<uint8_t> dgram) {
                             link_send(path.reverse(), std::move(dgram));
                           });

  path.forward().set_receiver([&](std::span<sim::Datagram> batch) {
    for (sim::Datagram& d : batch) {
      spans.span(kClientRx, [&] { client.on_datagram(d.payload); });
    }
  });
  path.reverse().set_receiver([&](std::span<sim::Datagram> batch) {
    for (sim::Datagram& d : batch) {
      spans.span(kServerRx, [&] { server.on_datagram(d.payload); });
    }
  });

  loop.schedule_at(cfg.start_time, [&] { client.start(); });
  const TimeNs deadline = cfg.start_time + cfg.max_session_time;
  while (loop.now() < deadline) {
    const TimeNs until = std::min(loop.now() + milliseconds(100), deadline);
    spans.span(kRunUntil, [&] { stats.events += loop.run_until(until); });
    if (client.metrics().frame_complete_at.size() >= cfg.track_frames &&
        loop.now() >= cfg.start_time + 2 * cfg.sync_period) {
      break;
    }
  }

  const app::PlayerClient::Metrics& m = client.metrics();
  WiredOutcome out;
  out.completed = m.first_frame_done();
  out.ffct = m.ffct();
  out.packets_sent = server.connection().stats().packets_sent;
  out.ptos_fired = server.connection().stats().ptos_fired;
  out.end_time = loop.now();
  stats.sessions++;
  stats.arena_bytes += loop.arena().total_allocated() - arena_before;
  if (m.first_byte_at != kNoTime) {
    stats.first_byte_ms.push_back(to_ms(m.first_byte_at - m.request_sent_at));
    if (out.completed) {
      stats.frame_recv_ms.push_back(
          to_ms(m.frame_complete_at[0] - m.first_byte_at));
    }
  }
  return out;
}

WiredOutcome wired_and_checked(const exp::SessionConfig& cfg,
                               WiredStats& stats, RunResult& result) {
  const WiredOutcome wired = run_wired_session(cfg, stats);
  const exp::SessionResult ref = exp::run_session(cfg);
  result.check(wired.completed == ref.first_frame_completed &&
                   wired.ffct == ref.ffct &&
                   wired.packets_sent == ref.server_stats.packets_sent &&
                   wired.ptos_fired == ref.server_stats.ptos_fired,
               std::string("self-wired session differs from run_session (") +
                   core::scheme_token(cfg.scheme) + ", seed " +
                   std::to_string(cfg.seed) + ")");
  return wired;
}

void replay_media(const media::StreamProfile& profile, uint64_t corpus_seed,
                  TimeNs join, TimeNs end, TimeNs horizon, MediaStats& stats,
                  RunResult& result) {
  const media::LiveStream stream(profile, corpus_seed);
  // Chunk buffers go back to the pool once consumed, as the server's
  // origin path recycles them.
  util::BufferPool pool(256);
  std::vector<media::StreamChunk> chunks;
  uint64_t bytes = 0;
  auto consume = [&] {
    for (media::StreamChunk& c : chunks) {
      bytes += c.bytes.size();
      pool.release(std::move(c.bytes));
    }
  };
  const TimeNs stop = std::min(end, join + horizon);

  const int64_t t0 = now_ns();
  stream.join_chunks(join, chunks, &pool);
  consume();
  // The server pulls the tail one second ahead, in (t, t + 1 s] slices.
  for (TimeNs t = join; t < stop; t += seconds(1)) {
    stream.chunks_between(t, std::min(t + seconds(1), join + horizon), chunks,
                          &pool);
    consume();
  }
  stats.mux_ns += now_ns() - t0;
  stats.bytes += bytes;
  stats.sessions++;

  // Frame Perception over the same origin output.  A TS first frame ends
  // only where the next access unit starts, so the first tail slice joins
  // the burst.
  std::vector<media::StreamChunk> origin = stream.join_chunks(join);
  for (media::StreamChunk& c :
       stream.chunks_between(join, join + seconds(1))) {
    origin.push_back(std::move(c));
  }
  core::FrameParser parser;
  const int64_t p0 = now_ns();
  for (const media::StreamChunk& c : origin) {
    if (parser.feed(c.bytes).has_value() || parser.failed()) break;
  }
  stats.parse_ns += now_ns() - p0;
  stats.parsed_bytes += parser.bytes_seen();
  result.check(parser.complete() &&
                   parser.ff_size() == stream.first_frame_size(join),
               "frame parser FF_Size differs from the stream's ground truth");
}

void probe_cookie(RunResult& result, double* seal_us, double* open_us) {
  constexpr int kRounds = 5;
  constexpr int kCalls = 400;
  core::CookieSealer sealer(crypto::key_from_string("wira-server-7"));
  core::HxQosRecord rec;
  rec.min_rtt = milliseconds(42);
  rec.max_bw = mbps(18);
  rec.server_timestamp = seconds(3600);
  rec.od_key = core::od_pair_key(11, 7, 0);
  rec.loss_rate = 0.012;
  std::vector<std::vector<uint8_t>> sealed(kCalls);
  std::vector<double> seal_rounds;
  std::vector<double> open_rounds;
  uint64_t bad = 0;
  for (int r = 0; r < kRounds; ++r) {
    int64_t t0 = now_ns();
    for (int c = 0; c < kCalls; ++c) sealed[c] = sealer.seal(rec);
    seal_rounds.push_back(static_cast<double>(now_ns() - t0) / 1e3 / kCalls);
    t0 = now_ns();
    for (int c = 0; c < kCalls; ++c) {
      const auto opened = sealer.open(sealed[c]);
      if (!opened || opened->min_rtt != rec.min_rtt ||
          opened->max_bw != rec.max_bw || opened->od_key != rec.od_key) {
        ++bad;
      }
    }
    open_rounds.push_back(static_cast<double>(now_ns() - t0) / 1e3 / kCalls);
  }
  result.check_many(static_cast<uint64_t>(kRounds) * kCalls, bad,
                    "cookie open did not return the sealed record");
  *seal_us = median(seal_rounds);
  *open_us = median(open_rounds);
}

uint64_t record_hash(const exp::SessionRecord& rec,
                     std::vector<uint8_t>& scratch) {
  scratch.clear();
  exp::CodecWriter w(scratch);
  exp::encode_session_record(rec, w);
  return exp::fnv1a64(scratch);
}

uint64_t codec_round_trip(const exp::SessionRecord& rec, CodecStats& stats,
                          RunResult& result) {
  std::vector<uint8_t> bytes;
  const int64_t t0 = now_ns();
  exp::CodecWriter w(bytes);
  exp::encode_session_record(rec, w);
  exp::SessionRecord decoded;
  exp::CodecReader r(bytes);
  const bool ok = exp::decode_session_record(r, &decoded);
  stats.ns += now_ns() - t0;
  stats.records++;
  stats.bytes += bytes.size();
  std::vector<uint8_t> again;
  exp::CodecWriter w2(again);
  exp::encode_session_record(decoded, w2);
  result.check(ok && again == bytes, "record codec round trip differs");
  return exp::fnv1a64(bytes);
}

void add_wired_metrics(const WiredStats& w, RunResult& result) {
  const double n = w.sessions > 0 ? static_cast<double>(w.sessions) : 1;
  const SpanClock& s = w.spans;
  // Self times: app receive minus the link sends it triggered; all link
  // sends; and run_until time outside both (timers, pacer pumps, origin
  // deliveries, heap bookkeeping).  They add up to the run_until total as
  // long as every other span nests inside a run_until span.
  const int64_t server_self = s.self_ns(kServerRx);
  const int64_t client_self = s.self_ns(kClientRx);
  const int64_t sends = s.total_ns(kLinkSend);
  const int64_t loop_other = s.self_ns(kRunUntil);
  const int64_t sum = server_self + client_self + sends + loop_other;
  result.check(s.top_level(kServerRx) == 0 && s.top_level(kClientRx) == 0 &&
                   s.top_level(kLinkSend) == 0 && loop_other >= 0 &&
                   sum == s.total_ns(kRunUntil),
               "wired-session self times do not add up to run_until time");
  result.note("wired_sessions", static_cast<double>(w.sessions));
  result.note("wired_run_until_us_per_session",
              static_cast<double>(s.total_ns(kRunUntil)) / 1e3 / n);
  result.add("app.server_rx_us_per_session",
             static_cast<double>(server_self) / 1e3 / n, "us");
  result.add("sim.link_send_us_per_session",
             static_cast<double>(sends) / 1e3 / n, "us");
  result.add("sim.loop_other_us_per_session",
             static_cast<double>(loop_other) / 1e3 / n, "us");
  result.add("sim.events_per_session", static_cast<double>(w.events) / n,
             "count");
  result.add("sim.arena_bytes_per_session",
             static_cast<double>(w.arena_bytes) / n, "bytes");
}

void add_media_metrics(const MediaStats& m, RunResult& result) {
  const double n = m.sessions > 0 ? static_cast<double>(m.sessions) : 1;
  result.add("media.mux_ms_per_session",
             static_cast<double>(m.mux_ns) / 1e6 / n, "ms");
  result.add("media.bytes_per_session", static_cast<double>(m.bytes) / n,
             "bytes");
  result.add("media.mux_ns_per_byte",
             m.bytes > 0 ? static_cast<double>(m.mux_ns) /
                               static_cast<double>(m.bytes)
                         : 0,
             "ns");
  result.add("core.parse_ns_per_byte",
             m.parsed_bytes > 0 ? static_cast<double>(m.parse_ns) /
                                      static_cast<double>(m.parsed_bytes)
                                : 0,
             "ns");
}

}  // namespace perfbench
