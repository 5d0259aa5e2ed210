// Application-layer integration tests: WiraServer + PlayerClient wired
// directly (no exp harness), covering the seams the session runner hides —
// corner case 1 timing, adversarial cookies, scheme plumbing, cookie
// lifecycle, playback conditions, close path, phase marks.
#include <gtest/gtest.h>

#include <algorithm>

#include "app/player_client.h"
#include "app/wira_server.h"
#include "exp/population_experiment.h"
#include "exp/session_runner.h"
#include "media/stream_source.h"
#include "sim/path.h"
#include "trace/tracer.h"

namespace wira::app {
namespace {

struct Rig {
  sim::EventLoop loop;
  std::unique_ptr<sim::Path> path;
  media::LiveStream stream;
  std::unique_ptr<WiraServer> server;
  ClientCache cache;
  std::unique_ptr<PlayerClient> client;

  explicit Rig(ServerConfig server_cfg = {}, ClientConfig client_cfg = {},
               sim::PathConfig path_cfg = {})
      : stream(
            [&client_cfg] {
              media::StreamProfile p;
              p.stream_id = 1;
              p.iframe_mean_bytes = 50'000;
              p.iframe_intra_cv = 0.05;
              p.container = client_cfg.container;
              return p;
            }(),
            7) {
    path_cfg.loss_rate = 0;
    path = std::make_unique<sim::Path>(loop, path_cfg, 3);
    if (server_cfg.master_key == crypto::Key{}) {
      server_cfg.master_key = crypto::key_from_string("test-master");
    }
    server_cfg.expected_od_key = core::od_pair_key(
        client_cfg.client_id, client_cfg.server_id, client_cfg.network_type);
    server = std::make_unique<WiraServer>(
        loop, stream, server_cfg, [this](std::vector<uint8_t> d) {
          sim::Datagram dg;
          dg.size = d.size();
          dg.payload = std::move(d);
          path->forward().send(std::move(dg));
        });
    client = std::make_unique<PlayerClient>(
        loop, client_cfg, cache, [this](std::vector<uint8_t> d) {
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
  }

  void prime_zero_rtt(uint64_t server_id = 1) {
    cache.server_configs[server_id] = server->server_config_id();
  }
};

TEST(App, ParserSeesFlvAndReportsFfSize) {
  Rig rig;
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_TRUE(rig.server->parser().complete());
  EXPECT_EQ(rig.server->parser().protocol(), core::ProtocolType::kFlv);
  EXPECT_GT(rig.server->parser().ff_size(), 40'000u);
  EXPECT_TRUE(rig.client->metrics().first_frame_done());
}

TEST(App, CornerCase1InitHappensTwice) {
  // With origin latency, header bytes reach L4 before the I frame: the
  // first apply_init runs with ff_pending, the second with the parsed
  // size.  We verify the end state reflects the parsed FF_Size.
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kWiraFF;
  cfg.origin_latency = milliseconds(20);
  Rig rig(cfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_TRUE(rig.server->last_init().used_ff_size);
  EXPECT_FALSE(rig.server->last_init().ff_pending);
  EXPECT_EQ(rig.server->last_init().init_cwnd,
            rig.server->parser().ff_size());
}

TEST(App, BaselineSchemeIgnoresSignals) {
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kBaseline;
  cfg.defaults.init_cwnd_exp = 43'000;
  Rig rig(cfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_EQ(rig.server->last_init().init_cwnd, 43'000u);
  EXPECT_FALSE(rig.server->last_init().used_ff_size);
  EXPECT_FALSE(rig.server->last_init().used_hx_qos);
}

TEST(App, ForgedCookieIsRejectedAndFallsBack) {
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kWira;
  Rig rig(cfg);
  rig.prime_zero_rtt();
  // Client presents random bytes as a "cookie" (a hostile client trying
  // to claim a huge MaxBW).
  rig.cache.cookies.store(rig.client->od_key(),
                          std::vector<uint8_t>(48, 0xEE), 0);
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_FALSE(rig.server->received_cookie().has_value());
  EXPECT_FALSE(rig.server->last_init().used_hx_qos);
  EXPECT_TRUE(rig.client->metrics().first_frame_done());  // fail-closed
}

TEST(App, CookieFromWrongOdPairRejected) {
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kWira;
  Rig rig(cfg);
  rig.prime_zero_rtt();
  // Seal a genuine cookie but bound to a different OD pair.
  core::CookieSealer sealer(crypto::key_from_string("test-master"));
  core::HxQosRecord rec;
  rec.min_rtt = milliseconds(40);
  rec.max_bw = mbps(50);
  rec.server_timestamp = 0;
  rec.od_key = core::od_pair_key(999, 999, 0);
  rig.cache.cookies.store(rig.client->od_key(), sealer.seal(rec), 0);
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_FALSE(rig.server->received_cookie().has_value());
}

TEST(App, GenuineCookieIsUsed) {
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kWira;
  Rig rig(cfg);
  rig.prime_zero_rtt();
  core::CookieSealer sealer(crypto::key_from_string("test-master"));
  core::HxQosRecord rec;
  rec.min_rtt = milliseconds(40);
  rec.max_bw = mbps(9);
  rec.server_timestamp = 0;
  rec.od_key = rig.client->od_key();
  rig.cache.cookies.store(rig.client->od_key(), sealer.seal(rec), 0);
  rig.client->start();
  rig.loop.run_until(seconds(3));
  ASSERT_TRUE(rig.server->received_cookie().has_value());
  EXPECT_EQ(rig.server->received_cookie()->max_bw, mbps(9));
  EXPECT_TRUE(rig.server->last_init().used_hx_qos);
  EXPECT_EQ(rig.server->last_init().init_pacing, mbps(9));
}

TEST(App, ClientWithoutCookieSupportGetsNoSync) {
  ClientConfig ccfg;
  ccfg.supports_cookie_sync = false;
  Rig rig({}, ccfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(8));
  // Server still streams; client ends with no cookies.
  EXPECT_TRUE(rig.client->metrics().first_frame_done());
  EXPECT_EQ(rig.cache.cookies.size(), 0u);
}

TEST(App, CookieSyncUpdatesClientStore) {
  Rig rig;
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(8));
  EXPECT_GT(rig.server->cookies_synced(), 1u);
  ASSERT_EQ(rig.cache.cookies.size(), 1u);
  auto entry = rig.cache.cookies.lookup(rig.client->od_key());
  ASSERT_TRUE(entry.has_value());
  // The synced blob opens under the server's sealer and carries the
  // session's measured QoS.
  core::CookieSealer sealer(crypto::key_from_string("test-master"));
  auto rec = sealer.open(entry->sealed);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->valid());
  EXPECT_EQ(rec->od_key, rig.client->od_key());
  EXPECT_NEAR(to_ms(rec->min_rtt), 50.0, 10.0);  // default path RTT
}

TEST(App, ThetaVfChangesPlaybackCondition) {
  ServerConfig scfg;
  scfg.theta_vf = 3;
  ClientConfig ccfg;
  ccfg.theta_vf = 3;
  Rig rig(scfg, ccfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  ASSERT_TRUE(rig.server->parser().complete());
  EXPECT_EQ(rig.server->parser().video_frames_seen(), 3u);
  EXPECT_EQ(rig.server->parser().ff_size(),
            rig.stream.first_frame_size(
                rig.client->metrics().request_sent_at, 3));
}

TEST(App, ManualInitOverrideBypassesScheme) {
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kWira;
  cfg.manual_init = ServerConfig::ManualInit{99'000, mbps(5)};
  Rig rig(cfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_EQ(rig.server->last_init().init_cwnd, 99'000u);
  EXPECT_EQ(rig.server->last_init().init_pacing, mbps(5));
}

TEST(App, OneRttClientCachesServerConfig) {
  Rig rig;  // no prime: 1-RTT
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_TRUE(rig.client->metrics().first_frame_done());
  EXPECT_FALSE(rig.client->metrics().zero_rtt);
  // The REJ's server config is now cached for next time.
  EXPECT_EQ(rig.cache.server_configs.count(1), 1u);
  EXPECT_EQ(rig.cache.server_configs[1], rig.server->server_config_id());
}

TEST(App, FirstFrameBytesMatchParserFfSize) {
  Rig rig;
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  ASSERT_TRUE(rig.client->metrics().first_frame_done());
  // The client's demuxer position at frame 1 equals the parser's FF_Size
  // minus the final PreviousTagSize field (the demuxer callback fires at
  // the end of the tag body; Algorithm 1 counts the trailing field too).
  EXPECT_EQ(rig.client->metrics().first_frame_bytes +
                media::kFlvPreviousTagSize,
            rig.server->parser().ff_size());
}

// A viewer that hangs up at its first frame leaves nothing scheduled: the
// server stops pulling its live tail (and its cookie sync), and the chunks
// already due go back to the loop pool, so the loop drains within one sync
// period of the close.
TEST(App, ClosedSessionStopsPullingLiveTail) {
  Rig rig;
  rig.prime_zero_rtt();
  TimeNs closed_at = kNoTime;
  rig.client->set_on_frame_complete([&rig, &closed_at](uint32_t idx) {
    if (idx != 1) return;
    closed_at = rig.loop.now();
    rig.client->connection().close(0, "first frame");
  });
  rig.client->start();
  rig.loop.run_until(seconds(3));
  ASSERT_NE(closed_at, kNoTime);
  ASSERT_TRUE(rig.server->connection().closed());
  rig.loop.run_until(closed_at + ServerConfig{}.sync_period);
  EXPECT_EQ(rig.loop.pending(), 0u);
}

TimeNs first_event_time(const trace::EventLog& log, trace::EventType type) {
  const auto it =
      std::find_if(log.events.begin(), log.events.end(),
                   [type](const trace::Event& e) { return e.type == type; });
  return it == log.events.end() ? kNoTime : it->time;
}

// The server's three FFCT phase marks are the instants of its first
// request_received / origin_byte / ff_parsed events, for every scheme in
// both containers; and since the phases read only those marks, an
// untraced collect_phases session yields exactly the traced one's spans.
TEST(App, PhaseMarksAreFirstTraceEvents) {
  for (const media::Container container :
       {media::Container::kFlv, media::Container::kMpegTs}) {
    for (const core::Scheme scheme : exp::PopulationConfig{}.schemes) {
      const std::string what = std::string(core::scheme_name(scheme)) +
                               (container == media::Container::kFlv
                                    ? " flv"
                                    : " ts");
      ServerConfig server_cfg;
      server_cfg.scheme = scheme;
      server_cfg.origin_latency = milliseconds(20);  // corner case 1
      ClientConfig client_cfg;
      client_cfg.container = container;
      sim::PathConfig path_cfg;
      path_cfg.bandwidth = mbps(8);
      path_cfg.rtt = milliseconds(60);
      Rig rig(server_cfg, client_cfg, path_cfg);
      rig.prime_zero_rtt();
      trace::EventLog log;
      rig.server->set_tracer(&log);
      rig.client->start();
      rig.loop.run_until(seconds(3));
      ASSERT_TRUE(rig.client->metrics().first_frame_done()) << what;

      const WiraServer& server = *rig.server;
      EXPECT_NE(server.ff_parsed(), kNoTime) << what;
      EXPECT_EQ(server.request_received(),
                first_event_time(log, trace::EventType::kRequestReceived))
          << what;
      EXPECT_EQ(server.first_origin_byte(),
                first_event_time(log, trace::EventType::kOriginByte))
          << what;
      EXPECT_EQ(server.ff_parsed(),
                first_event_time(log, trace::EventType::kFfParsed))
          << what;
      EXPECT_EQ(obs::ffct_phases(exp::ffct_boundaries(server, *rig.client))
                    .size(),
                obs::kNumPhases)
          << what;

      exp::SessionConfig cfg;
      cfg.scheme = scheme;
      cfg.stream.container = container;
      cfg.path.loss_rate = 0.02;
      cfg.seed = 5;
      cfg.collect_phases = true;
      const exp::SessionResult untraced = exp::run_session(cfg);
      trace::EventLog session_log;
      cfg.tracer = &session_log;
      const exp::SessionResult traced = exp::run_session(cfg);
      ASSERT_EQ(untraced.phases.size(), obs::kNumPhases) << what;
      ASSERT_EQ(traced.phases.size(), untraced.phases.size()) << what;
      EXPECT_FALSE(session_log.events.empty()) << what;
      for (size_t p = 0; p < untraced.phases.size(); ++p) {
        EXPECT_EQ(traced.phases[p].begin, untraced.phases[p].begin) << what;
        EXPECT_EQ(traced.phases[p].end, untraced.phases[p].end) << what;
      }
    }
  }
}

// The client demuxes only up to its last tracked frame.  A client that
// tracks k frames must report exactly what an 8-frame client reports for
// its first k, over a long, lossy path whose live tail (retransmissions,
// receive stalls a round trip long) keeps flowing long after the cut.
struct TrackedRun {
  PlayerClient::Metrics metrics;
  uint32_t stalls = 0;
};

TrackedRun run_tracking(media::Container container, uint32_t track_frames) {
  ClientConfig client_cfg;
  client_cfg.container = container;
  client_cfg.track_frames = track_frames;
  sim::PathConfig path_cfg;
  path_cfg.rtt = milliseconds(300);
  path_cfg.extra_loss.loss_rate = 0.03;
  Rig rig({}, client_cfg, path_cfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(8));
  return {rig.client->metrics(), rig.client->stalls_observed()};
}

TEST(App, DemuxCutoffKeepsTrackedFrameMetrics) {
  uint32_t stalls = 0;
  for (const media::Container container :
       {media::Container::kFlv, media::Container::kMpegTs}) {
    const char* name = container == media::Container::kFlv ? "FLV" : "TS";
    const TrackedRun full = run_tracking(container, 8);
    ASSERT_EQ(full.metrics.frame_complete_at.size(), 8u) << name;
    stalls += full.stalls;
    for (const uint32_t k : {1u, 4u}) {
      const TrackedRun cut = run_tracking(container, k);
      ASSERT_EQ(cut.metrics.frame_complete_at.size(), k) << name << " " << k;
      for (uint32_t i = 1; i <= k; ++i) {
        EXPECT_EQ(cut.metrics.frame_time(i), full.metrics.frame_time(i))
            << name << " " << k << " frame " << i;
      }
      EXPECT_EQ(cut.metrics.first_frame_bytes, full.metrics.first_frame_bytes)
          << name << " " << k;
      EXPECT_EQ(cut.metrics.first_frame_byte_at,
                full.metrics.first_frame_byte_at)
          << name << " " << k;
      EXPECT_EQ(cut.metrics.total_bytes_received,
                full.metrics.total_bytes_received)
          << name << " " << k;
      EXPECT_EQ(cut.stalls, full.stalls) << name << " " << k;
    }
    // The live tail flowed well past the tracked frames.
    EXPECT_GT(full.metrics.total_bytes_received,
              4 * full.metrics.first_frame_bytes)
        << name;
  }
  // Stall detection ran in the compared tails.
  EXPECT_GT(stalls, 0u);
}

TEST(App, UntrackedClientStillReportsFirstVideoByte) {
  for (const media::Container container :
       {media::Container::kFlv, media::Container::kMpegTs}) {
    const char* name = container == media::Container::kFlv ? "FLV" : "TS";
    const TrackedRun none = run_tracking(container, 0);
    const TrackedRun one = run_tracking(container, 1);
    EXPECT_TRUE(none.metrics.frame_complete_at.empty()) << name;
    ASSERT_NE(none.metrics.first_frame_byte_at, kNoTime) << name;
    EXPECT_EQ(none.metrics.first_frame_byte_at,
              one.metrics.first_frame_byte_at)
        << name;
    EXPECT_EQ(none.metrics.total_bytes_received,
              one.metrics.total_bytes_received)
        << name;
  }
}

}  // namespace
}  // namespace wira::app
