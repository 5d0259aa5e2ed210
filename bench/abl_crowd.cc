// Ablation A10: flash-crowd contention on a shared edge uplink.
//
// The population benches run sessions in isolation; production edges
// serve many concurrent joins.  This bench sweeps crowd size on a shared
// 25 Mbps uplink: per-flow initialization (sized to each viewer's access
// link) should degrade more gracefully than the fleet-constant baseline,
// whose joint burst over/under-shoots the shared queue.
#include <cstdio>
#include <memory>
#include <vector>

#include "app/edge.h"
#include "app/player_client.h"
#include "bench_common.h"
#include "obs/phase_timeline.h"
#include "sim/topology.h"

using namespace wira;

namespace {

struct CrowdResult {
  Samples ffct_ms;
  double uplink_loss = 0;
  /// Phase decompositions of the completed sessions, from each viewer's
  /// client and its edge session.
  std::vector<exp::SessionResult> sessions;
};

CrowdResult run_crowd(core::Scheme scheme, int viewers, uint64_t seed) {
  sim::EventLoop loop;
  sim::LinkConfig egress;
  egress.rate = mbps(25);
  egress.delay = milliseconds(5);
  egress.buffer_bytes = 256 * 1024;
  sim::SharedBottleneck net(loop, egress, seed);

  media::StreamProfile profile;
  profile.iframe_mean_bytes = 55'000;
  media::LiveStream stream(profile, 99);

  app::ServerConfig base;
  base.scheme = scheme;
  base.master_key = crypto::key_from_string("edge");
  // Viewer i has connection id 100 + i and access leg i.
  app::WiraEdge edge(loop, stream, base,
                     [&net](uint64_t id, std::vector<uint8_t> d) {
                       sim::Datagram dg;
                       dg.size = d.size();
                       dg.payload = std::move(d);
                       net.send_to_client(id - 100, std::move(dg));
                     });
  net.set_server_receiver([&edge](std::span<sim::Datagram> batch) {
    for (sim::Datagram& d : batch) {
      if (auto id = app::WiraEdge::conn_id_of(d.payload)) {
        edge.on_datagram(*id, d.payload);
      }
    }
  });

  struct Viewer {
    std::unique_ptr<app::PlayerClient> client;
    app::ClientCache cache;
    quic::ConnectionId id = 0;
  };
  std::vector<Viewer> crowd(static_cast<size_t>(viewers));
  Rng rng(seed * 17 + 3);
  for (int i = 0; i < viewers; ++i) {
    Viewer& v = crowd[static_cast<size_t>(i)];
    sim::LinkConfig access;
    access.rate = mbps_f(rng.uniform(6, 20));
    access.delay = from_seconds(rng.uniform(0.015, 0.05));
    access.buffer_bytes = 96 * 1024;
    access.loss.loss_rate = rng.uniform(0.0, 0.01);
    const size_t leg = net.add_leg(access);

    v.id = 100 + static_cast<uint64_t>(i);
    const quic::ConnectionId id = v.id;
    const uint64_t od_key = core::od_pair_key(id, 7, 0);
    auto& server = edge.add_session(id, od_key);
    app::ClientConfig ccfg;
    ccfg.client_id = id;
    ccfg.server_id = 7;
    ccfg.conn_id = id;
    v.client = std::make_unique<app::PlayerClient>(
        loop, ccfg, v.cache, [&net, leg](std::vector<uint8_t> d) {
          sim::Datagram dg;
          dg.size = d.size();
          dg.payload = std::move(d);
          net.send_to_server(leg, std::move(dg));
        });
    net.set_client_receiver(
        leg, [c = v.client.get()](std::span<sim::Datagram> batch) {
          for (sim::Datagram& d : batch) c->on_datagram(d.payload);
        });
    v.cache.server_configs[7] = server.server_config_id();
    core::CookieSealer sealer(crypto::key_from_string("edge"));
    core::HxQosRecord rec;
    rec.min_rtt = access.delay * 2 + milliseconds(10);
    rec.max_bw = access.rate;
    rec.server_timestamp = 0;
    rec.od_key = od_key;
    v.cache.cookies.store(od_key, sealer.seal(rec), 0);

    loop.schedule_at(seconds(1) + from_seconds(rng.uniform(0.0, 2.0)),
                     [c = v.client.get()] { c->start(); });
  }

  loop.run_until(seconds(15));

  CrowdResult out;
  for (const auto& v : crowd) {
    const auto& m = v.client->metrics();
    if (m.first_frame_done()) {
      out.ffct_ms.add(to_ms(m.ffct()));
      exp::SessionResult sr;
      sr.first_frame_completed = true;
      sr.ffct = m.ffct();
      sr.phases = obs::ffct_phases(
          exp::ffct_boundaries(*edge.session(v.id), *v.client));
      out.sessions.push_back(std::move(sr));
    }
  }
  const auto& st = net.egress().stats();
  const double total = static_cast<double>(
      st.delivered_packets + st.queue_drops + st.wire_drops);
  out.uplink_loss =
      total > 0 ? static_cast<double>(st.queue_drops + st.wire_drops) / total
                : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = wira::bench::parse_args(argc, argv);
  const int repeats = std::max<int>(3, static_cast<int>(args.sessions) / 80);
  std::printf("Ablation: flash-crowd contention on a 25 Mbps shared "
              "uplink (%d repeats per point)\n\n", repeats);

  exp::Table t({"viewers", "Baseline avg/max (ms)", "Wira avg/max (ms)",
                "avg gain", "uplink loss B/W"});
  std::vector<exp::SessionResult> base_sessions, wira_sessions;
  for (int viewers : {2, 4, 8, 16}) {
    Samples base_ffct, wira_ffct;
    double base_loss = 0, wira_loss = 0;
    for (int r = 0; r < repeats; ++r) {
      auto b = run_crowd(core::Scheme::kBaseline, viewers,
                         args.seed + static_cast<uint64_t>(r));
      auto w = run_crowd(core::Scheme::kWira, viewers,
                         args.seed + static_cast<uint64_t>(r));
      base_ffct.add_all(b.ffct_ms.values());
      wira_ffct.add_all(w.ffct_ms.values());
      base_loss += b.uplink_loss / repeats;
      wira_loss += w.uplink_loss / repeats;
      for (auto& s : b.sessions) base_sessions.push_back(std::move(s));
      for (auto& s : w.sessions) wira_sessions.push_back(std::move(s));
    }
    t.row({std::to_string(viewers),
           fmt(base_ffct.mean()) + " / " + fmt(base_ffct.max()),
           fmt(wira_ffct.mean()) + " / " + fmt(wira_ffct.max()),
           fmt_gain(base_ffct.mean(), wira_ffct.mean()),
           fmt(100 * base_loss, 2) + "% / " + fmt(100 * wira_loss, 2) + "%"});
  }
  t.print();
  {
    auto ptrs = [](const std::vector<exp::SessionResult>& v) {
      std::vector<const exp::SessionResult*> p;
      p.reserve(v.size());
      for (const auto& s : v) p.push_back(&s);
      return p;
    };
    exp::banner("FFCT phase breakdown (ms)");
    exp::ffct_phase_table({{"baseline", ptrs(base_sessions)},
                           {"wira", ptrs(wira_sessions)}})
        .print();
  }
  std::printf("(per-flow initialization keeps the joint startup burst "
              "proportional to each viewer's access capacity)\n");
  return 0;
}
