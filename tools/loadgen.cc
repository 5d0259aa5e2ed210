// wira_loadgen: load generator for wira_proxyd (DESIGN.md §6).
//
// Reads the proxyd port file ("scheme_token addr:port" per line), opens one
// *connected* UDP socket per session — the distinct source port is the
// session identity proxyd routes on — and runs N concurrent PlayerClient
// sessions per scheme on one epoll runtime, each closing once its tracked
// frames complete.  Per-session config
// (transport cookie, 0-RTT) is drawn from a seeded Rng, so a --sim-compare
// pass can rerun the *same* session population through exp::run_session
// over a loopback-approximating sim path and report sim-predicted FFCT
// next to the measured real-socket numbers.
//
// Output: JSON on stdout (per-scheme sessions / handshake failures /
// zero-RTT count / FFCT p50+p90, sim p50 when --sim-compare), a human
// summary on stderr.  Exit 0 iff every session completed its handshake.
//
//   wira_loadgen --ports /tmp/proxyd.ports --sessions 250
//   wira_loadgen --ports p --sessions 4 --trace-dir traces  # client sqlogs
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/player_client.h"
#include "core/init_config.h"
#include "core/transport_cookie.h"
#include "crypto/aead.h"
#include "exp/session_runner.h"
#include "net/clock.h"
#include "net/epoll_runtime.h"
#include "net/udp_socket.h"
#include "obs/qlog.h"
#include "sim/event_loop.h"
#include "trace/tracer.h"
#include "util/rng.h"

namespace {

using namespace wira;

struct Args {
  std::string ports_file;
  std::string trace_dir;  ///< empty = no client-vantage qlogs
  long sessions = 8;      ///< per scheme
  long ramp_ms = 200;     ///< start stagger across all sessions
  long timeout_ms = 30000;
  long cookie_pct = 93;   ///< sessions arriving with an Hx_QoS cookie
  long zero_rtt_pct = 90; ///< sessions with the server config cached
  long track_frames = 1;
  long origin_latency_us = 5000;  ///< must match proxyd for --sim-compare
  long seed = 1;
  long sim_sessions = 16;  ///< --sim-compare population cap per scheme
  bool sim_compare = false;
};

[[noreturn]] void usage(const char* prog, const char* msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: %s --ports FILE [--sessions N] [--ramp-ms N]\n"
               "          [--timeout-ms N] [--cookie-pct N] [--zero-rtt-pct N]\n"
               "          [--track-frames N] [--origin-latency-us N]\n"
               "          [--seed N] [--trace-dir DIR]\n"
               "          [--sim-compare] [--sim-sessions N]\n",
               msg, prog);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(arg, flag) != 0) return nullptr;
      if (i + 1 >= argc) usage(argv[0], "flag needs a value");
      return argv[++i];
    };
    auto num = [&](const char* flag, long lo, long hi, long* out) -> bool {
      const char* v = value(flag);
      if (v == nullptr) return false;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n < lo || n > hi) {
        usage(argv[0], (std::string(flag) + " out of range").c_str());
      }
      *out = n;
      return true;
    };
    if (const char* v = value("--ports")) {
      a.ports_file = v;
    } else if (const char* v = value("--trace-dir")) {
      a.trace_dir = v;
    } else if (std::strcmp(arg, "--sim-compare") == 0) {
      a.sim_compare = true;
    } else if (!num("--sessions", 1, 1'000'000, &a.sessions) &&
               !num("--ramp-ms", 0, 600'000, &a.ramp_ms) &&
               !num("--timeout-ms", 100, 3'600'000, &a.timeout_ms) &&
               !num("--cookie-pct", 0, 100, &a.cookie_pct) &&
               !num("--zero-rtt-pct", 0, 100, &a.zero_rtt_pct) &&
               !num("--track-frames", 1, 16, &a.track_frames) &&
               !num("--origin-latency-us", 0, 60'000'000,
                    &a.origin_latency_us) &&
               !num("--seed", 0, 1'000'000'000, &a.seed) &&
               !num("--sim-sessions", 0, 1'000'000, &a.sim_sessions)) {
      usage(argv[0], "unknown argument");
    }
  }
  if (a.ports_file.empty()) usage(argv[0], "--ports is required");
  return a;
}

struct Endpoint {
  core::Scheme scheme;
  std::string addr;
  uint16_t port;
};

std::vector<Endpoint> parse_ports(const std::string& file,
                                  const char* prog) {
  std::ifstream in(file);
  if (!in) usage(prog, ("cannot read port file " + file).c_str());
  std::vector<Endpoint> out;
  std::string token;
  std::string ep;
  while (in >> token >> ep) {
    Endpoint e;
    if (!core::scheme_from_token(token.c_str(), &e.scheme)) {
      usage(prog, ("unknown scheme token in port file: " + token).c_str());
    }
    const size_t colon = ep.rfind(':');
    if (colon == std::string::npos) {
      usage(prog, ("malformed endpoint in port file: " + ep).c_str());
    }
    e.addr = ep.substr(0, colon);
    const long port = std::strtol(ep.c_str() + colon + 1, nullptr, 10);
    if (port <= 0 || port > 65535) {
      usage(prog, ("bad port in port file: " + ep).c_str());
    }
    e.port = static_cast<uint16_t>(port);
    out.push_back(std::move(e));
  }
  if (out.empty()) usage(prog, "port file lists no endpoints");
  return out;
}

/// Per-session draw, reproducible from the base seed — the exact same
/// draws parameterize the --sim-compare rerun of session i.
struct SessionDraw {
  uint64_t client_id;
  bool zero_rtt;
  bool cookie;
};

/// The cookie a returning loopback client would carry: history that says
/// "fast, short path", so Wira/Hx initialize at full rate (BDP above the
/// fleet-average FF_Size, making Eq. 3 pick FF_Size).
core::HxQosRecord loopback_cookie(uint64_t od_key, TimeNs sealed_at) {
  core::HxQosRecord rec;
  rec.min_rtt = milliseconds(1);
  rec.max_bw = mbps(500);
  rec.server_timestamp = sealed_at;
  rec.od_key = od_key;
  return rec;
}

/// Loopback-approximating sim path for --sim-compare: effectively
/// unconstrained bandwidth, sub-millisecond RTT, no loss — the sim's view
/// of 127.0.0.1.
sim::PathConfig loopback_path() {
  sim::PathConfig p;
  p.bandwidth = mbps(5000);
  p.reverse_bandwidth = mbps(5000);
  p.rtt = microseconds(200);
  p.buffer_bytes = 4 * 1024 * 1024;
  p.loss_rate = 0;
  return p;
}

struct ClientSession {
  net::UdpSocket sock;
  app::ClientCache cache;
  std::unique_ptr<obs::QlogFile> qlog;
  std::optional<app::PlayerClient> client;
  SessionDraw draw{};
};

struct SchemeStats {
  core::Scheme scheme;
  std::vector<ClientSession*> sessions;
};

double percentile_us(std::vector<TimeNs> sorted_ns, double p) {
  if (sorted_ns.empty()) return -1;
  std::sort(sorted_ns.begin(), sorted_ns.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_ns.size() - 1) + 0.5);
  return static_cast<double>(sorted_ns[idx]) / 1000.0;
}

void raise_nofile_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 &&
      lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<Endpoint> endpoints =
      parse_ports(args.ports_file, argv[0]);
  raise_nofile_limit();

  sim::EventLoop loop;
  net::EpollRuntime runtime(loop);
  if (!runtime.ok()) {
    std::fprintf(stderr, "wira_loadgen: %s\n", runtime.error().c_str());
    return 1;
  }
  runtime.sync_now();
  const net::MonotonicClock mono;
  const TimeNs start_base = net::MonotonicClock::raw_now();

  const uint64_t server_id = 7;
  const uint32_t network_type = 0;
  const crypto::Key master_key = crypto::key_from_string("wira-server-7");
  const std::vector<uint8_t> scid = {0x57, 0x49, 0x52, 0x41};  // "WIRA"
  core::CookieSealer sealer(master_key);
  wira::Rng rng(static_cast<uint64_t>(args.seed));

  std::vector<std::unique_ptr<ClientSession>> sessions;
  std::vector<SchemeStats> per_scheme;
  size_t done_count = 0;
  const size_t total =
      endpoints.size() * static_cast<size_t>(args.sessions);
  const TimeNs ramp_step =
      total > 1 ? milliseconds(args.ramp_ms) / static_cast<TimeNs>(total)
                : 0;

  uint64_t next_client_id = 1;
  for (const Endpoint& ep : endpoints) {
    per_scheme.push_back({ep.scheme, {}});
    SchemeStats& stats = per_scheme.back();
    for (long i = 0; i < args.sessions; ++i) {
      auto session = std::make_unique<ClientSession>();
      ClientSession* s = session.get();
      s->draw.client_id = next_client_id++;
      s->draw.cookie = rng.chance(args.cookie_pct / 100.0);
      s->draw.zero_rtt = rng.chance(args.zero_rtt_pct / 100.0);

      std::string error;
      if (!s->sock.open_connected(ep.addr, ep.port, &error)) {
        std::fprintf(stderr, "wira_loadgen: %s\n", error.c_str());
        return 1;
      }

      const uint64_t od_key =
          core::od_pair_key(s->draw.client_id, server_id, network_type);
      if (s->draw.zero_rtt) s->cache.server_configs[server_id] = scid;
      if (s->draw.cookie) {
        // Seal with the server's real-clock "now" so the cookie is fresh
        // against proxyd's staleness check (monotonic timebase is shared
        // across processes on one host).
        const TimeNs sealed_at = net::MonotonicClock::raw_now();
        s->cache.cookies.store(
            od_key, sealer.seal(loopback_cookie(od_key, sealed_at)),
            sealed_at);
      }

      app::ClientConfig cfg;
      cfg.client_id = s->draw.client_id;
      cfg.server_id = server_id;
      cfg.network_type = network_type;
      cfg.track_frames = static_cast<uint32_t>(args.track_frames);
      s->client.emplace(loop, cfg, s->cache,
                        [s, &loop](std::vector<uint8_t> dgram) {
                          s->sock.send(dgram);
                          loop.buffers().release(std::move(dgram));
                        });
      if (!args.trace_dir.empty()) {
        // Named from *this socket's* local address — the proxyd side sees
        // the same address as the peer, so the pair shares its stem and
        // group_id without any cross-process coordination.
        const std::string name = "peer_" + s->sock.local_addr().file_tag();
        s->qlog = obs::QlogFile::open(
            args.trace_dir + "/" + name + ".client.sqlog",
            obs::paired_trace_info(name, obs::QlogVantage::kClient));
        if (s->qlog) s->client->set_tracer(s->qlog.get());
      }
      // Done sessions close, outside the connection's receive path.
      const uint32_t track = static_cast<uint32_t>(args.track_frames);
      s->client->set_on_frame_complete([s, &loop, &done_count,
                                        track](uint32_t idx) {
        if (idx != track) return;
        loop.schedule_in(0, [s, &done_count] {
          s->client->connection().close(0, "done");
          ++done_count;
        });
      });
      s->client->connection().set_clock(&mono);

      runtime.add_fd(s->sock.fd(), [s](uint32_t) {
        uint8_t buf[65536];
        for (;;) {
          const ssize_t n = s->sock.recv_from(buf, sizeof buf, nullptr);
          if (n < 0) return;
          s->client->on_datagram({buf, static_cast<size_t>(n)});
        }
      });

      const size_t global_index = sessions.size();
      loop.schedule_at(
          start_base + static_cast<TimeNs>(global_index) * ramp_step,
          [s] { s->client->start(); });

      stats.sessions.push_back(s);
      sessions.push_back(std::move(session));
    }
  }

  const TimeNs deadline = start_base + milliseconds(args.timeout_ms);
  runtime.run([&] {
    return done_count >= total ||
           net::MonotonicClock::raw_now() >= deadline;
  });

  // ---- report ----
  size_t handshake_failures = 0;
  std::printf("{\n  \"sessions_per_scheme\": %ld,\n  \"schemes\": [\n",
              args.sessions);
  for (size_t si = 0; si < per_scheme.size(); ++si) {
    const SchemeStats& st = per_scheme[si];
    size_t ok = 0;
    size_t zero_rtt = 0;
    size_t frames_done = 0;
    std::vector<TimeNs> ffct;
    for (const ClientSession* s : st.sessions) {
      const app::PlayerClient::Metrics& m = s->client->metrics();
      if (m.first_byte_at != kNoTime) {
        ++ok;
      } else {
        ++handshake_failures;
      }
      if (m.zero_rtt) ++zero_rtt;
      if (m.first_frame_done()) {
        ++frames_done;
        ffct.push_back(m.ffct());
      }
    }

    double sim_p50_us = -1;
    if (args.sim_compare) {
      // Rerun the same session population (same seed-derived draws) in
      // the simulator over the loopback-approximating path.
      std::vector<TimeNs> sim_ffct;
      const size_t cap = std::min<size_t>(
          st.sessions.size(), static_cast<size_t>(args.sim_sessions));
      for (size_t i = 0; i < cap; ++i) {
        const SessionDraw& d = st.sessions[i]->draw;
        exp::SessionConfig cfg;
        cfg.path = loopback_path();
        cfg.scheme = st.scheme;
        cfg.seed = d.client_id;
        cfg.zero_rtt = d.zero_rtt;
        if (d.cookie) cfg.cookie = loopback_cookie(0, TimeNs{0});
        cfg.origin_latency = microseconds(args.origin_latency_us);
        cfg.track_frames = static_cast<uint32_t>(args.track_frames);
        const exp::SessionResult r = exp::run_session(cfg);
        if (r.first_frame_completed) sim_ffct.push_back(r.ffct);
      }
      sim_p50_us = percentile_us(sim_ffct, 0.5);
    }

    const double p50 = percentile_us(ffct, 0.5);
    const double p90 = percentile_us(ffct, 0.9);
    std::printf("    {\"scheme\": \"%s\", \"sessions\": %zu, "
                "\"handshakes_ok\": %zu, \"handshake_failures\": %zu, "
                "\"zero_rtt\": %zu, \"first_frame_done\": %zu, "
                "\"ffct_p50_us\": %.1f, \"ffct_p90_us\": %.1f, "
                "\"sim_ffct_p50_us\": %.1f}%s\n",
                core::scheme_token(st.scheme), st.sessions.size(), ok,
                st.sessions.size() - ok, zero_rtt, frames_done, p50, p90,
                sim_p50_us, si + 1 < per_scheme.size() ? "," : "");
    std::fprintf(stderr,
                 "wira_loadgen: %-10s %4zu sessions, %zu handshakes ok, "
                 "%zu zero-rtt, ffct p50 %.1f us p90 %.1f us, sim p50 "
                 "%.1f us\n",
                 core::scheme_token(st.scheme), st.sessions.size(), ok,
                 zero_rtt, p50, p90, sim_p50_us);
  }
  std::printf("  ],\n  \"handshake_failures\": %zu\n}\n",
              handshake_failures);
  return handshake_failures == 0 ? 0 : 3;
}
