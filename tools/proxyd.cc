// wira_proxyd: real-socket serving mode (DESIGN.md §6; ROADMAP tentpole).
//
// An epoll-driven UDP front end that speaks the repo's QUIC dialect over
// real sockets.  The session objects are the *same* app::WiraServer /
// quic::Connection instances the simulator runs — they schedule on one
// sim::EventLoop that net::EpollRuntime keeps synchronized to
// CLOCK_MONOTONIC, so the discrete-event loop doubles as the daemon's
// timer wheel and nothing in src/app, src/quic or src/cc knows whether
// time is virtual or real.
//
// One UDP socket per Table-I scheme; sessions demux by peer address
// (wira_loadgen gives every session its own connected socket, so the
// source port is the session identity).  --port-file lists one
// "scheme_token addr:port" line per scheme — the exact endpoints
// wira_loadgen consumes.
//
//   wira_proxyd --listen 0 --port-file /tmp/proxyd.ports
//   wira_proxyd --schemes wira --trace-dir traces   # server-vantage qlogs
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/wira_server.h"
#include "core/init_config.h"
#include "crypto/aead.h"
#include "media/stream_source.h"
#include "net/clock.h"
#include "net/epoll_runtime.h"
#include "net/udp_socket.h"
#include "obs/qlog.h"
#include "sim/event_loop.h"
#include "trace/tracer.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Args {
  std::string bind = "127.0.0.1";
  std::string port_file;
  std::string schemes = "baseline,wira_ff,wira_hx,wira";
  std::string trace_dir;  ///< empty = no server-vantage qlogs
  uint16_t listen = 0;    ///< first scheme's port; 0 = all ephemeral
  int rcvbuf_bytes = 8 * 1024 * 1024;
  long origin_latency_us = 5000;
  long stream_horizon_ms = 12000;
};

[[noreturn]] void usage(const char* prog, const char* msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: %s [--bind ADDR] [--listen PORT] [--port-file FILE]\n"
               "          [--schemes tok,...] [--trace-dir DIR]\n"
               "          [--rcvbuf BYTES] [--origin-latency-us N]\n"
               "          [--stream-horizon-ms N]\n",
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
    auto num = [&](const char* flag, long lo, long hi,
                   long* out) -> bool {
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
    long n = 0;
    if (const char* v = value("--bind")) {
      a.bind = v;
    } else if (const char* v = value("--port-file")) {
      a.port_file = v;
    } else if (const char* v = value("--schemes")) {
      a.schemes = v;
    } else if (const char* v = value("--trace-dir")) {
      a.trace_dir = v;
    } else if (num("--listen", 0, 65535, &n)) {
      a.listen = static_cast<uint16_t>(n);
    } else if (num("--rcvbuf", 0, 1 << 30, &n)) {
      a.rcvbuf_bytes = static_cast<int>(n);
    } else if (num("--origin-latency-us", 0, 60'000'000, &n)) {
      a.origin_latency_us = n;
    } else if (num("--stream-horizon-ms", 100, 600'000, &n)) {
      a.stream_horizon_ms = n;
    } else {
      usage(argv[0], "unknown argument");
    }
  }
  return a;
}

std::vector<wira::core::Scheme> parse_schemes(const Args& a,
                                              const char* prog) {
  std::vector<wira::core::Scheme> out;
  size_t at = 0;
  while (at <= a.schemes.size()) {
    const size_t comma = a.schemes.find(',', at);
    const std::string tok = a.schemes.substr(
        at, comma == std::string::npos ? std::string::npos : comma - at);
    wira::core::Scheme s;
    if (!wira::core::scheme_from_token(tok.c_str(), &s)) {
      usage(prog, ("unknown scheme token \"" + tok + "\"").c_str());
    }
    out.push_back(s);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

/// One live session: the same objects exp::run_session wires up, minus
/// the simulated path — datagrams arrive from the socket and leave
/// through sendto(peer).
struct Session {
  wira::media::LiveStream stream;
  std::ofstream qlog;
  std::optional<wira::obs::QlogStreamWriter> qlog_writer;
  std::optional<wira::app::WiraServer> server;

  Session(const wira::media::StreamProfile& profile, uint64_t corpus_seed)
      : stream(profile, corpus_seed) {}
};

struct SchemeListener {
  wira::core::Scheme scheme;
  wira::net::UdpSocket sock;
  std::map<wira::net::PeerAddr, std::unique_ptr<Session>> sessions;
  uint64_t datagrams = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace wira;
  const Args args = parse_args(argc, argv);
  const std::vector<core::Scheme> schemes = parse_schemes(args, argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  sim::EventLoop loop;
  net::EpollRuntime runtime(loop);
  if (!runtime.ok()) {
    std::fprintf(stderr, "wira_proxyd: %s\n", runtime.error().c_str());
    return 1;
  }
  // Session timers are real timestamps from here on; scheduling anything
  // before this sync would backdate it to loop time 0.
  runtime.sync_now();
  const net::MonotonicClock mono;

  const crypto::Key master_key = crypto::key_from_string("wira-server-7");
  const media::StreamProfile profile;  // corpus default, as in the sim
  constexpr uint64_t kCorpusSeed = 42;

  std::vector<std::unique_ptr<SchemeListener>> listeners;
  for (size_t si = 0; si < schemes.size(); ++si) {
    auto lst = std::make_unique<SchemeListener>();
    lst->scheme = schemes[si];
    const uint16_t port =
        args.listen == 0 ? 0 : static_cast<uint16_t>(args.listen + si);
    std::string error;
    if (!lst->sock.open_bound(args.bind, port, args.rcvbuf_bytes, &error)) {
      std::fprintf(stderr, "wira_proxyd: %s: %s\n",
                   core::scheme_token(lst->scheme), error.c_str());
      return 1;
    }
    listeners.push_back(std::move(lst));
  }

  // Demux + session bring-up.  The recv loop drains the socket fully per
  // wakeup; a new peer address materializes a new WiraServer wired to
  // sendto(peer) with buffers recycled through the loop's pool.
  for (auto& lst_ptr : listeners) {
    SchemeListener* lst = lst_ptr.get();
    runtime.add_fd(lst->sock.fd(), [&, lst](uint32_t) {
      uint8_t buf[65536];
      for (;;) {
        net::PeerAddr peer;
        const ssize_t n = lst->sock.recv_from(buf, sizeof buf, &peer);
        if (n < 0) return;
        lst->datagrams++;
        auto it = lst->sessions.find(peer);
        if (it == lst->sessions.end()) {
          auto session = std::make_unique<Session>(profile, kCorpusSeed);
          Session* s = session.get();
          if (!args.trace_dir.empty()) {
            const std::string name = "peer_" + peer.file_tag();
            s->qlog.open(args.trace_dir + "/" + name + ".server.sqlog",
                         std::ios::trunc);
            if (s->qlog) {
              s->qlog_writer.emplace(
                  s->qlog,
                  obs::paired_trace_info(name, obs::QlogVantage::kServer));
            }
          }
          app::ServerConfig cfg;
          cfg.scheme = lst->scheme;
          cfg.master_key = master_key;
          cfg.expected_od_key = 0;  // serve any client's cookie binding
          cfg.origin_latency = microseconds(args.origin_latency_us);
          cfg.stream_horizon = milliseconds(args.stream_horizon_ms);
          s->server.emplace(loop, s->stream, cfg,
                            [&, lst, peer](std::vector<uint8_t> dgram) {
                              lst->sock.send_to(peer, dgram);
                              loop.buffers().release(std::move(dgram));
                            });
          s->server->connection().set_clock(&mono);
          if (s->qlog_writer.has_value()) {
            s->server->set_tracer(&*s->qlog_writer);
          }
          it = lst->sessions.emplace(peer, std::move(session)).first;
        }
        it->second->server->on_datagram({buf, static_cast<size_t>(n)});
      }
    });
  }

  if (!args.port_file.empty()) {
    std::FILE* f = std::fopen(args.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "wira_proxyd: cannot write %s\n",
                   args.port_file.c_str());
      return 1;
    }
    for (const auto& lst : listeners) {
      std::fprintf(f, "%s %s\n", core::scheme_token(lst->scheme),
                   lst->sock.local_addr().display().c_str());
    }
    std::fclose(f);
  }
  for (const auto& lst : listeners) {
    std::fprintf(stderr, "wira_proxyd: %s on %s\n",
                 core::scheme_token(lst->scheme),
                 lst->sock.local_addr().display().c_str());
  }

  const bool ok = runtime.run([] { return g_stop != 0; });
  if (!ok) {
    std::fprintf(stderr, "wira_proxyd: %s\n", runtime.error().c_str());
    return 1;
  }
  uint64_t sessions = 0;
  uint64_t datagrams = 0;
  for (const auto& lst : listeners) {
    sessions += lst->sessions.size();
    datagrams += lst->datagrams;
  }
  std::fprintf(stderr,
               "wira_proxyd: served %llu session(s), %llu datagram(s)\n",
               static_cast<unsigned long long>(sessions),
               static_cast<unsigned long long>(datagrams));
  return 0;
}
