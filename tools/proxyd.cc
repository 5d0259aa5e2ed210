// wira_proxyd: real-socket serving mode (DESIGN.md §6).
//
// An epoll-driven UDP front end that speaks the repo's QUIC dialect over
// real sockets.  The session objects are the *same* app::WiraServer /
// quic::Connection instances the simulator runs — they schedule on one
// sim::EventLoop that net::EpollRuntime keeps synchronized to
// CLOCK_MONOTONIC, so the discrete-event loop doubles as the daemon's
// timer wheel and nothing in src/app, src/quic or src/cc knows whether
// time is virtual or real.
//
// One UDP socket per Table-I scheme, each routing into an app::WiraEdge
// keyed by peer address:port (every client uses connection id 1), which
// creates sessions from CHLOs only and evicts closed or idle ones; the
// exit line adds the edges' counters.  --port-file lists one
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
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/edge.h"
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

struct SchemeListener {
  wira::core::Scheme scheme;
  wira::net::UdpSocket sock;
  std::optional<wira::app::WiraEdge> edge;
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

  // Every session serves the corpus default stream, as in the sim; it is
  // immutable, so all of them share one.
  const media::LiveStream stream(media::StreamProfile{}, /*corpus_seed=*/42);
  app::ServerConfig base;
  base.master_key = crypto::key_from_string("wira-server-7");
  base.expected_od_key = 0;  // serve any client's cookie binding
  base.origin_latency = microseconds(args.origin_latency_us);
  base.stream_horizon = milliseconds(args.stream_horizon_ms);
  // A new session runs on the real clock and, when tracing, writes its
  // qlog under a name derived from the peer, as wira_loadgen names its own.
  const app::WiraEdge::OpenFn open_session =
      [&](uint64_t key, app::WiraServer& server)
      -> std::unique_ptr<trace::EventSink> {
    server.connection().set_clock(&mono);
    if (args.trace_dir.empty()) return nullptr;
    const std::string name = "peer_" + net::PeerAddr::from_key(key).file_tag();
    return obs::QlogFile::open(
        args.trace_dir + "/" + name + ".server.sqlog",
        obs::paired_trace_info(name, obs::QlogVantage::kServer));
  };

  std::vector<std::unique_ptr<SchemeListener>> listeners;
  for (size_t si = 0; si < schemes.size(); ++si) {
    auto lst = std::make_unique<SchemeListener>();
    SchemeListener* raw = lst.get();
    lst->scheme = schemes[si];
    const uint16_t port =
        args.listen == 0 ? 0 : static_cast<uint16_t>(args.listen + si);
    std::string error;
    if (!lst->sock.open_bound(args.bind, port, args.rcvbuf_bytes, &error)) {
      std::fprintf(stderr, "wira_proxyd: %s: %s\n",
                   core::scheme_token(lst->scheme), error.c_str());
      return 1;
    }
    base.scheme = lst->scheme;
    lst->edge.emplace(loop, stream, base,
                      [&loop, raw](uint64_t key, std::vector<uint8_t> dgram) {
                        raw->sock.send_to(net::PeerAddr::from_key(key), dgram);
                        loop.buffers().release(std::move(dgram));
                      },
                      open_session);
    // The recv loop drains the socket fully per wakeup.
    runtime.add_fd(lst->sock.fd(), [raw](uint32_t) {
      uint8_t buf[65536];
      for (;;) {
        net::PeerAddr peer;
        const ssize_t n = raw->sock.recv_from(buf, sizeof buf, &peer);
        if (n < 0) return;
        raw->datagrams++;
        raw->edge->on_datagram(peer.key(), {buf, static_cast<size_t>(n)});
      }
    });
    listeners.push_back(std::move(lst));
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
  uint64_t datagrams = 0;
  app::WiraEdge::Counters total;
  for (const auto& lst : listeners) {
    datagrams += lst->datagrams;
    const app::WiraEdge::Counters& c = lst->edge->counters();
    total.served += c.served;
    total.evicted += c.evicted;
    total.dropped += c.dropped;
    total.idle_closed += c.idle_closed;
  }
  std::fprintf(stderr,
               "wira_proxyd: served %llu session(s), %llu datagram(s); "
               "evicted %llu, dropped %llu, idle-closed %llu\n",
               static_cast<unsigned long long>(total.served),
               static_cast<unsigned long long>(datagrams),
               static_cast<unsigned long long>(total.evicted),
               static_cast<unsigned long long>(total.dropped),
               static_cast<unsigned long long>(total.idle_closed));
  return 0;
}
