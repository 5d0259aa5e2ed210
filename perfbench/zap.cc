// proxyd_zap: an open loop of "zapping" viewers against a fresh
// wira_proxyd on loopback.  Viewers arrive at a fixed rate, round-robin
// over the four scheme ports, each with wira_loadgen's cookie / 0-RTT
// draws; each closes with CONNECTION_CLOSE once its first frame completes.
//
// Unlike wira_loadgen, which starts every session of one scheme before the
// next scheme (so a scheme's FFCT also carries the load left by earlier
// schemes), schemes interleave per arrival, FFCT is timed from the
// scheduled arrival, and proxyd's lifetime CPU and peak RSS come from
// wait4 after SIGTERM.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "app/player_client.h"
#include "app/wira_server.h"
#include "core/transport_cookie.h"
#include "crypto/aead.h"
#include "exp/record_codec.h"
#include "layers.h"
#include "net/clock.h"
#include "net/epoll_runtime.h"
#include "net/udp_socket.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The stream every proxyd session serves: the StreamProfile default
/// with corpus seed 42, timed on proxyd's clock (raw CLOCK_MONOTONIC).
const media::LiveStream kProxydStream(media::StreamProfile{}, 42);
/// Offered load: one viewer per frame of that stream (25/s).  proxyd
/// spends about 8 ms of CPU per session, so this keeps it near a fifth of
/// one core.
const TimeNs kArrivalInterval = kProxydStream.frame_interval();

constexpr TimeNs kViewerTimeout = seconds(3);
constexpr int kViewerRcvbuf = 4 * 1024 * 1024;
constexpr int kSetupProbes = 9;
constexpr size_t kSchemes = 4;
/// wira_proxyd's default --schemes order, i.e. its port-file order.
constexpr core::Scheme kSchemeOrder[kSchemes] = {
    core::Scheme::kBaseline, core::Scheme::kWiraFF, core::Scheme::kWiraHx,
    core::Scheme::kWira};
/// Simulated twins of the viewers timed in a traced run, and how many of
/// them are also wired by hand.
constexpr size_t kTwinSessions = 400;
constexpr size_t kTwinWired = 64;
// Same constants as wira_loadgen / wira_proxyd.
constexpr uint64_t kServerId = 7;
constexpr double kCookieShare = 0.93;
constexpr double kZeroRttShare = 0.90;

struct Endpoint {
  core::Scheme scheme = core::Scheme::kBaseline;
  std::string addr;
  uint16_t port = 0;
};

/// One perfbench_proxyd process: spawned with a port file, stopped with
/// SIGTERM, reaped with wait4.  The destructor kills and reaps a proxyd
/// that was never stopped.
class Proxyd {
 public:
  struct Exit {
    bool clean = false;
    double cpu_s = 0;
    double maxrss_kb = 0;
    double lifetime_s = 0;  ///< port file ready -> reaped
    uint64_t served = 0;
    uint64_t datagrams = 0;
    uint64_t allocs = 0;
  };

  Proxyd(const RunArgs& args, int n)
      : ports_(args.run_dir + "/ports." + std::to_string(n)),
        log_(args.run_dir + "/proxyd." + std::to_string(n) + ".log") {
    ::unlink(ports_.c_str());
    std::vector<std::string> argv_s = {args.proxyd, "--listen", "0",
                                       "--port-file", ports_};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int log_fd =
        ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log_fd < 0) throw std::runtime_error("cannot create " + log_);
    const int64_t t0 = now_ns();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Only async-signal-safe calls until exec.
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    if (pid_ < 0) throw std::runtime_error("fork failed");
    // Ready once the port file lists every scheme.
    while (now_ns() - t0 < seconds(20)) {
      if (read_ports()) break;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("wira_proxyd exited at start-up (" + log_ +
                                 ")");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (endpoints_.size() != kSchemes) {
      throw std::runtime_error("wira_proxyd wrote no port file");
    }
    ready_ns_ = now_ns();
    startup_s_ = static_cast<double>(ready_ns_ - t0) / 1e9;
  }

  ~Proxyd() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
  Proxyd(const Proxyd&) = delete;
  Proxyd& operator=(const Proxyd&) = delete;

  double startup_s() const { return startup_s_; }
  const std::vector<Endpoint>& endpoints() const { return endpoints_; }

  /// CPU seconds proxyd has run so far (/proc/<pid>/schedstat, ns).
  double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/schedstat");
    double ns = 0;
    in >> ns;
    return ns / 1e9;
  }

  Exit stop() {
    Exit out;
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    pid_t got = 0;
    const int64_t t0 = now_ns();
    while ((got = ::wait4(pid_, &status, WNOHANG, &ru)) == 0 &&
           now_ns() - t0 < seconds(10)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool exited = got == pid_;
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &ru);
    }
    pid_ = -1;
    out.lifetime_s = static_cast<double>(now_ns() - ready_ns_) / 1e9;
    out.cpu_s =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    out.maxrss_kb = static_cast<double>(ru.ru_maxrss);
    std::ifstream log(log_);
    std::string line;
    bool served_line = false;
    while (std::getline(log, line)) {
      unsigned long long a = 0;
      unsigned long long b = 0;
      if (std::sscanf(line.c_str(),
                      "wira_proxyd: served %llu session(s), %llu datagram(s)",
                      &a, &b) == 2) {
        out.served = a;
        out.datagrams = b;
        served_line = true;
      } else if (std::sscanf(line.c_str(),
                             "perfbench_proxyd: heap_allocs %llu", &a) == 1) {
        out.allocs = a;
      }
    }
    out.clean = exited && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                served_line;
    return out;
  }

 private:
  bool read_ports() {
    std::ifstream in(ports_);
    if (!in) return false;
    std::stringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    if (std::count(s.begin(), s.end(), '\n') < static_cast<long>(kSchemes)) {
      return false;
    }
    std::istringstream lines(s);
    std::string token;
    std::string ep;
    std::vector<Endpoint> eps;
    while (lines >> token >> ep) {
      Endpoint e;
      const size_t colon = ep.rfind(':');
      if (!core::scheme_from_token(token.c_str(), &e.scheme) ||
          colon == std::string::npos) {
        return false;
      }
      e.addr = ep.substr(0, colon);
      e.port = static_cast<uint16_t>(std::stoi(ep.substr(colon + 1)));
      eps.push_back(e);
    }
    if (eps.size() != kSchemes) return false;
    endpoints_ = std::move(eps);
    return true;
  }

  std::string ports_;
  std::string log_;
  pid_t pid_ = -1;
  int64_t ready_ns_ = 0;
  double startup_s_ = 0;
  std::vector<Endpoint> endpoints_;
};

/// The Hx_QoS history a returning loopback viewer carries (wira_loadgen's
/// loopback_cookie): a fast, short path.
core::HxQosRecord loopback_cookie(uint64_t od_key, TimeNs sealed_at) {
  core::HxQosRecord rec;
  rec.min_rtt = milliseconds(1);
  rec.max_bw = mbps(500);
  rec.server_timestamp = sealed_at;
  rec.od_key = od_key;
  return rec;
}

/// When the viewer due in the arrival slot starting at `slot` arrives:
/// just after the media tag that opens the slot's longest tag-free
/// stretch.  A join that lands within ~20 us before a tag's pts stalls
/// that viewer's first frame for good: the tag's live-tail delivery (pts +
/// origin latency) overtakes the join burst, which is serialized over the
/// origin link first.  The simulator shows the same stall (about 1 join
/// in 1000 at random times), so the generator steers clear of it instead
/// of reporting one known defect in most runs; a 1-RTT handshake or a
/// busy loop now has to delay a join by a whole quiet stretch to hit it.
TimeNs quiet_arrival(TimeNs slot) {
  // Tags of this slot and the next, so the slot's last stretch has an end.
  const std::vector<media::StreamChunk> tags =
      kProxydStream.chunks_between(slot, slot + 2 * kArrivalInterval);
  TimeNs best = slot;
  TimeNs longest = -1;
  for (size_t k = 0; k + 1 < tags.size(); ++k) {
    if (tags[k].pts > slot + kArrivalInterval) break;
    const TimeNs stretch = tags[k + 1].pts - tags[k].pts;
    if (stretch > longest) {
      longest = stretch;
      best = tags[k].pts + microseconds(50);
    }
  }
  return best;
}

struct Viewer {
  size_t index = 0;
  const Endpoint* endpoint = nullptr;
  bool cookie = false;
  bool zero_rtt = false;
  TimeNs due = 0;           ///< scheduled arrival (CLOCK_MONOTONIC)
  TimeNs started = kNoTime;
  TimeNs ff_done = kNoTime;
  bool closed = false;
  net::UdpSocket sock;
  app::ClientCache cache;
  std::optional<app::PlayerClient> client;
};

/// Span kinds of the generator's receive path.
enum GenSpan : size_t { kGenRx, kGenClientRx, kGenSend };

struct Window {
  size_t viewers = 0;
  size_t started = 0;
  size_t completed = 0;
  std::vector<double> ffct_ms;
  std::vector<double> lag_ms;
  std::vector<double> first_byte_ms;
  std::vector<double> frame_recv_ms;
  uint64_t packets_received = 0;
  uint64_t ptos = 0;
  uint64_t stream_bytes = 0;
  uint64_t retransmitted_bytes = 0;
  uint64_t ports_skipped = 0;
  double active_s = 0;  ///< first arrival -> last first-frame completion
  /// proxyd CPU seconds per one-second interval once every session's live
  /// tail is running (steady state).
  std::vector<double> steady_cpu_s;
  double gen_cpu_s = 0;
  SpanClock spans;
  Proxyd::Exit proxyd;
};

/// Offers `seconds` of arrivals to `proxyd`, waits for the stragglers,
/// then stops proxyd.
void run_window(Proxyd& proxyd, double seconds_offered, uint64_t seed,
                bool traced, Window& w, RunResult& result) {
  sim::EventLoop loop;
  net::EpollRuntime runtime(loop);
  if (!runtime.ok()) throw std::runtime_error(runtime.error());
  runtime.sync_now();
  const net::MonotonicClock mono;
  core::CookieSealer sealer(crypto::key_from_string("wira-server-7"));
  const std::vector<uint8_t> scid = {0x57, 0x49, 0x52, 0x41};  // "WIRA"
  wira::Rng rng(seed);

  const TimeNs interval = kArrivalInterval;
  w.viewers = static_cast<size_t>(from_seconds(seconds_offered) / interval);
  const TimeNs first_due = net::MonotonicClock::raw_now() + milliseconds(20);
  std::vector<std::unique_ptr<Viewer>> viewers;
  TimeNs last_done = first_due;
  std::unordered_set<uint16_t> used_ports;
  const double cpu0 = usage_now().self_cpu_s;

  size_t closed = 0;
  auto close_viewer = [&](Viewer* v) {
    if (v->closed) return;
    v->closed = true;
    ++closed;
    v->client->connection().close(0, "zap");
    runtime.remove_fd(v->sock.fd());
    v->sock.close();
  };

  auto start_viewer = [&](Viewer* v) {
    v->started = net::MonotonicClock::raw_now();
    w.lag_ms.push_back(to_ms(v->started - v->due));
    // Each viewer must be a new peer to proxyd, which keys sessions by
    // source address and never forgets one; the kernel's random ephemeral
    // ports repeat within a few hundred sockets, so skip ports already
    // used (holding the skipped sockets until a fresh port turns up).
    std::vector<net::UdpSocket> skipped;
    for (;;) {
      std::string error;
      net::UdpSocket sock;
      if (!sock.open_connected(v->endpoint->addr, v->endpoint->port,
                               &error)) {
        result.check(false, "viewer socket: " + error);
        v->closed = true;
        ++closed;
        return;
      }
      if (used_ports.insert(sock.local_port()).second) {
        // One generator thread drains every viewer; with the default
        // 208 KB receive buffer a join burst overflows it now and then,
        // adding generator-made loss to the FFCT tail.
        ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVBUF, &kViewerRcvbuf,
                     sizeof kViewerRcvbuf);
        v->sock = std::move(sock);
        break;
      }
      ++w.ports_skipped;
      skipped.push_back(std::move(sock));
    }
    ++w.started;
    const uint64_t client_id = v->index + 1;
    const uint64_t od_key = core::od_pair_key(client_id, kServerId, 0);
    if (v->zero_rtt) v->cache.server_configs[kServerId] = scid;
    if (v->cookie) {
      const TimeNs sealed_at = net::MonotonicClock::raw_now();
      v->cache.cookies.store(
          od_key, sealer.seal(loopback_cookie(od_key, sealed_at)), sealed_at);
    }
    app::ClientConfig cfg;
    cfg.client_id = client_id;
    cfg.server_id = kServerId;
    cfg.network_type = 0;
    cfg.track_frames = 1;
    v->client.emplace(loop, cfg, v->cache, [v, &loop, &w, traced](
                                               std::vector<uint8_t> dgram) {
      if (traced) {
        w.spans.span(kGenSend, [&] { v->sock.send(dgram); });
      } else {
        v->sock.send(dgram);
      }
      loop.buffers().release(std::move(dgram));
    });
    v->client->connection().set_clock(&mono);
    v->client->set_on_frame_complete([v, &w, &loop, &last_done,
                                      &close_viewer](uint32_t frame) {
      if (frame != 1 || v->ff_done != kNoTime) return;
      v->ff_done = net::MonotonicClock::raw_now();
      last_done = std::max(last_done, v->ff_done);
      ++w.completed;
      // Close outside the connection's own receive path.
      loop.schedule_in(0, [v, &close_viewer] { close_viewer(v); });
    });
    runtime.add_fd(v->sock.fd(), [v, &w, traced](uint32_t) {
      auto drain = [&] {
        uint8_t buf[65536];
        for (;;) {
          const ssize_t n = v->sock.recv_from(buf, sizeof buf, nullptr);
          if (n < 0) return;
          const std::span<const uint8_t> dgram(buf, static_cast<size_t>(n));
          if (traced) {
            w.spans.span(kGenClientRx, [&] { v->client->on_datagram(dgram); });
          } else {
            v->client->on_datagram(dgram);
          }
        }
      };
      if (traced) {
        w.spans.span(kGenRx, drain);
      } else {
        drain();
      }
    });
    v->client->start();
  };

  for (size_t i = 0; i < w.viewers; ++i) {
    auto v = std::make_unique<Viewer>();
    v->index = i;
    v->endpoint = &proxyd.endpoints()[i % kSchemes];
    // wira_loadgen's draw order: cookie, then 0-RTT.
    v->cookie = rng.chance(kCookieShare);
    v->zero_rtt = rng.chance(kZeroRttShare);
    v->due = quiet_arrival(first_due + static_cast<TimeNs>(i) * interval);
    Viewer* raw = v.get();
    loop.schedule_at(v->due, [raw, &start_viewer] { start_viewer(raw); });
    viewers.push_back(std::move(v));
  }
  // proxyd keeps muxing each session's live tail for the stream horizon,
  // closed or not, so its load is steady from one horizon after the first
  // arrival until the last arrival.  Sample its CPU every second there.
  const TimeNs last_due =
      first_due + static_cast<TimeNs>(w.viewers) * interval;
  const TimeNs steady_from = first_due + app::ServerConfig{}.stream_horizon;
  double cpu_mark = 0;
  std::function<void(TimeNs)> sample_cpu = [&](TimeNs at) {
    const double cpu = proxyd.cpu_s();
    if (at > steady_from) w.steady_cpu_s.push_back(cpu - cpu_mark);
    cpu_mark = cpu;
    if (at + seconds(1) <= last_due) {
      loop.schedule_at(at + seconds(1),
                       [&sample_cpu, at] { sample_cpu(at + seconds(1)); });
    }
  };
  if (steady_from < last_due) {
    loop.schedule_at(steady_from, [&sample_cpu, steady_from] {
      sample_cpu(steady_from);
    });
  }
  const TimeNs give_up = last_due + kViewerTimeout;
  runtime.run(
      [&] {
        return closed == w.viewers ||
               net::MonotonicClock::raw_now() >= give_up;
      },
      20);
  w.gen_cpu_s = usage_now().self_cpu_s - cpu0;
  w.active_s = to_seconds(last_done - first_due);
  w.proxyd = proxyd.stop();

  for (const auto& v : viewers) {
    if (!v->client) continue;
    const app::PlayerClient::Metrics& m = v->client->metrics();
    const quic::ConnStats& st = v->client->connection().stats();
    w.packets_received += st.packets_received;
    w.ptos += st.ptos_fired;
    w.stream_bytes += st.stream_bytes_sent;
    w.retransmitted_bytes += st.stream_bytes_retransmitted;
    if (v->ff_done == kNoTime) {
      result.note("unfinished_viewer_" + std::to_string(v->index),
                  std::string(core::scheme_token(v->endpoint->scheme)) +
                      (v->zero_rtt ? " 0-RTT" : " 1-RTT") +
                      (v->cookie ? " cookie" : "") + ", sent " +
                      std::to_string(st.packets_sent) + ", received " +
                      std::to_string(st.packets_received) + ", ptos " +
                      std::to_string(st.ptos_fired) + ", stream bytes " +
                      std::to_string(m.total_bytes_received));
      continue;
    }
    w.ffct_ms.push_back(to_ms(v->ff_done - v->due));
    if (m.first_byte_at != kNoTime) {
      w.first_byte_ms.push_back(to_ms(m.first_byte_at - v->due));
      w.frame_recv_ms.push_back(to_ms(v->ff_done - m.first_byte_at));
    }
  }
  result.check_many(w.viewers, w.viewers - w.completed,
                    "viewers whose first frame did not complete in time");
  result.check(w.proxyd.clean, "wira_proxyd did not exit cleanly");
  result.check(w.proxyd.served == w.started,
               "proxyd served " + std::to_string(w.proxyd.served) +
                   " sessions, generator started " +
                   std::to_string(w.started));
}

/// wira_loadgen's loopback-approximating sim path (--sim-compare).
sim::PathConfig loopback_path() {
  sim::PathConfig p;
  p.bandwidth = mbps(5000);
  p.reverse_bandwidth = mbps(5000);
  p.rtt = microseconds(200);
  p.buffer_bytes = 4 * 1024 * 1024;
  p.loss_rate = 0;
  return p;
}

void run_untraced(const RunArgs& args, RunResult& result) {
  std::vector<double> startup;
  for (int k = 0; k + 1 < kSetupProbes; ++k) {
    Proxyd probe(args, k);
    startup.push_back(probe.startup_s());
    result.check(probe.stop().clean,
                 "set-up probe proxyd did not exit cleanly");
  }
  Proxyd proxyd(args, kSetupProbes);
  startup.push_back(proxyd.startup_s());
  Window w;
  run_window(proxyd, args.seconds, args.seed, false, w, result);

  const double served = std::max<double>(1, w.proxyd.served);
  result.add("setup_s", median(startup), "s");
  result.add("sessions_per_s",
             static_cast<double>(w.completed) / std::max(w.active_s, 1e-9),
             "1/s");
  // Steady-state CPU per arriving session (median over one-second
  // intervals, robust to bursts of co-tenant load); runs too short to
  // reach steady state fall back to proxyd's lifetime CPU per session.
  result.add("cpu_us_per_session",
             w.steady_cpu_s.size() >= 5
                 ? median(w.steady_cpu_s) * 1e6 * to_seconds(kArrivalInterval)
                 : w.proxyd.cpu_s * 1e6 / served,
             "us");
  result.note("proxyd_lifetime_cpu_us_per_session",
              w.proxyd.cpu_s * 1e6 / served);
  result.note("steady_cpu_samples",
              static_cast<double>(w.steady_cpu_s.size()));
  result.add("allocs_per_session",
             static_cast<double>(w.proxyd.allocs) / served, "count");
  result.add("peak_rss_mb", w.proxyd.maxrss_kb / 1024.0, "MB");
  result.add("ffct_p50_ms", median(w.ffct_ms), "ms");
  result.add("ffct_p90_ms", percentile(w.ffct_ms, kTailPercentile), "ms");
  result.note("viewers", static_cast<double>(w.viewers));
  result.note("ffct_samples", static_cast<double>(w.ffct_ms.size()));
  result.note("gen_lag_ms_p90", percentile(w.lag_ms, kTailPercentile));
  result.note("source_ports_skipped", static_cast<double>(w.ports_skipped));
  result.note("proxyd_cpu_share", w.proxyd.cpu_s / w.proxyd.lifetime_s);
}

void run_traced(const RunArgs& args, RunResult& result) {
  // Two live windows, each against a fresh proxyd: untraced, then with
  // spans around the generator's receive path.
  Window plain;
  {
    Proxyd proxyd(args, 0);
    run_window(proxyd, args.seconds / 2, args.seed, false, plain, result);
  }
  Window w;
  {
    Proxyd proxyd(args, 1);
    run_window(proxyd, args.seconds / 2, args.seed, true, w, result);
  }

  // Simulated twins of the viewers (wira_loadgen --sim-compare): time the
  // sim layers, the record codec and the fold on this workload's sessions.
  WiredStats wired;
  MediaStats media;
  CodecStats codec;
  std::vector<double> session_ms;
  int64_t fold_ns = 0;
  obs::MetricsRegistry registry;
  wira::Rng rng(args.seed);
  wira::Rng join_rng(mix_seed(args.seed, 55));
  const app::ServerConfig server_defaults;
  for (size_t i = 0; i < kTwinSessions; ++i) {
    exp::SessionConfig cfg;
    cfg.path = loopback_path();
    cfg.scheme = kSchemeOrder[i % kSchemes];
    const bool cookie = rng.chance(kCookieShare);
    cfg.zero_rtt = rng.chance(kZeroRttShare);
    cfg.seed = i + 1;
    if (cookie) cfg.cookie = loopback_cookie(0, TimeNs{0});
    cfg.origin_latency = server_defaults.origin_latency;
    cfg.track_frames = 1;
    if (i < kTwinWired) wired_and_checked(cfg, wired, result);
    const int64_t t0 = now_ns();
    exp::SessionRecord rec;
    rec.results.emplace(cfg.scheme, exp::run_session(cfg));
    session_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    codec_round_trip(rec, codec, result);
    const int64_t f0 = now_ns();
    exp::record_session_metrics(registry, rec, false);
    fold_ns += now_ns() - f0;
    if (i < kTwinWired) {
      const TimeNs join = from_seconds(join_rng.uniform(60.0, 7200.0));
      replay_media(media::StreamProfile{}, 42, join,
                   join + server_defaults.stream_horizon,
                   server_defaults.stream_horizon, media, result);
    }
  }
  double seal_us = 0;
  double open_us = 0;
  probe_cookie(result, &seal_us, &open_us);

  const double viewers = std::max<double>(1, w.started);
  const double served = std::max<double>(1, w.proxyd.served);
  const double records = std::max<double>(1, codec.records);
  result.add("exp.session_ms_p50", median(session_ms), "ms");
  result.add("exp.session_ms_p90", percentile(session_ms, kTailPercentile),
             "ms");
  result.add("exp.fold_us_per_record",
             static_cast<double>(fold_ns) / 1e3 / records, "us");
  // No population dispatch here: one generator thread, one proxyd.
  result.add("exp.dispatch_idle_share", 0, "ratio");
  result.add("exp.worker_sessions_spread", 1, "ratio");
  result.add("exp.codec_bytes_per_record",
             static_cast<double>(codec.bytes) / records, "bytes");
  result.add("exp.codec_us_per_record",
             static_cast<double>(codec.ns) / 1e3 / records, "us");
  add_media_metrics(media, result);
  result.add("core.cookie_open_us", open_us, "us");
  result.add("core.cookie_seal_us", seal_us, "us");
  result.add("app.client_rx_us_per_session",
             static_cast<double>(w.spans.self_ns(kGenClientRx)) / 1e3 /
                 viewers,
             "us");
  add_wired_metrics(wired, result);
  result.add("quic.packets_per_session",
             static_cast<double>(w.packets_received) / viewers, "count");
  result.add("quic.retransmit_ratio",
             static_cast<double>(w.retransmitted_bytes) /
                 std::max<double>(1, w.stream_bytes),
             "ratio");
  result.add("quic.ptos_per_session", static_cast<double>(w.ptos) / viewers,
             "count");
  // proxyd attaches neither the flight recorder nor metrics collection.
  result.add("obs.recorder_overhead", 0, "ratio");
  result.add("obs.metrics_overhead", 0, "ratio");
  result.add("app.first_byte_ms_p50", median(w.first_byte_ms), "ms");
  result.add("app.frame_recv_ms_p50", median(w.frame_recv_ms), "ms");
  result.add("proxyd.cpu_share", w.proxyd.cpu_s / w.proxyd.lifetime_s,
             "ratio");
  result.add("proxyd.datagrams_per_session",
             static_cast<double>(w.proxyd.datagrams) / served, "count");
  result.add("proxyd.rss_kb_per_session", w.proxyd.maxrss_kb / served, "KB");
  result.add("net.gen_rx_us_per_session",
             static_cast<double>(w.spans.total_ns(kGenRx)) / 1e3 / viewers,
             "us");
  result.add("net.gen_lag_ms_p90", percentile(w.lag_ms, kTailPercentile),
             "ms");
  const double plain_cpu =
      plain.gen_cpu_s / std::max<double>(1, plain.started);
  result.add("trace_overhead", w.gen_cpu_s / viewers / plain_cpu - 1.0,
             "ratio");
  result.note("viewers_per_window", static_cast<double>(w.viewers));
  result.note("twin_sessions", static_cast<double>(kTwinSessions));
}

}  // namespace

void run_zap(const RunArgs& args, RunResult& result) {
  if (args.trace) {
    run_traced(args, result);
  } else {
    run_untraced(args, result);
  }
}

}  // namespace perfbench
