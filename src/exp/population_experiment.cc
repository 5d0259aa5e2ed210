#include "exp/population_experiment.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "exp/population_internal.h"
#include "exp/record_sink.h"
#include "exp/shard_dispatch.h"
#include "media/stream_source.h"
#include "obs/qlog.h"
#include "util/logging.h"

namespace wira::exp {

namespace {

std::string metric_name(const char* prefix, core::Scheme scheme) {
  std::string name(prefix);
  name += '.';
  name += core::scheme_name(scheme);
  return name;
}

}  // namespace

void record_session_metrics(obs::MetricsRegistry& m, const SessionRecord& rec,
                            bool include_phases) {
  for (const auto& [scheme, res] : rec.results) {
    m.inc(metric_name("sessions", scheme));
    if (!res.first_frame_completed) {
      m.inc(metric_name("first_frame_incomplete", scheme));
    } else {
      m.histogram(metric_name("ffct_us", scheme))
          .record(static_cast<uint64_t>(res.ffct / 1000));
      m.histogram(metric_name("fflr_ppm", scheme))
          .record(static_cast<uint64_t>(res.fflr * 1e6));
    }
    if (res.zero_rtt) m.inc(metric_name("zero_rtt", scheme));
    if (res.cwnd_fallback) {
      m.inc(metric_name("corner.cwnd_before_parse", scheme));
    }
    if (res.init.hx_stale) m.inc(metric_name("corner.stale_cookie", scheme));
    if (res.zero_rtt_rejected) {
      m.inc(metric_name("corner.zero_rtt_reject", scheme));
    }
    m.inc(metric_name("pto_fired", scheme), res.server_stats.ptos_fired);
    m.inc(metric_name("packets_sent", scheme),
          res.server_stats.packets_sent);
    m.inc(metric_name("packets_lost", scheme),
          res.server_stats.packets_lost);
    m.inc(metric_name("cookies_synced", scheme), res.cookies_synced);
    if (include_phases) {
      for (const obs::PhaseSpan& span : res.phases) {
        std::string name = "phase.";
        name += span.name;
        name += "_us.";
        name += core::scheme_name(scheme);
        m.histogram(name).record(
            static_cast<uint64_t>(span.duration() / 1000));
      }
    }
  }
  // Folded from the record (not counted at the failing open) so serial,
  // threaded, multiprocess and salvage-retry runs all agree exactly.
  if (rec.trace_open_failures > 0) {
    m.inc("trace.open_failed", rec.trace_open_failures);
  }
  // Flight-recorder anomaly triggers, by trigger kind (exported by
  // wira_exporterd as wira_anomaly_dumps_total{trigger=...}).
  if (rec.anomaly_stall_dumps > 0) {
    m.inc("anomaly.dumps.stall", rec.anomaly_stall_dumps);
  }
  if (rec.anomaly_corner_dumps > 0) {
    m.inc("anomaly.dumps.corner_case", rec.anomaly_corner_dumps);
  }
  if (rec.anomaly_decode_dumps > 0) {
    m.inc("anomaly.dumps.decode_error", rec.anomaly_decode_dumps);
  }
  if (rec.anomaly_ffct_dumps > 0) {
    m.inc("anomaly.dumps.ffct", rec.anomaly_ffct_dumps);
  }
}

namespace {

// ---- flight-recorder anomaly path (DESIGN.md §7) ------------------------

enum class AnomalyTrigger { kNone, kStall, kCornerCase, kDecodeError, kFfct };

/// The anomaly trigger (if any) for one completed (session, scheme) run:
/// the highest-priority condition wins, so each run yields at most one
/// dump with an unambiguous label.  Pure function of the session — every
/// execution mode (serial / threads / procs / salvage-retry) computes the
/// same triggers, which is what keeps records byte-identical.
AnomalyTrigger anomaly_trigger(const PopulationConfig& config,
                               const obs::FlightRecorder& fr,
                               const SessionResult& res) {
  if (fr.count(trace::EventType::kStallObserved) > 0) {
    return AnomalyTrigger::kStall;
  }
  if (res.cwnd_fallback || res.init.hx_stale || res.zero_rtt_rejected ||
      fr.count(trace::EventType::kCornerCase) > 0) {
    return AnomalyTrigger::kCornerCase;
  }
  if (res.server_stats.packets_undecodable > 0 ||
      fr.count(trace::EventType::kDecodeError) > 0) {
    return AnomalyTrigger::kDecodeError;
  }
  if (config.anomaly_ffct != kNoTime &&
      (!res.first_frame_completed || res.ffct > config.anomaly_ffct)) {
    return AnomalyTrigger::kFfct;
  }
  return AnomalyTrigger::kNone;
}

/// Materializes the triggering session's rings as a standard paired qlog
/// sample under anomaly_dir — same naming and format as --trace-sample
/// artifacts, so wira_trace_join joins anomaly dumps unchanged.  File
/// I/O failures warn and drop the dump (never the sweep); the trigger
/// counter was already taken, so counters stay deterministic.
void write_anomaly_dump(const PopulationConfig& config,
                        const obs::FlightRecorder& fr,
                        const std::string& name) {
  const std::string base = config.anomaly_dir + "/" + name;
  std::ofstream server_os(base + ".server.sqlog", std::ios::trunc);
  std::ofstream client_os(base + ".client.sqlog", std::ios::trunc);
  if (!server_os || !client_os) {
    WIRA_WARN("population",
              "cannot open anomaly dump " + base + ".{server,client}.sqlog");
    return;
  }
  fr.write_sqlog_pair(server_os, client_os, name);
}

// ---- crash forensics (multiprocess workers, DESIGN.md §7) ---------------
//
// A worker child dying on a fatal signal dumps the in-flight session's
// recorder rings to a pre-opened fd before re-raising, so PR 5's "killed
// by signal N while on session i" diagnosis comes with the victim's event
// history.  Everything the handler touches is async-signal-safe:
// lock-free atomics, raw write(2) via FlightRecorder::crash_dump, no
// allocation, no locks, no stdio.  The globals are per-process state;
// only workers that own their process (forked children, wira_workerd)
// arm the handler, so the parent and its worker threads never take
// this path.

struct CrashForensics {
  std::atomic<int> fd{-1};  ///< pre-opened dump fd; -1 = disarmed
  std::atomic<const obs::FlightRecorder*> recorder{nullptr};
  std::atomic<uint64_t> session_index{0};
  std::atomic<uint32_t> scheme{0};
};
CrashForensics g_crash;

extern "C" void wira_crash_signal_handler(int sig) {
  const int fd = g_crash.fd.load(std::memory_order_acquire);
  const obs::FlightRecorder* rec =
      g_crash.recorder.load(std::memory_order_acquire);
  if (fd >= 0 && rec != nullptr) {
    (void)rec->crash_dump(
        fd, g_crash.session_index.load(std::memory_order_acquire),
        g_crash.scheme.load(std::memory_order_acquire));
  }
  // Re-raise with the default disposition so the parent's waitpid sees
  // the true terminating signal.
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

namespace internal {

/// Arms the fatal-signal dump in a worker (forked pipe child or a
/// wira_workerd serving a connection): pre-opens the raw dump file (the
/// only step that may allocate — it happens before any session runs) and
/// installs the handler for the fatal-by-default signals.
void arm_crash_forensics(const PopulationConfig& config, size_t worker,
                         const obs::FlightRecorder* recorder) {
  // Disarm any previous arming first (wira_workerd re-arms per
  // connection); the stale fd would otherwise leak per sweep.
  const int prev = g_crash.fd.exchange(-1, std::memory_order_acq_rel);
  if (prev >= 0) ::close(prev);
  g_crash.recorder.store(nullptr, std::memory_order_release);
  if (!config.flight_recorder || config.anomaly_dir.empty()) return;
  const std::string path =
      config.anomaly_dir + "/crash_worker_" + std::to_string(worker) + ".bin";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    WIRA_WARN("population", "cannot pre-open crash dump " + path +
                                "; worker runs without signal forensics");
    return;
  }
  g_crash.recorder.store(recorder, std::memory_order_release);
  g_crash.fd.store(fd, std::memory_order_release);
  struct sigaction sa = {};
  sa.sa_handler = wira_crash_signal_handler;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

}  // namespace internal

namespace {

/// Tags the recorder state the handler would dump (cheap atomic stores;
/// called per (session, scheme) before the run so a mid-session crash is
/// attributed to the right pair).
void note_crash_session(size_t i, core::Scheme scheme) {
  g_crash.session_index.store(i, std::memory_order_relaxed);
  g_crash.scheme.store(static_cast<uint32_t>(scheme),
                       std::memory_order_release);
}

}  // namespace

namespace internal {

/// Parent side: reads each worker's raw crash-dump file (if its handler
/// wrote one), materializes it as a joinable
/// crash_session_<i>_<scheme>.{server,client}.sqlog pair, counts it as
/// `anomaly.dumps.crash`, and removes the raw file.  Records are never
/// touched, so salvage/retry output stays byte-identical to serial.
void materialize_crash_dumps(const PopulationConfig& config, size_t workers,
                             obs::MetricsRegistry* metrics) {
  if (!config.flight_recorder || config.anomaly_dir.empty()) return;
  for (size_t w = 0; w < workers; ++w) {
    const std::string path =
        config.anomaly_dir + "/crash_worker_" + std::to_string(w) + ".bin";
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) continue;  // worker never armed, or nothing pre-opened
    if (size > 0) {
      std::ifstream in(path, std::ios::binary);
      obs::FlightRecorder::CrashDump dump;
      std::string error;
      if (in && obs::FlightRecorder::read_crash_dump(in, &dump, &error)) {
        std::string name = "crash_session_";
        name += std::to_string(dump.session_index);
        name += '_';
        name += core::scheme_name(static_cast<core::Scheme>(dump.scheme));
        const std::string base = config.anomaly_dir + "/" + name;
        std::ofstream server_os(base + ".server.sqlog", std::ios::trunc);
        std::ofstream client_os(base + ".client.sqlog", std::ios::trunc);
        if (server_os && client_os) {
          obs::write_sqlog_pair(server_os, client_os, name,
                                dump.server_events, dump.client_events);
          WIRA_WARN("population", "crash forensics: worker " +
                                      std::to_string(w) + " left " + base +
                                      ".{server,client}.sqlog");
          if (metrics) metrics->inc("anomaly.dumps.crash");
        }
      } else {
        WIRA_WARN("population",
                  "crash forensics: cannot parse " + path + ": " + error);
      }
    }
    std::filesystem::remove(path, ec);
  }
}

/// Simulates session `i` of the population sweep.  All randomness derives
/// from (config.seed, i) and `population` is read-only, so sessions are
/// independent: every worker (thread, forked child, wira_workerd) calls
/// this and the result is identical to the serial loop.  `ws` is the caller's recycled
/// session machinery (one per worker): reusing it across sessions is what
/// keeps steady-state heap allocations bounded (DESIGN.md §6).
SessionRecord run_one_session(const PopulationConfig& config,
                              const popgen::Population& population,
                              size_t i, SessionWorkspace& ws) {
  if (i == config.fail_at_index) {
    throw std::runtime_error("injected failure at session " +
                             std::to_string(i));
  }
  Rng rng(config.seed ^ (0x5DEECE66Dull * (i + 1)));
  const popgen::OdPair od = population.random_od(rng);

  // Session timeline: the previous session happened `gap` before now;
  // the absolute epoch is randomized for drift-phase diversity.
  const TimeNs gap = popgen::Population::sample_session_gap(rng);
  const TimeNs prev_time = from_seconds(rng.uniform(60.0, 7200.0));
  const TimeNs start_time = prev_time + gap;

  const popgen::PathSample prev = od.sample(prev_time, rng);
  const popgen::PathSample now = od.sample(start_time, rng);

  SessionRecord rec;
  rec.conditions = now;
  rec.cookie_age = gap;
  rec.zero_rtt = rng.chance(config.p_zero_rtt);
  rec.had_cookie = rng.chance(config.p_cookie);

  SessionConfig base;
  base.path = popgen::OdPair::to_path_config(now);
  base.cc_algo = config.cc_algo;
  base.seed = rng.next() | 1;
  base.stream = media::sample_stream_profile(rng, i + 1);
  base.stream.container = config.container;
  base.corpus_seed = config.seed * 1000 + 99;
  base.start_time = start_time;
  base.theta_vf = config.theta_vf;
  base.zero_rtt = rec.zero_rtt;
  base.defaults = config.defaults;
  base.staleness_threshold = config.staleness_threshold;
  base.sync_period = config.sync_period;
  base.careful_resume = config.careful_resume;
  if (rec.had_cookie) {
    core::HxQosRecord cookie;
    cookie.min_rtt = prev.min_rtt;
    // The previous session's MaxBW is BBR's estimate from an
    // app-limited live flow: it saturates the path only during the join
    // burst, so it tends to *under*-estimate the true capacity.
    cookie.max_bw = static_cast<Bandwidth>(
        static_cast<double>(prev.max_bw) * rng.uniform(0.65, 1.0));
    cookie.server_timestamp = prev_time;
    // Extension triple: the loss the previous session experienced.
    cookie.loss_rate = prev.loss_rate * rng.uniform(0.7, 1.3);
    base.cookie = cookie;
  }

  // What a user-group model would predict for this client (§II-C).
  const auto ug = population.group_average_qos(od.group_id());
  core::HxQosRecord ug_qos;
  ug_qos.min_rtt = ug.mean_rtt;
  ug_qos.max_bw = ug.mean_bw;
  ug_qos.server_timestamp = start_time;
  base.ug_qos = ug_qos;

  const bool sampled =
      config.trace_sample > 0 && i % config.trace_sample == 0;
  for (core::Scheme scheme : config.schemes) {
    SessionConfig cfg = base;
    cfg.scheme = scheme;
    cfg.collect_phases = config.collect_metrics;
    if (config.flight_recorder) {
      cfg.recorder = &ws.flight_recorder();
      note_crash_session(i, scheme);
    }
    trace::Tracer qlog_tracer;
    trace::Tracer client_qlog_tracer;
    std::ofstream qlog;
    std::ofstream client_qlog;
    std::optional<obs::QlogStreamWriter> qlog_writer;
    std::optional<obs::QlogStreamWriter> client_qlog_writer;
    if (sampled) {
      // One deterministic *pair* of files per (session, scheme) — the
      // server and client vantage points of the same session, correlated
      // by a shared group_id (obs/trace_join.h joins them).  Workers never
      // share a stream, so sampling is parallel-safe.  The dumps are
      // standard qlog (draft-ietf-quic-qlog written as JSONL, obs/qlog.h).
      std::string name = "session_";
      name += std::to_string(i);
      name += '_';
      name += core::scheme_name(scheme);
      const std::string base_path = config.trace_dir + "/" + name;
      // A sampled session must never be *silently* untraced: name the
      // file, run that vantage untraced, and surface each miss as the
      // trace.open_failed counter (a broken dir counts both vantages).
      const std::string server_path = base_path + ".server.sqlog";
      qlog.open(server_path, std::ios::trunc);
      if (qlog) {
        qlog_writer.emplace(
            qlog, obs::paired_trace_info(name, obs::QlogVantage::kServer));
        qlog_tracer.add_sink(&*qlog_writer);
        cfg.tracer = &qlog_tracer;
      } else {
        WIRA_WARN("population",
                  "cannot open qlog sample " + server_path +
                      ": server vantage runs untraced");
        rec.trace_open_failures++;
      }
      const std::string client_path = base_path + ".client.sqlog";
      client_qlog.open(client_path, std::ios::trunc);
      if (client_qlog) {
        client_qlog_writer.emplace(
            client_qlog,
            obs::paired_trace_info(name, obs::QlogVantage::kClient));
        client_qlog_tracer.add_sink(&*client_qlog_writer);
        cfg.client_tracer = &client_qlog_tracer;
      } else {
        WIRA_WARN("population",
                  "cannot open qlog sample " + client_path +
                      ": client vantage runs untraced");
        rec.trace_open_failures++;
      }
    }
    const auto emplaced = rec.results.emplace(scheme, run_session(cfg, ws));
    if (config.flight_recorder) {
      const SessionResult& res = emplaced.first->second;
      const AnomalyTrigger trigger =
          anomaly_trigger(config, ws.flight_recorder(), res);
      if (trigger != AnomalyTrigger::kNone) {
        switch (trigger) {
          case AnomalyTrigger::kStall: rec.anomaly_stall_dumps++; break;
          case AnomalyTrigger::kCornerCase: rec.anomaly_corner_dumps++; break;
          case AnomalyTrigger::kDecodeError: rec.anomaly_decode_dumps++; break;
          case AnomalyTrigger::kFfct: rec.anomaly_ffct_dumps++; break;
          case AnomalyTrigger::kNone: break;
        }
        // File materialization is capped per worker and best-effort; the
        // counters above were already taken, so every execution mode
        // still produces byte-identical records.
        if (!config.anomaly_dir.empty() &&
            ws.anomaly_dumps_written < config.anomaly_max_dumps) {
          std::string name = "session_";
          name += std::to_string(i);
          name += '_';
          name += core::scheme_name(scheme);
          write_anomaly_dump(config, ws.flight_recorder(), name);
          ws.anomaly_dumps_written++;
        }
      }
    }
  }
  if (!rec.results.empty()) {
    rec.ff_size = rec.results.begin()->second.ff_size;
  }
  return rec;
}

bool write_all(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<size_t>(w);
    n -= static_cast<size_t>(w);
  }
  return true;
}

}  // namespace internal

namespace internal {

/// Shared sweep prologue: materialize the qlog sample directory.
/// Non-fatal on purpose — a broken trace destination degrades to untraced
/// sessions (warned + counted per open), never a dead sweep.  A relative
/// trace_dir (the "traces" default) silently lands wherever the process
/// happens to run, so name the absolute directory actually written to.
void prepare_trace_dir(const PopulationConfig& config) {
  if (config.trace_sample == 0) return;
  std::error_code ec;
  std::filesystem::create_directories(config.trace_dir, ec);
  if (ec) {
    WIRA_WARN("population", "cannot create trace dir " + config.trace_dir +
                                ": " + ec.message());
    return;
  }
  const std::filesystem::path dir(config.trace_dir);
  if (dir.is_relative()) {
    std::error_code abs_ec;
    const std::filesystem::path abs = std::filesystem::absolute(dir, abs_ec);
    WIRA_WARN("population",
              "trace_dir \"" + config.trace_dir +
                  "\" is relative; qlog samples will be written to " +
                  (abs_ec ? dir.string() : abs.string()));
  }
}

/// Same contract for the anomaly-dump directory (created in the parent so
/// forked worker children can pre-open crash files immediately).
void prepare_anomaly_dir(const PopulationConfig& config) {
  if (!config.flight_recorder || config.anomaly_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(config.anomaly_dir, ec);
  if (ec) {
    WIRA_WARN("population", "cannot create anomaly dir " +
                                config.anomaly_dir + ": " + ec.message() +
                                "; anomaly dumps will be dropped");
  }
}

}  // namespace internal

std::vector<SessionRecord> run_population(const PopulationConfig& config,
                                          obs::MetricsRegistry* metrics) {
  CollectSink sink(config.sessions);
  try {
    run_population(config, metrics, sink);
  } catch (PopulationShardError& e) {
    // The sweep salvages only what never reached the sink; the delivered
    // prefix [0, n) is this sink's.
    std::vector<SessionRecord> delivered = sink.take();
    std::move(delivered.begin(), delivered.end(), e.salvaged.begin());
    throw;
  }
  return sink.take();
}

void run_population(const PopulationConfig& config,
                    obs::MetricsRegistry* metrics, RecordSink& sink) {
  if (config.chunk == 0) {
    throw std::invalid_argument("run_population: chunk must be positive");
  }
  internal::prepare_trace_dir(config);
  internal::prepare_anomaly_dir(config);
  if (!config.workers.empty() ||
      clamp_threads(config.processes, config.sessions) > 1 ||
      clamp_threads(config.threads, config.sessions) > 1) {
    // Shard dispatch (exp/shard_dispatch): worker threads, pipe children
    // or TCP workerd endpoints behind one dynamic chunk dealer and
    // index-addressed reassembly.
    dispatch_population_stream(config, metrics, sink);
    return;
  }
  // The serial sweep: the reference every sharded run must match.
  popgen::Population population(config.seed * 31 + 7, config.num_groups);
  SessionWorkspace session_ws;
  for (size_t i = 0; i < config.sessions; ++i) {
    SessionRecord rec =
        internal::run_one_session(config, population, i, session_ws);
    if (metrics) record_session_metrics(*metrics, rec, config.collect_metrics);
    sink.on_record(i, std::move(rec));
  }
  sink.on_complete(config.sessions);
}

}  // namespace wira::exp
