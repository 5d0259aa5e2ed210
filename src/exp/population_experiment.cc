#include "exp/population_experiment.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "exp/population_internal.h"
#include "exp/record_sink.h"
#include "exp/shard_dispatch.h"
#include "media/stream_source.h"
#include "obs/qlog.h"
#include "util/logging.h"

namespace wira::exp {

namespace {

/// Every name the fold writes for one scheme: "<metric>.<scheme name>"
/// and "phase.<phase>_us.<scheme name>".
struct SchemeMetricNames {
  explicit SchemeMetricNames(core::Scheme scheme) {
    const std::string suffix = std::string(".") + core::scheme_name(scheme);
    for (std::string* name :
         {&sessions, &first_frame_incomplete, &ffct_us, &fflr_ppm, &zero_rtt,
          &cwnd_before_parse, &stale_cookie, &zero_rtt_reject, &pto_fired,
          &packets_sent, &packets_lost, &cookies_synced}) {
      *name += suffix;
    }
    for (size_t i = 0; i < obs::kNumPhases; ++i) {
      phases[i] = std::string("phase.") + obs::kPhaseNames[i] + "_us" + suffix;
    }
  }

  std::string sessions = "sessions";
  std::string first_frame_incomplete = "first_frame_incomplete";
  std::string ffct_us = "ffct_us";
  std::string fflr_ppm = "fflr_ppm";
  std::string zero_rtt = "zero_rtt";
  std::string cwnd_before_parse = "corner.cwnd_before_parse";
  std::string stale_cookie = "corner.stale_cookie";
  std::string zero_rtt_reject = "corner.zero_rtt_reject";
  std::string pto_fired = "pto_fired";
  std::string packets_sent = "packets_sent";
  std::string packets_lost = "packets_lost";
  std::string cookies_synced = "cookies_synced";
  std::array<std::string, obs::kNumPhases> phases;  ///< kPhaseNames order
};

/// The name table of `scheme`, built once per process, so a fold
/// allocates no names.
const SchemeMetricNames& metric_names(core::Scheme scheme) {
  static const std::vector<SchemeMetricNames> tables = [] {
    std::vector<SchemeMetricNames> t;
    for (int s = 0; s <= static_cast<int>(core::Scheme::kWiraPlus); ++s) {
      t.emplace_back(static_cast<core::Scheme>(s));
    }
    return t;
  }();
  return tables[static_cast<size_t>(scheme)];
}

}  // namespace

void record_session_metrics(obs::MetricsRegistry& m, const SessionRecord& rec,
                            bool include_phases) {
  for (const auto& [scheme, res] : rec.results) {
    const SchemeMetricNames& names = metric_names(scheme);
    m.inc(names.sessions);
    if (!res.first_frame_completed) {
      m.inc(names.first_frame_incomplete);
    } else {
      m.histogram(names.ffct_us)
          .record(static_cast<uint64_t>(res.ffct / 1000));
      m.histogram(names.fflr_ppm)
          .record(static_cast<uint64_t>(res.fflr * 1e6));
    }
    if (res.zero_rtt) m.inc(names.zero_rtt);
    if (res.cwnd_fallback) m.inc(names.cwnd_before_parse);
    if (res.init.hx_stale) m.inc(names.stale_cookie);
    if (res.zero_rtt_rejected) m.inc(names.zero_rtt_reject);
    m.inc(names.pto_fired, res.server_stats.ptos_fired);
    m.inc(names.packets_sent, res.server_stats.packets_sent);
    m.inc(names.packets_lost, res.server_stats.packets_lost);
    m.inc(names.cookies_synced, res.cookies_synced);
    if (include_phases) {
      for (const obs::PhaseSpan& span : res.phases) {
        const auto us = static_cast<uint64_t>(span.duration() / 1000);
        const auto known = std::find_if(
            obs::kPhaseNames, obs::kPhaseNames + obs::kNumPhases,
            [&span](const char* p) { return std::strcmp(p, span.name) == 0; });
        if (known != obs::kPhaseNames + obs::kNumPhases) {
          m.histogram(names.phases[known - obs::kPhaseNames]).record(us);
        } else {
          m.histogram(std::string("phase.") + span.name + "_us." +
                      core::scheme_name(scheme))
              .record(us);
        }
      }
    }
  }
  // Folded from the record (not counted at the failing open) so serial,
  // multiprocess and salvage-retry runs all agree exactly.
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

// ---- anomaly triggers and traced replays (DESIGN.md §7) -----------------

enum class AnomalyTrigger { kNone, kStall, kCornerCase, kDecodeError, kFfct };

/// The anomaly trigger (if any) for one completed (session, scheme) run:
/// the highest-priority condition wins, so each run yields at most one
/// dump with an unambiguous label.  Reads only counters the run keeps
/// whether or not it is traced, so it is a pure function of the session —
/// every execution mode (serial / procs / salvage-retry)
/// computes the same triggers, which is what keeps records byte-identical.
AnomalyTrigger anomaly_trigger(const PopulationConfig& config,
                               const SessionResult& res) {
  if (res.stalls_observed > 0) return AnomalyTrigger::kStall;
  if (res.cwnd_fallback || res.init.hx_stale || res.zero_rtt_rejected ||
      res.stale_cookie_inits > 0) {
    return AnomalyTrigger::kCornerCase;
  }
  if (res.server_stats.packets_undecodable > 0 ||
      res.client_packets_undecodable > 0) {
    return AnomalyTrigger::kDecodeError;
  }
  if (config.anomaly_ffct != kNoTime &&
      (!res.first_frame_completed || res.ffct > config.anomaly_ffct)) {
    return AnomalyTrigger::kFfct;
  }
  return AnomalyTrigger::kNone;
}

/// "<prefix><i>_<scheme>": the file stem and qlog group_id of one
/// (session, scheme) trace pair.
std::string trace_name(const char* prefix, size_t i, core::Scheme scheme) {
  std::string name(prefix);
  name += std::to_string(i);
  name += '_';
  name += core::scheme_name(scheme);
  return name;
}

/// The one traced-session path: runs `cfg` with a server/client
/// obs::QlogFile pair streaming into dir/name.{server,client}.sqlog —
/// one deterministic *pair* per (session, scheme), correlated by a shared
/// group_id (obs/trace_join.h joins them).  --trace-sample artifacts,
/// anomaly replays and crash replays are all written here, so
/// wira_trace_join reads every one of them unchanged.  A trace must never
/// be *silently* missing: a vantage whose file cannot be opened is named
/// in a warning, runs untraced, and counts in *open_failures.
/// `unbuffered` hands each event line to the kernel as it is written, so
/// a process that dies mid-session leaves every event before the fault.
SessionResult run_traced_session(SessionConfig cfg, SessionWorkspace& ws,
                                 const std::string& dir,
                                 const std::string& name, bool unbuffered,
                                 uint64_t* open_failures) {
  std::unique_ptr<obs::QlogFile> files[2];
  const obs::QlogVantage vantages[2] = {obs::QlogVantage::kServer,
                                        obs::QlogVantage::kClient};
  trace::EventSink** slots[2] = {&cfg.tracer, &cfg.client_tracer};
  for (size_t v = 0; v < 2; ++v) {
    const bool server = vantages[v] == obs::QlogVantage::kServer;
    const std::string path =
        dir + "/" + name + (server ? ".server.sqlog" : ".client.sqlog");
    files[v] = obs::QlogFile::open(
        path, obs::paired_trace_info(name, vantages[v]), unbuffered);
    if (!files[v]) {
      WIRA_WARN("population", "cannot open qlog trace " + path + ": " +
                                  (server ? "server" : "client") +
                                  " vantage runs untraced");
      ++*open_failures;
      continue;
    }
    *slots[v] = files[v].get();
  }
  return run_session(cfg, ws);
}

}  // namespace

namespace internal {

void CrashReplay::discard() {
  if (open_pair.empty()) return;
  std::error_code ec;
  std::filesystem::remove(open_pair + ".server.sqlog", ec);
  std::filesystem::remove(open_pair + ".client.sqlog", ec);
  open_pair.clear();
}

/// Simulates session `i` of the population sweep.  All randomness derives
/// from (config.seed, i) and `population` is read-only, so sessions are
/// independent: every worker (forked child or the parent's retry) calls
/// this and the result is identical to the serial loop.  `ws` is the
/// caller's recycled session machinery (one per worker): reusing it across
/// sessions is what keeps steady-state heap allocations bounded (DESIGN.md
/// §6).
SessionRecord run_one_session(const PopulationConfig& config,
                              const popgen::Population& population,
                              size_t i, SessionWorkspace& ws,
                              CrashReplay* crash) {
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

  const bool sampled = crash == nullptr && config.trace_sample > 0 &&
                       i % config.trace_sample == 0;
  for (core::Scheme scheme : config.schemes) {
    SessionConfig cfg = base;
    cfg.scheme = scheme;
    cfg.collect_phases = config.collect_metrics;
    SessionResult res;
    uint64_t replay_open_failures = 0;  // a replay never touches the record
    if (crash != nullptr) {
      // The previous pair ran to completion, so it cannot be the crash's:
      // only the pair in flight survives.
      const std::string name = trace_name("crash_session_", i, scheme);
      crash->discard();
      crash->open_pair = config.anomaly_dir + "/" + name;
      res = run_traced_session(cfg, ws, config.anomaly_dir, name,
                               /*unbuffered=*/true, &replay_open_failures);
    } else if (sampled) {
      res = run_traced_session(cfg, ws, config.trace_dir,
                               trace_name("session_", i, scheme),
                               /*unbuffered=*/false, &rec.trace_open_failures);
    } else {
      res = run_session(cfg, ws);
    }
    const AnomalyTrigger trigger = config.flight_recorder
                                       ? anomaly_trigger(config, res)
                                       : AnomalyTrigger::kNone;
    switch (trigger) {
      case AnomalyTrigger::kStall: rec.anomaly_stall_dumps++; break;
      case AnomalyTrigger::kCornerCase: rec.anomaly_corner_dumps++; break;
      case AnomalyTrigger::kDecodeError: rec.anomaly_decode_dumps++; break;
      case AnomalyTrigger::kFfct: rec.anomaly_ffct_dumps++; break;
      case AnomalyTrigger::kNone: break;
    }
    // The dump is a traced re-run of this very (session, scheme): the run
    // is a pure function of (config, i), so the replay emits exactly the
    // events the untraced run would have.  Files are capped per worker
    // and best-effort; the counters above were already taken, so every
    // execution mode still produces byte-identical records.
    if (trigger != AnomalyTrigger::kNone && crash == nullptr &&
        !config.anomaly_dir.empty() &&
        ws.anomaly_dumps_written < config.anomaly_max_dumps) {
      run_traced_session(cfg, ws, config.anomaly_dir,
                         trace_name("session_", i, scheme),
                         /*unbuffered=*/false, &replay_open_failures);
      ws.anomaly_dumps_written++;
    }
    rec.results.emplace(scheme, std::move(res));
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

/// Same contract for the anomaly-dump directory (anomaly and crash replays
/// write their trace pairs here).
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
  if (!config.workers.empty()) {
    throw std::invalid_argument(
        "run_population: remote workers are not supported; leave workers "
        "empty");
  }
  if (config.threads != 1) {
    throw std::invalid_argument(
        "run_population: worker threads are not supported; set processes "
        "for a parallel sweep");
  }
  internal::prepare_trace_dir(config);
  internal::prepare_anomaly_dir(config);
  if (clamp_threads(config.processes, config.sessions) > 1) {
    // Shard dispatch (exp/shard_dispatch): forked workers behind one
    // dynamic chunk dealer and index-addressed reassembly.
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
