// Monte-Carlo population A/B experiment: the laptop-scale stand-in for the
// paper's 6-month production deployment.  Each "session" draws an OD pair
// from the synthetic population, reconstructs its previous session's
// Hx_QoS (the transport cookie), and runs the same workload under every
// comparison scheme (paired design — variance-free scheme deltas).
#pragma once

#include <csignal>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/init_config.h"
#include "exp/session_runner.h"
#include "obs/metrics.h"
#include "popgen/population.h"
#include "util/stats.h"

namespace wira::exp {

/// Sentinel for the test-only fault-injection indices below.
inline constexpr size_t kNoSessionIndex = static_cast<size_t>(-1);

/// Live dispatcher telemetry for the dynamic chunk scheduler (DESIGN.md
/// §6).  Deliberately *not* part of MetricsRegistry: chunk-to-worker
/// placement depends on timing, so folding it into the registry would
/// break the byte-identity invariant.  The parent dispatcher (single
/// threaded) updates it inline; the soak flush hook snapshots it into the
/// flush JSONL, where wira_exporterd turns it into
/// wira_dispatch_chunks_total{worker=...} / wira_dispatch_worker_busy.
struct DispatchStats {
  /// Worker processes actually forked (empty assignments are skipped, so
  /// this is min(requested workers, number of chunks)).
  size_t workers_spawned = 0;
  /// High-watermark of workers holding an in-flight chunk at once.
  size_t busy_workers = 0;
  /// Per-worker completed chunk count, indexed by worker id.
  std::vector<uint64_t> chunks_completed;
  /// Per-worker completed session count, indexed by worker id.
  std::vector<uint64_t> sessions_completed;
};

struct PopulationConfig {
  uint64_t seed = 1;
  size_t sessions = 300;
  size_t num_groups = 64;
  /// Must stay 1: run_population throws std::invalid_argument otherwise.
  /// Parallel sweeps fork workers (`processes`); the field is kept only
  /// because perfbench/sweep.cc sets it, and it goes with the next change
  /// to the benchmark.
  size_t threads = 1;
  /// Worker processes for the session sweep: 1 = the serial in-process
  /// loop (default), 0 = one per hardware thread, N = fork exactly N.
  /// Workers pull index chunks (see `chunk`) from a shared queue and
  /// stream serialized records back over a pipe (exp/record_codec);
  /// per-index seeding and index-addressed reassembly make the output
  /// byte-identical to serial at any worker count or chunk size.  A
  /// worker that dies (crash, signal, truncated stream, thrown session)
  /// is detected and named; see retry_dead_shards.
  size_t processes = 1;
  /// Sessions per dispatch chunk; must be positive.
  /// Workers pull the next chunk when idle, so one expensive stretch of
  /// indices never gates the sweep.  Small chunks keep the tail balanced
  /// (the last chunks finish close together); each chunk costs only one
  /// control frame.
  size_t chunk = 4;
  /// Must stay empty: run_population throws std::invalid_argument
  /// otherwise.  Sweeps run on one host, so there are no remote workers;
  /// the field is kept only because perfbench/sweep.cc:52 clears it, and
  /// it goes with the next change to the benchmark.
  std::vector<std::string> workers;
  /// When non-null, the dispatcher keeps this updated with live chunk
  /// placement (soak flush hook reads it).  Not owned.
  DispatchStats* dispatch_stats = nullptr;
  /// When a worker dies mid-chunk: salvage its completed records
  /// and re-run only the missing indices in the parent (true), or throw a
  /// PopulationShardError carrying the salvage (false, default).
  bool retry_dead_shards = false;
  /// Fraction of connections establishing in 0-RTT (paper: ~90%).
  double p_zero_rtt = 0.90;
  /// Fraction of clients arriving with a stored cookie.
  double p_cookie = 0.93;
  std::vector<core::Scheme> schemes = {
      core::Scheme::kBaseline, core::Scheme::kWiraFF,
      core::Scheme::kWiraHx, core::Scheme::kWira};
  core::ExperiencedDefaults defaults;
  TimeNs staleness_threshold = core::kDefaultStaleness;
  uint32_t theta_vf = 1;
  cc::CcAlgo cc_algo = cc::CcAlgo::kBbrV1;
  TimeNs sync_period = core::kDefaultSyncPeriod;
  bool careful_resume = false;
  media::Container container = media::Container::kFlv;

  // ---- observability (PR 2) ----
  /// Collect per-session FFCT phase decompositions (SessionResult::phases)
  /// and, when a registry is passed to run_population, per-phase latency
  /// histograms.  Off by default: enabling it attaches a tracer to every
  /// session's server connection.
  bool collect_metrics = false;
  /// Dump a standard qlog (draft-ietf-quic-qlog as JSONL, obs/qlog.h) of
  /// every Nth session into trace_dir, one `.sqlog` file per
  /// (session, scheme).  0 = off.
  size_t trace_sample = 0;
  std::string trace_dir = "traces";

  // ---- anomaly forensics (DESIGN.md §7) ----
  /// Evaluate anomaly triggers (stalls, corner cases, decode errors, FFCT
  /// over anomaly_ffct) on every session from counters each run keeps
  /// anyway, count them into SessionRecord, and — when anomaly_dir is
  /// set — write each triggering run's paired .server.sqlog/.client.sqlog
  /// trace by re-running it traced (wira_trace_join joins the pair).
  bool flight_recorder = true;
  /// Directory for anomaly and crash traces; "" = count triggers but
  /// write no files.  When a worker process dies, the parent re-runs its
  /// chunk up to the fatal session in a forked replay child; a crash that
  /// recurs leaves crash_session_<i>_<scheme>.{server,client}.sqlog here.
  std::string anomaly_dir;
  /// FFCT above this — or an incomplete first frame — triggers an
  /// anomaly dump.  kNoTime = FFCT trigger off.
  TimeNs anomaly_ffct = kNoTime;
  /// Cap on anomaly dump *files* per worker; trigger counters are never
  /// capped (the soak must not turn a pathological sweep into a disk
  /// sweep).
  size_t anomaly_max_dumps = 32;

  // ---- fault injection (tests only) ----
  /// Throw from inside this session index (any execution mode): exercises
  /// the worker-failure paths without patching the runner.
  size_t fail_at_index = kNoSessionIndex;
  /// raise(SIGKILL) when a forked worker reaches this session index.
  /// Honored only by forked workers, never by the serial loop, so the
  /// test process itself never dies.
  size_t kill_at_index = kNoSessionIndex;
  /// raise(crash_after_signal), with its default disposition, after a
  /// forked worker *finishes* this session index (its record already
  /// streamed): exercises the crash replay path, whose replay dies the
  /// same way with that session's complete, joinable trace pair in
  /// flight.  Same scope as kill_at_index.
  size_t crash_after_index = kNoSessionIndex;
  int crash_after_signal = SIGABRT;
};

struct SessionRecord {
  popgen::PathSample conditions;   ///< ground-truth path at session time
  TimeNs cookie_age = 0;
  bool zero_rtt = false;
  bool had_cookie = false;
  uint64_t ff_size = 0;            ///< ground-truth first-frame size
  /// qlog sample files this session failed to open (unwritable trace_dir);
  /// surfaces as the `trace.open_failed` counter.
  uint64_t trace_open_failures = 0;
  std::map<core::Scheme, SessionResult> results;
  /// Anomaly triggers across this session's scheme runs
  /// (at most one per (session, scheme), labeled by the highest-priority
  /// trigger: stall > corner_case > decode_error > ffct).  Deterministic
  /// functions of the session, so serial/multiprocess/retry runs
  /// agree bit-exactly; surfaced as `anomaly.dumps.<trigger>` counters.
  uint64_t anomaly_stall_dumps = 0;
  uint64_t anomaly_corner_dumps = 0;
  uint64_t anomaly_decode_dumps = 0;
  uint64_t anomaly_ffct_dumps = 0;
};

/// One dead worker of a sharded run (DESIGN.md §6 failure matrix): which
/// chunk it owned, the first session index it never delivered (the
/// session it was on), and why the parent declared it dead.
struct ShardDeath {
  int worker = -1;
  size_t stripe_begin = 0;  ///< first session index of the stripe
  size_t stripe_end = 0;    ///< one past the last index
  size_t died_at = 0;       ///< first undelivered index of the stripe
  std::string reason;       ///< "killed by signal 9", "exited with status
                            ///< 1", "truncated record stream", ...
};

/// Thrown by a sharded run_population (processes > 1, retry_dead_shards
/// off) when one or more workers die.  Carries
/// everything the caller needs to salvage: the index-addressed records
/// that did arrive (missing slots are default-constructed) and the exact
/// indices still owed.
class PopulationShardError : public std::runtime_error {
 public:
  PopulationShardError(const std::string& what,
                       std::vector<ShardDeath> deaths_in,
                       std::vector<SessionRecord> salvaged_in,
                       std::vector<size_t> missing_in)
      : std::runtime_error(what),
        deaths(std::move(deaths_in)),
        salvaged(std::move(salvaged_in)),
        missing(std::move(missing_in)) {}

  std::vector<ShardDeath> deaths;
  std::vector<SessionRecord> salvaged;
  std::vector<size_t> missing;
};

class RecordSink;

/// Folds one session's results into a registry (counters and histogram
/// buckets).  The sweep's parent is the only caller that owns a registry:
/// it folds every record once, in index order, whichever way the records
/// were produced.  `include_phases` additionally folds the per-phase
/// latency histograms (the runner passes config.collect_metrics).
/// Exposed so streaming sinks (exp/record_sink) use the exact same fold
/// as the batch runner.
void record_session_metrics(obs::MetricsRegistry& m, const SessionRecord& rec,
                            bool include_phases);

/// Runs the population sweep.  When `metrics` is non-null, per-scheme
/// counters and histograms (FFCT, corner-case rates, and — with
/// config.collect_metrics — the per-phase breakdown) are accumulated into
/// it.  Sharded runs (forked worker processes) send every record back
/// through the versioned record codec, and the parent folds the registry
/// in index order as records reach the sink, so `--procs N` output is
/// byte-identical to serial.  A thin wrapper:
/// a CollectSink plus the sink overload below, whose failure contract it
/// shares; on PopulationShardError it moves the records the sink already
/// holds into `salvaged`, so the salvage covers every arrived index.
/// Throws std::invalid_argument when config.chunk is 0, config.threads
/// is not 1 or config.workers is non-empty.
std::vector<SessionRecord> run_population(const PopulationConfig& config,
                                          obs::MetricsRegistry* metrics);

/// Streaming variant (DESIGN.md §6 memory model): every completed record
/// is pushed into `sink` in strictly increasing index order and then
/// dropped, so the sweep holds O(workers · chunk) records at any instant
/// instead of O(sessions) — this is the million-session soak path.
/// Records, their order, and the metrics aggregate are byte-identical at
/// any `processes` setting.
///
/// Failure contract (any sharded run): when a worker dies and
/// retry_dead_shards is off, dispatch stops dealing queued chunks,
/// drains the surviving workers' in-flight assignments, and throws a
/// PopulationShardError whose index-addressed `salvaged` holds every
/// record that arrived but never reached the sink (the sink only ever
/// receives whole chunks) and whose `missing` lists exactly the indices
/// that never arrived.  With retry_dead_shards on, the parent re-runs a
/// dead worker's remaining sessions in-process and the sink sees the
/// full uninterrupted index sequence.
void run_population(const PopulationConfig& config,
                    obs::MetricsRegistry* metrics, RecordSink& sink);

inline std::vector<SessionRecord> run_population(
    const PopulationConfig& config) {
  return run_population(config, nullptr);
}

/// Collects per-scheme FFCT samples (ms) over records passing `filter`.
template <typename Filter>
Samples collect_ffct(const std::vector<SessionRecord>& records,
                     core::Scheme scheme, Filter filter) {
  Samples s;
  for (const auto& r : records) {
    auto it = r.results.find(scheme);
    if (it == r.results.end() || !it->second.first_frame_completed) continue;
    if (!filter(r)) continue;
    s.add(to_ms(it->second.ffct));
  }
  return s;
}

inline Samples collect_ffct(const std::vector<SessionRecord>& records,
                            core::Scheme scheme) {
  return collect_ffct(records, scheme,
                      [](const SessionRecord&) { return true; });
}

/// Collects first-frame loss-rate samples (fraction) analogously.
template <typename Filter>
Samples collect_fflr(const std::vector<SessionRecord>& records,
                     core::Scheme scheme, Filter filter) {
  Samples s;
  for (const auto& r : records) {
    auto it = r.results.find(scheme);
    if (it == r.results.end() || !it->second.first_frame_completed) continue;
    if (!filter(r)) continue;
    s.add(it->second.fflr);
  }
  return s;
}

inline Samples collect_fflr(const std::vector<SessionRecord>& records,
                            core::Scheme scheme) {
  return collect_fflr(records, scheme,
                      [](const SessionRecord&) { return true; });
}

}  // namespace wira::exp
