// sweep_flv and sweep_ts_sharded: the figure-style population sweep, run
// closed-loop as a chain of run_population batches until the run's time
// is up.
#include <algorithm>
#include <functional>
#include <map>
#include <stdexcept>

#include "app/wira_server.h"
#include "exp/record_sink.h"
#include "layers.h"
#include "obs/metrics.h"
#include "shared_alloc_hook.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Population sessions per run_population call.  Each batch draws its own
/// population seed, so a run averages over many synthetic populations
/// instead of riding on one population's luck.
constexpr size_t kBatchSessions = 24;
/// Dispatch chunk of the sharded sweep: 6 chunks per batch, 2 workers.
constexpr size_t kChunk = 4;
constexpr size_t kWorkers = 2;
/// Passes over the same batches in an untraced run.
constexpr size_t kPasses = 2;
/// A set-up probe runs before every kProbeEvery-th batch of a pass.
constexpr size_t kProbeEvery = 6;
constexpr uint64_t kSetupSeed = 0x5e7u;
/// Population sessions (x4 schemes) a traced run wires by hand.
constexpr size_t kWiredSessions = 16;

struct SweepSpec {
  media::Container container;
  size_t processes;
};

/// Every knob that selects an execution path is set here for every pass;
/// nothing is inherited from bench::default_population, whose
/// `processes` once leaked into perf_smoke's serial pass.
exp::PopulationConfig sweep_config(const SweepSpec& spec, uint64_t seed,
                                   size_t sessions) {
  exp::PopulationConfig cfg;
  cfg.seed = seed;
  cfg.sessions = sessions;
  cfg.num_groups = 64;
  cfg.threads = 1;
  cfg.processes = spec.processes;
  cfg.chunk = kChunk;
  cfg.workers.clear();
  cfg.retry_dead_shards = false;
  cfg.collect_metrics = true;
  cfg.flight_recorder = true;
  cfg.trace_sample = 0;
  cfg.anomaly_dir.clear();
  cfg.container = spec.container;
  cfg.cc_algo = cc::CcAlgo::kBbrV1;
  cfg.schemes = {core::Scheme::kBaseline, core::Scheme::kWiraFF,
                 core::Scheme::kWiraHx, core::Scheme::kWira};
  return cfg;
}

/// What one pass over a list of batches saw.
struct Pass {
  double wall_s = 0;
  uint64_t sessions = 0;
  uint64_t runs = 0;  ///< (session, scheme) runs
  uint64_t incomplete = 0;
  std::vector<uint64_t> hashes;  ///< per record, batch after batch
  std::vector<double> ffct_ms;
  std::map<core::Scheme, std::pair<double, uint64_t>> ffct_sum;
  uint64_t packets_sent = 0;
  uint64_t ptos = 0;
  uint64_t stream_bytes = 0;
  uint64_t retransmitted_bytes = 0;
  size_t max_threads = 0;
  uint64_t allocs = 0;  ///< heap allocations, workers included
  uint64_t forks = 0;
  std::vector<uint64_t> worker_sessions;
  // Per batch: wall and CPU seconds, and the peak RSS (MB) of the process
  // running its sessions (this one, or its largest worker).
  std::vector<double> batch_wall_s;
  std::vector<double> batch_cpu_s;
  std::vector<double> batch_rss_mb;
  // Traced passes only.
  std::vector<double> session_ms;
  int64_t session_ns = 0;
  int64_t fold_ns = 0;
  CodecStats codec;
};

/// Per-record work of every pass: identity hash, the registry fold the
/// figures aggregate with, FFCT samples and transport counters.  A traced
/// pass also times each session (serial sweeps: the gap since the
/// previous record), the fold, and a codec round trip.
class PassSink final : public exp::RecordSink {
 public:
  PassSink(Pass& pass, bool traced, RunResult& result)
      : pass_(pass), traced_(traced), result_(result) {}

  /// Sharded batches sample their workers' peak RSS at every record.
  void start_batch(bool sample_children) {
    sample_children_ = sample_children;
    worker_peak_mb_ = 0;
    last_ns_ = now_ns();
  }
  double worker_peak_mb() const { return worker_peak_mb_; }

  void on_record(size_t index, exp::SessionRecord&& rec) override {
    if (traced_) {
      const int64_t gap = now_ns() - last_ns_;
      pass_.session_ms.push_back(static_cast<double>(gap) / 1e6);
      pass_.session_ns += gap;
    }
    if (index % 16 == 0) {
      pass_.max_threads = std::max(pass_.max_threads, thread_count());
    }
    if (sample_children_) {
      worker_peak_mb_ = std::max(worker_peak_mb_, children_peak_rss_mb());
    }
    if (traced_) {
      pass_.hashes.push_back(codec_round_trip(rec, pass_.codec, result_));
      const int64_t t0 = now_ns();
      exp::record_session_metrics(registry_, rec, true);
      pass_.fold_ns += now_ns() - t0;
    } else {
      pass_.hashes.push_back(record_hash(rec, scratch_));
      exp::record_session_metrics(registry_, rec, true);
    }
    pass_.sessions++;
    if (rec.results.size() != 4) pass_.incomplete++;
    for (const auto& [scheme, res] : rec.results) {
      pass_.runs++;
      pass_.packets_sent += res.server_stats.packets_sent;
      pass_.ptos += res.server_stats.ptos_fired;
      pass_.stream_bytes += res.server_stats.stream_bytes_sent;
      pass_.retransmitted_bytes += res.server_stats.stream_bytes_retransmitted;
      if (!res.first_frame_completed) continue;
      const double ms = to_ms(res.ffct);
      pass_.ffct_ms.push_back(ms);
      auto& [sum, n] = pass_.ffct_sum[scheme];
      sum += ms;
      ++n;
    }
    if (traced_) last_ns_ = now_ns();
  }

 private:
  Pass& pass_;
  bool traced_;
  RunResult& result_;
  obs::MetricsRegistry registry_;
  std::vector<uint8_t> scratch_;
  int64_t last_ns_ = 0;
  bool sample_children_ = false;
  double worker_peak_mb_ = 0;
};

using Adjust = std::function<void(exp::PopulationConfig&)>;

/// Runs one batch per seed in `seeds`; with `budget_s` > 0 it instead
/// appends fresh seeds derived from `run_seed` until the budget is spent.
Pass run_pass(const SweepSpec& spec, std::vector<uint64_t>& seeds,
              double budget_s, uint64_t run_seed, bool traced,
              const Adjust& adjust, RunResult& result,
              const std::function<void(size_t)>& before_batch = {}) {
  Pass pass;
  PassSink sink(pass, traced, result);
  const double start = now_s();
  for (size_t b = 0;; ++b) {
    if (budget_s > 0) {
      if (b > 0 && now_s() - start >= budget_s) break;
      seeds.push_back(mix_seed(run_seed, b));
    } else if (b >= seeds.size()) {
      break;
    }
    if (before_batch) before_batch(b);
    exp::PopulationConfig cfg = sweep_config(spec, seeds[b], kBatchSessions);
    if (adjust) adjust(cfg);
    exp::DispatchStats dispatch;
    cfg.dispatch_stats = &dispatch;
    const uint64_t before = pass.sessions;
    const bool sharded = cfg.processes > 1;
    reset_peak_rss();
    const Usage u0 = usage_now();
    const uint64_t allocs0 = heap_allocs();
    const uint64_t forks0 = forks_so_far();
    sink.start_batch(sharded);
    const int64_t t0 = now_ns();
    try {
      exp::run_population(cfg, nullptr, sink);
    } catch (const std::exception& e) {
      result.check(false, std::string("batch failed: ") + e.what());
    }
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    pass.allocs += heap_allocs() - allocs0;
    pass.forks += forks_so_far() - forks0;
    const Usage u1 = usage_now();
    pass.wall_s += wall;
    pass.batch_wall_s.push_back(wall);
    pass.batch_cpu_s.push_back(u1.self_cpu_s - u0.self_cpu_s +
                               u1.children_cpu_s - u0.children_cpu_s);
    pass.batch_rss_mb.push_back(sharded ? sink.worker_peak_mb()
                                        : self_peak_rss_mb());
    const uint64_t missing = kBatchSessions - (pass.sessions - before);
    if (missing > 0) {
      // Keep hashes batch-aligned for the cross-pass comparisons.
      pass.hashes.resize(pass.hashes.size() + missing, 0);
      result.check_many(missing, missing, "records never delivered");
    }
    if (pass.worker_sessions.size() < dispatch.sessions_completed.size()) {
      pass.worker_sessions.resize(dispatch.sessions_completed.size(), 0);
    }
    for (size_t w = 0; w < dispatch.sessions_completed.size(); ++w) {
      pass.worker_sessions[w] += dispatch.sessions_completed[w];
    }
  }
  result.check_many(pass.sessions, pass.incomplete,
                    "records missing a scheme's result");
  return pass;
}

/// Counts records of `got` that differ from `want` (same batch layout).
void compare_records(const std::vector<uint64_t>& want,
                     const std::vector<uint64_t>& got, const std::string& what,
                     RunResult& result) {
  uint64_t bad = want.size() > got.size() ? want.size() - got.size() : 0;
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    if (want[i] != got[i]) ++bad;
  }
  result.check_many(want.size(), bad, what);
}

double scheme_mean(const Pass& pass, core::Scheme scheme) {
  const auto it = pass.ffct_sum.find(scheme);
  if (it == pass.ffct_sum.end() || it->second.second == 0) return 0;
  return it->second.first / static_cast<double>(it->second.second);
}

/// The paper's headline ordering, checked once a run has simulated enough
/// sessions for it to hold (a few dozen sessions can go either way).
void check_wira_beats_baseline(const Pass& pass, RunResult& result) {
  constexpr uint64_t kMinSessions = 240;
  const double wira = scheme_mean(pass, core::Scheme::kWira);
  const double baseline = scheme_mean(pass, core::Scheme::kBaseline);
  result.note("sim_ffct_mean_ms_wira", wira);
  result.note("sim_ffct_mean_ms_baseline", baseline);
  if (pass.sessions < kMinSessions) return;
  result.check(wira > 0 && wira < baseline,
               "Wira's mean simulated FFCT is not below Baseline's");
}

class FirstRecordSink final : public exp::RecordSink {
 public:
  void on_record(size_t, exp::SessionRecord&&) override {
    if (first_ns == 0) first_ns = now_ns();
  }
  int64_t first_ns = 0;
};

/// One cold minimal sweep — population build, worker fork (one session
/// per worker, one-session chunks), first session — timed to its first
/// record.  Always the same reference session, so set-up time does not
/// hinge on which session --seed happens to put first.
double setup_probe(const SweepSpec& spec, RunResult& result) {
  exp::PopulationConfig cfg =
      sweep_config(spec, kSetupSeed, spec.processes);
  cfg.chunk = 1;
  FirstRecordSink sink;
  const int64_t t0 = now_ns();
  try {
    exp::run_population(cfg, nullptr, sink);
  } catch (const std::exception& e) {
    result.check(false, std::string("set-up probe failed: ") + e.what());
  }
  return static_cast<double>(sink.first_ns - t0) / 1e9;
}

void run_untraced(const RunArgs& args, const SweepSpec& spec,
                  RunResult& result) {
  // kPasses passes over the same batches, together just under the run.
  // Co-tenant load slows shared hosts in bursts of seconds, so each batch
  // is timed by its fastest pass; the replays also re-check determinism.
  // Set-up probes are spread over the passes for the same reason.
  std::vector<double> setup;
  const auto probe = [&](size_t b) {
    if (b % kProbeEvery == 0) setup.push_back(setup_probe(spec, result));
  };
  std::vector<uint64_t> seeds;
  std::vector<Pass> passes;
  passes.push_back(run_pass(spec, seeds, args.seconds * 0.85 / kPasses,
                            args.seed, false, {}, result, probe));
  while (passes.size() < kPasses) {
    passes.push_back(run_pass(spec, seeds, 0, 0, false, {}, result, probe));
    compare_records(passes.front().hashes, passes.back().hashes,
                    "records differ between passes over the same batches",
                    result);
  }
  const Pass& first = passes.front();

  uint64_t forks = 0;
  uint64_t allocs = 0;
  uint64_t runs = 0;
  size_t max_threads = 0;
  std::vector<double> rss_mb;
  for (const Pass& p : passes) {
    forks += p.forks;
    allocs += p.allocs;
    runs += p.runs;
    max_threads = std::max(max_threads, p.max_threads);
    rss_mb.insert(rss_mb.end(), p.batch_rss_mb.begin(), p.batch_rss_mb.end());
  }
  double wall_s = 0;
  double cpu_s = 0;
  for (size_t b = 0; b < seeds.size(); ++b) {
    const Pass* fastest = &first;
    for (const Pass& p : passes) {
      if (p.batch_wall_s[b] < fastest->batch_wall_s[b]) fastest = &p;
    }
    wall_s += fastest->batch_wall_s[b];
    cpu_s += fastest->batch_cpu_s[b];
  }
  const double sessions = std::max<double>(1, first.sessions);
  result.add("setup_s", median(setup), "s");
  result.add("sessions_per_s", static_cast<double>(first.sessions) / wall_s,
             "1/s");
  result.add("cpu_us_per_session", cpu_s * 1e6 / sessions, "us");
  result.add("allocs_per_session",
             static_cast<double>(allocs) / std::max<double>(1, runs), "count");
  result.add("peak_rss_mb", median(rss_mb), "MB");
  result.add("ffct_p50_ms", median(first.ffct_ms), "ms");
  result.add("ffct_p90_ms", percentile(first.ffct_ms, kTailPercentile),
             "ms");

  const size_t batches = seeds.size();
  result.note("batches", static_cast<double>(batches));
  result.note("sessions", static_cast<double>(first.sessions));
  result.note("ffct_samples", static_cast<double>(first.ffct_ms.size()));
  result.note("single_pass_sessions_per_s",
              static_cast<double>(first.sessions) / first.wall_s);
  result.note("forks", static_cast<double>(forks));
  result.note("setup_probes", static_cast<double>(setup.size()));
  result.note("max_threads", static_cast<double>(max_threads));
  check_wira_beats_baseline(first, result);
  if (spec.processes == 1) {
    // The serial sweep must really be serial: no worker process, no
    // worker thread.
    result.check(forks == 0 && max_threads == 1,
                 "sweep_flv ran with more than one process or thread");
    return;
  }
  result.check(forks == kPasses * kWorkers * batches && max_threads == 1,
               "sweep_ts_sharded did not fork two workers per batch");
  // Sharded records must equal a serial run of the same indices: re-run
  // one seeded batch in-process.
  const size_t b = static_cast<size_t>(mix_seed(args.seed, 99) % batches);
  std::vector<uint64_t> one = {seeds[b]};
  const Pass serial = run_pass(
      spec, one, 0, 0, false,
      [](exp::PopulationConfig& cfg) { cfg.processes = 1; }, result);
  const auto at = first.hashes.begin() + static_cast<long>(b * kBatchSessions);
  compare_records(std::vector<uint64_t>(at, at + kBatchSessions),
                  serial.hashes, "sharded records differ from a serial run",
                  result);
}

/// How much slower pass `a` ran the same batches than pass `b`: the
/// median over batches of the time ratio, minus one (a burst of co-tenant
/// load then skews one batch, not the whole figure).
double slowdown(const Pass& a, const Pass& b) {
  std::vector<double> ratios;
  for (size_t i = 0; i < a.batch_wall_s.size(); ++i) {
    ratios.push_back(a.batch_wall_s[i] / b.batch_wall_s[i]);
  }
  return median(ratios) - 1.0;
}

void run_traced(const RunArgs& args, const SweepSpec& spec,
                RunResult& result) {
  const bool sharded = spec.processes > 1;
  std::vector<uint64_t> seeds;
  // The passes below replay the first one's batches: five passes in all
  // for the sharded sweep, whose serial pass takes about two shares.
  const Pass untraced =
      run_pass(spec, seeds, args.seconds * (sharded ? 0.14 : 0.2), args.seed,
               false, {}, result);
  const Pass traced = run_pass(spec, seeds, 0, 0, true, {}, result);
  compare_records(untraced.hashes, traced.hashes,
                  "traced records differ from untraced", result);
  Pass serial;
  if (sharded) {
    serial = run_pass(
        spec, seeds, 0, 0, true,
        [](exp::PopulationConfig& cfg) { cfg.processes = 1; }, result);
    compare_records(untraced.hashes, serial.hashes,
                    "sharded records differ from a serial run", result);
  }
  const Pass recorder_off = run_pass(
      spec, seeds, 0, 0, false,
      [](exp::PopulationConfig& cfg) { cfg.flight_recorder = false; }, result);
  const Pass metrics_off = run_pass(
      spec, seeds, 0, 0, false,
      [](exp::PopulationConfig& cfg) { cfg.collect_metrics = false; }, result);
  check_wira_beats_baseline(untraced, result);

  // Hand-wired sample: seeded (batch, index) picks, every scheme.
  WiredStats wired;
  MediaStats media;
  wira::Rng rng(mix_seed(args.seed, 77));
  const TimeNs horizon = app::ServerConfig{}.stream_horizon;
  for (size_t s = 0; s < kWiredSessions; ++s) {
    const uint64_t batch_seed = seeds[rng.next() % seeds.size()];
    const size_t index = static_cast<size_t>(rng.next() % kBatchSessions);
    const exp::PopulationConfig pop_cfg =
        sweep_config(spec, batch_seed, kBatchSessions);
    const popgen::Population population(pop_cfg.seed * 31 + 7,
                                        pop_cfg.num_groups);
    for (const core::Scheme scheme : pop_cfg.schemes) {
      const exp::SessionConfig cfg =
          population_session(pop_cfg, population, index, scheme);
      const WiredOutcome out = wired_and_checked(cfg, wired, result);
      replay_media(cfg.stream, cfg.corpus_seed, cfg.start_time, out.end_time,
                   horizon, media, result);
    }
  }
  double seal_us = 0;
  double open_us = 0;
  probe_cookie(result, &seal_us, &open_us);

  const Pass& timing = sharded ? serial : traced;
  const double records = std::max<double>(1, traced.codec.records);
  result.add("exp.session_ms_p50", median(timing.session_ms), "ms");
  result.add("exp.session_ms_p90",
             percentile(timing.session_ms, kTailPercentile), "ms");
  result.add("exp.fold_us_per_record",
             static_cast<double>(traced.fold_ns) / 1e3 /
                 std::max<double>(1, traced.sessions),
             "us");
  // Share of worker wall time not spent on sessions: against the serial
  // pass for the sharded sweep, against the sessions' own time otherwise.
  result.add("exp.dispatch_idle_share",
             sharded ? 1.0 - serial.wall_s / (kWorkers * untraced.wall_s)
                     : 1.0 - static_cast<double>(traced.session_ns) / 1e9 /
                                 traced.wall_s,
             "ratio");
  double spread = 1;
  if (sharded && !untraced.worker_sessions.empty()) {
    const auto [lo, hi] = std::minmax_element(untraced.worker_sessions.begin(),
                                              untraced.worker_sessions.end());
    spread = static_cast<double>(*hi) / std::max<double>(1, *lo);
  }
  result.add("exp.worker_sessions_spread", spread, "ratio");
  result.add("exp.codec_bytes_per_record",
             static_cast<double>(traced.codec.bytes) / records, "bytes");
  result.add("exp.codec_us_per_record",
             static_cast<double>(traced.codec.ns) / 1e3 / records, "us");
  add_media_metrics(media, result);
  result.add("core.cookie_open_us", open_us, "us");
  result.add("core.cookie_seal_us", seal_us, "us");
  const double wired_n = std::max<double>(1, wired.sessions);
  result.add("app.client_rx_us_per_session",
             static_cast<double>(wired.spans.self_ns(kClientRx)) / 1e3 /
                 wired_n,
             "us");
  add_wired_metrics(wired, result);
  const double runs = std::max<double>(1, untraced.runs);
  result.add("quic.packets_per_session",
             static_cast<double>(untraced.packets_sent) / runs, "count");
  result.add("quic.retransmit_ratio",
             static_cast<double>(untraced.retransmitted_bytes) /
                 std::max<double>(1, untraced.stream_bytes),
             "ratio");
  result.add("quic.ptos_per_session",
             static_cast<double>(untraced.ptos) / runs, "count");
  result.add("obs.recorder_overhead", slowdown(untraced, recorder_off),
             "ratio");
  result.add("obs.metrics_overhead", slowdown(untraced, metrics_off),
             "ratio");
  result.add("app.first_byte_ms_p50", median(wired.first_byte_ms), "ms");
  result.add("app.frame_recv_ms_p50", median(wired.frame_recv_ms), "ms");
  // The sweeps have no daemon, socket or open-loop generator.
  result.add("proxyd.cpu_share", 0, "ratio");
  result.add("proxyd.datagrams_per_session", 0, "count");
  result.add("proxyd.rss_kb_per_session", 0, "KB");
  result.add("net.gen_rx_us_per_session", 0, "us");
  result.add("net.gen_lag_ms_p90", 0, "ms");
  result.add("trace_overhead", slowdown(traced, untraced), "ratio");

  result.note("batches", static_cast<double>(seeds.size()));
  result.note("sessions", static_cast<double>(untraced.sessions));
  result.note("untraced_sessions_per_s",
              static_cast<double>(untraced.sessions) / untraced.wall_s);
  result.note("traced_sessions_per_s",
              static_cast<double>(traced.sessions) / traced.wall_s);
  result.note("session_ms_samples",
              static_cast<double>(timing.session_ms.size()));
}

}  // namespace

void run_sweep(const RunArgs& args, RunResult& result) {
  const SweepSpec spec = args.workload == "sweep_flv"
                             ? SweepSpec{media::Container::kFlv, 1}
                             : SweepSpec{media::Container::kMpegTs, kWorkers};
  if (args.trace) {
    run_traced(args, spec, result);
  } else {
    run_untraced(args, spec, result);
  }
}

}  // namespace perfbench
