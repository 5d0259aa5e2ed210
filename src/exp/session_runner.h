// Runs one emulated live-streaming session end-to-end: client + Wira proxy
// server over an emulated path, and collects the metrics the paper reports
// (FFCT, first-frame loss rate, follow-up frame completion/loss).
#pragma once

#include <optional>

#include "app/player_client.h"
#include "app/wira_server.h"
#include "core/init_config.h"
#include "media/stream_source.h"
#include "obs/phase_timeline.h"
#include "sim/path.h"
#include "trace/tracer.h"

namespace wira::exp {

struct SessionConfig {
  sim::PathConfig path;
  core::Scheme scheme = core::Scheme::kWira;
  cc::CcAlgo cc_algo = cc::CcAlgo::kBbrV1;
  uint64_t seed = 1;

  media::StreamProfile stream;
  uint64_t corpus_seed = 42;
  /// The client starts at this simulated time: controls both the join
  /// position within the stream and cookie-age arithmetic.
  TimeNs start_time = 0;

  uint32_t theta_vf = 1;
  /// Client has the server config cached -> 0-RTT handshake.
  bool zero_rtt = true;
  /// Pre-seeded transport cookie from the "previous session" (sealed with
  /// the server's key by the runner); nullopt = no cookie.
  std::optional<core::HxQosRecord> cookie;
  /// Whether the client even declares HQST support.
  bool client_supports_cookie = true;
  /// Group-average QoS for Scheme::kUserGroup.
  std::optional<core::HxQosRecord> ug_qos;

  core::ExperiencedDefaults defaults;
  TimeNs staleness_threshold = core::kDefaultStaleness;
  TimeNs sync_period = core::kDefaultSyncPeriod;
  bool cookie_sync_enabled = true;
  bool careful_resume = false;  ///< see app::ServerConfig::careful_resume
  TimeNs origin_latency = milliseconds(5);
  uint32_t track_frames = 4;
  TimeNs max_session_time = seconds(10);

  /// Decompose FFCT into phase spans (SessionResult::phases), built by
  /// ffct_boundaries() from timestamps the server and client keep anyway.
  /// Off by default: the spans add to every record and its codec bytes.
  bool collect_phases = false;
  /// Event sink for the server (e.g. a qlog writer); not owned.
  trace::EventSink* tracer = nullptr;
  /// Event sink for the *client* (the client-vantage half of a paired
  /// qlog sample; see obs/trace_join.h); not owned.
  trace::EventSink* client_tracer = nullptr;
};

struct FrameStat {
  TimeNs completion = kNoTime;  ///< from request send; kNoTime = incomplete
  double loss_rate = 0;         ///< link-level loss over the frame's window
};

namespace detail {
/// Link counter snapshot used for per-frame loss windows (scratch state
/// kept in the workspace so it can be recycled across sessions).
struct LinkWindow {
  uint64_t attempts = 0;
  uint64_t drops = 0;
};
}  // namespace detail

struct SessionResult;
struct ManualInitConfig;

/// Reusable per-worker session machinery (DESIGN.md §6 memory model).
///
/// Building a session from scratch pays for an event loop (callable
/// slots, heap storage, buffer pool, arena blocks) every time; at soak
/// scale that dominates the allocation profile.  A SessionWorkspace owns
/// that machinery once per worker: run_session(config, workspace) resets
/// the loop (capacities retained, see sim::EventLoop::reset) and reuses
/// it.  Per-packet state comes from capacity the loop keeps across
/// sessions — pooled datagram and chunk buffers, sent-packet nodes (with
/// the rate sampler's snapshot inside), reassembly segments — so a warm
/// session's allocations do not grow with the packets it sends
/// (AllocScaling.*).  Chunks and datagrams still in flight when a session
/// ends ride their loop events as util::PooledBuffers, so the reset that
/// starts the next session returns them to the pool.  What remains is
/// session-shaped: the connection, stream and client objects, their
/// growing buffers, and one sized buffer per cookie seal or handshake
/// message.  Results are bit-identical to workspace-free runs — the reset
/// contract is "indistinguishable from a fresh loop".
///
/// Not thread-safe: one workspace per worker thread/process, like the
/// loop it owns.
class SessionWorkspace {
 public:
  SessionWorkspace() = default;
  SessionWorkspace(const SessionWorkspace&) = delete;
  SessionWorkspace& operator=(const SessionWorkspace&) = delete;

  /// Sessions hosted so far (diagnostics; soak progress reports).
  uint64_t sessions_run() const { return sessions_run_; }
  /// The recycled event loop (exposed for capacity-reuse assertions).
  sim::EventLoop& loop() { return loop_; }

  /// Anomaly dump *files* this workspace has materialized — the
  /// population sweep caps files per worker (trigger counters are never
  /// capped).  Public scratch, like the workspace itself.
  uint64_t anomaly_dumps_written = 0;

 private:
  friend SessionResult run_session(const SessionConfig&, SessionWorkspace&);
  friend SessionResult run_manual_init_session(const ManualInitConfig&);

  sim::EventLoop loop_;
  std::vector<detail::LinkWindow> frame_snapshots_;  ///< scratch
  uint64_t sessions_run_ = 0;
};

struct SessionResult {
  bool first_frame_completed = false;
  TimeNs ffct = kNoTime;
  double fflr = 0;  ///< link-level loss rate over the first-frame window
  std::vector<FrameStat> frames;  ///< video frames 1..track_frames
  bool zero_rtt = false;
  uint64_t ff_size = 0;            ///< parser-reported FF_Size (0 if n/a)
  core::InitDecision init;
  quic::ConnStats server_stats;    ///< end-of-session snapshot
  double retransmission_ratio = 0; ///< retransmitted/sent stream bytes
  uint64_t cookies_synced = 0;
  uint64_t client_cookies_received = 0;

  // ---- observability (PR 2) ----
  /// FFCT phase partition (empty unless SessionConfig::collect_phases and
  /// the first frame completed).  Spans sum to exactly `ffct`.
  std::vector<obs::PhaseSpan> phases;
  /// Corner case 1 fired: the send controller was initialized at least
  /// once before FF_Size was parsed (init_cwnd_exp substituted).
  bool cwnd_fallback = false;
  /// The client attempted 0-RTT but the handshake fell back to 1-RTT.
  bool zero_rtt_rejected = false;

  // ---- anomaly-trigger inputs (DESIGN.md §7) ----
  /// Counted whether or not a tracer is attached; each equals the count
  /// of the matching trace event a fully traced run emits.  Read where
  /// the run happens (never encoded into records).
  uint32_t stalls_observed = 0;     ///< client receive gaps (stall_observed)
  uint32_t ff_fallback_inits = 0;   ///< corner case 1 inits (corner_case)
  uint32_t stale_cookie_inits = 0;  ///< corner case 2 inits (corner_case)
  uint64_t client_packets_undecodable = 0;  ///< client-side decode_error

  // ---- allocation accounting (PR 4) ----
  /// Cumulative bytes the session's event loop handed out of its bump
  /// arena (perf diagnostics only; never exported to session JSONL).
  uint64_t arena_bytes = 0;
};

/// One session on a fresh, local SessionWorkspace.
SessionResult run_session(const SessionConfig& config);

/// Workspace-recycling variant: byte-identical results, but the event
/// loop, buffer pool, arena blocks and scratch vectors come from `ws`
/// (reset + reused) instead of being rebuilt, cutting steady-state heap
/// allocations per session (the soak path; see DESIGN.md §6).
SessionResult run_session(const SessionConfig& config, SessionWorkspace& ws);

/// Convenience: session on the paper's Fig. 2 testbed path with explicit
/// init parameters (bypassing the schemes) — used by the init sweeps.
struct ManualInitConfig {
  sim::PathConfig path = sim::testbed_path();
  uint64_t init_cwnd_bytes = 0;
  Bandwidth init_pacing = 0;
  media::StreamProfile stream;
  uint64_t corpus_seed = 42;
  uint64_t seed = 1;
  TimeNs start_time = 0;
  bool collect_phases = false;  ///< see SessionConfig::collect_phases
};
SessionResult run_manual_init_session(const ManualInitConfig& config);

/// One session's FFCT phase boundaries: the server's request_received /
/// first_origin_byte / ff_parsed marks plus the client's request, first
/// video byte (first stream byte when no video byte arrived) and first
/// frame instants.
obs::FfctBoundaries ffct_boundaries(const app::WiraServer& server,
                                    const app::PlayerClient& client);

}  // namespace wira::exp
