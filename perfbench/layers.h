// Per-layer probes of the traced runs.  Each one times the benchmark's own
// calls into a layer's public functions; nothing inside the program is
// instrumented.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "exp/population_experiment.h"
#include "exp/session_runner.h"
#include "media/stream_source.h"
#include "popgen/population.h"

namespace perfbench {

/// SessionConfig of session `i`, scheme `scheme`, of the population sweep
/// `pop_cfg`, drawn exactly as exp::run_population draws it (the runner's
/// draw is internal, so the benchmark repeats it from the public parts).
exp::SessionConfig population_session(const exp::PopulationConfig& pop_cfg,
                                      const popgen::Population& population,
                                      size_t i, core::Scheme scheme);

/// Span kinds of a self-wired session.
enum WiredSpan : size_t { kRunUntil, kServerRx, kClientRx, kLinkSend };

/// Totals over the self-wired sessions of one run.
struct WiredStats {
  SpanClock spans;
  uint64_t sessions = 0;
  uint64_t events = 0;       ///< events run_until executed
  uint64_t arena_bytes = 0;  ///< bytes handed out of the loop's arena
  std::vector<double> first_byte_ms;  ///< request -> first response byte
  std::vector<double> frame_recv_ms;  ///< first byte -> first frame done
};

/// Outcome fields compared against exp::run_session.
struct WiredOutcome {
  bool completed = false;
  TimeNs ffct = kNoTime;
  uint64_t packets_sent = 0;
  uint64_t ptos_fired = 0;
  TimeNs end_time = 0;  ///< loop time when the session stopped
};

/// Runs `cfg` wired by hand from sim::Path, media::LiveStream,
/// app::WiraServer and app::PlayerClient, as exp::run_session wires them,
/// with spans around every run_until, every link receiver (the app's
/// on_datagram) and every link send.  cfg must carry no tracer/recorder.
WiredOutcome run_wired_session(const exp::SessionConfig& cfg,
                               WiredStats& stats);

/// Runs `cfg` self-wired and through exp::run_session and checks they
/// agree in FFCT, packets_sent and ptos_fired.  Returns the wired outcome.
WiredOutcome wired_and_checked(const exp::SessionConfig& cfg,
                               WiredStats& stats, RunResult& result);

/// Media/core totals of replayed sessions.
struct MediaStats {
  uint64_t sessions = 0;
  uint64_t bytes = 0;
  int64_t mux_ns = 0;
  uint64_t parsed_bytes = 0;
  int64_t parse_ns = 0;
};

/// Replays one session's origin output through LiveStream — the join
/// burst at `join`, then the live tail in the one-second slices the
/// server pulls, up to `end` (capped at join + `horizon`) — and feeds the
/// bytes to a fresh core::FrameParser until FF_Size is known.
void replay_media(const media::StreamProfile& profile, uint64_t corpus_seed,
                  TimeNs join, TimeNs end, TimeNs horizon, MediaStats& stats,
                  RunResult& result);

/// Times core::CookieSealer::seal and ::open (µs per call, median of
/// several rounds) and checks every open returns the sealed record.
void probe_cookie(RunResult& result, double* seal_us, double* open_us);

/// Record-codec totals.
struct CodecStats {
  uint64_t records = 0;
  uint64_t bytes = 0;
  int64_t ns = 0;
};

/// Encodes `rec`, decodes it back, and checks the round trip re-encodes
/// to the same bytes.  Returns the encoding's FNV-1a hash.
uint64_t codec_round_trip(const exp::SessionRecord& rec, CodecStats& stats,
                          RunResult& result);

/// FNV-1a hash of `rec`'s codec encoding (built in `scratch`): the record
/// identity every cross-run comparison uses.
uint64_t record_hash(const exp::SessionRecord& rec,
                     std::vector<uint8_t>& scratch);

/// Adds the metrics of the layers built from WiredStats and MediaStats.
void add_wired_metrics(const WiredStats& wired, RunResult& result);
void add_media_metrics(const MediaStats& media, RunResult& result);

}  // namespace perfbench
