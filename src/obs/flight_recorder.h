// Always-on flight recorder (DESIGN.md §7): a bounded, POD-encoded record
// of every session's trace events, cheap enough to leave attached to all
// sessions (not just --trace-sample'd ones) and materialized only when
// something goes wrong.
//
// Layout per vantage (server / client):
//   - a MILESTONE array for the low-rate events the cross-vantage join
//     needs (request_sent, frame_complete, handshake, cookies, corner
//     cases, stalls, decode errors, ...).  Milestones are never evicted
//     by packet churn, so a dump of an arbitrarily long session still
//     joins cleanly via obs/trace_join.
//   - a transport RING for the high-rate events (packet send/recv/ack/
//     loss, rtt/cwnd/pacing samples, PTOs, cc state).  Oldest entries are
//     overwritten; a dump shows the most recent transport history.
//
// Every event slot is preallocated in the constructor and recycled with
// reset(): steady-state recording performs zero heap allocations, so the
// recorder rides inside the soak's allocs-per-session gate.  A slot is a
// trace::Event, which is already POD (fixed, truncated detail field).
//
// Two materialization paths:
//   - write_sqlog_pair(): the anomaly path.  Merges the milestone and ring
//     slots by time and streams them through the standard
//     QlogStreamWriter, producing the same paired .server.sqlog/
//     .client.sqlog artifact a sampled session writes — wira_trace_join
//     joins it with no special casing.
//   - crash_dump(): the forensic path.  Async-signal-safe raw dump of
//     both vantages to a pre-opened fd — only write() and arithmetic, no
//     allocation, no locks, no stdio — so a worker dying on SIGSEGV can
//     leave its in-flight session's history behind.  The parent reads it
//     back (read_crash_dump) and materializes the same sqlog pair.
//
// Commit protocol (the signal-safety contract): an event is copied into
// its slot first, then the vantage's committed counter is advanced with a
// release store.  A signal handler interrupting record-in-progress reads
// the counter and sees only fully written slots; at worst the event being
// written when the signal hit is absent from the dump.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/tracer.h"

namespace wira::obs {

/// True for low-rate events kept in the milestone array (everything the
/// cross-vantage join or an anomaly trigger reads); false for the
/// high-rate transport events that go through the ring.
bool recorder_milestone(trace::EventType t);

struct RecorderConfig {
  size_t milestone_capacity = 192;  ///< overflow spills into the ring
  size_t ring_capacity = 512;
};

/// One vantage point's bounded recording.  Attach with
/// Tracer::add_sink(&recorder) — it coexists with a qlog writer sink.
class VantageRecorder : public trace::EventSink {
 public:
  explicit VantageRecorder(const RecorderConfig& cfg);

  void on_event(const trace::Event& e) override;

  /// Recycles the recorder for the next session: O(1), frees nothing.
  void reset();

  /// Events seen this session (committed; includes ring-evicted ones).
  uint64_t total_events() const;
  /// Events of `t` seen this session (counted even after ring eviction).
  uint32_t count(trace::EventType t) const;
  /// Events currently retained (milestones + ring occupancy).
  size_t retained() const;

  /// Retained events in non-decreasing time order (milestones and ring
  /// merged).  Allocates — dump path only.
  std::vector<trace::Event> snapshot() const;

  /// Async-signal-safe raw dump: writes the committed milestone slots and
  /// the ring contents (oldest first) to `fd`, preceded by their counts.
  /// Returns false if any write() failed.
  bool dump_raw(int fd) const;

 private:
  void store(std::vector<trace::Event>& slots, std::atomic<uint64_t>& seq,
             size_t slot, const trace::Event& e);

  std::vector<trace::Event> milestones_;
  std::vector<trace::Event> ring_;
  /// Committed event counts (see the commit protocol above).  milestone_
  /// count_ never exceeds the array capacity; ring_seq_ counts every ring
  /// push (occupancy = min(seq, capacity), next slot = seq % capacity).
  std::atomic<uint64_t> milestone_count_{0};
  std::atomic<uint64_t> ring_seq_{0};
  uint32_t type_counts_[trace::kEventTypeCount] = {};
};

/// Both vantages of one session plus the crash-forensics entry points.
class FlightRecorder {
 public:
  explicit FlightRecorder(const RecorderConfig& cfg = {})
      : server_(cfg), client_(cfg) {}

  VantageRecorder& server() { return server_; }
  VantageRecorder& client() { return client_; }
  const VantageRecorder& server() const { return server_; }
  const VantageRecorder& client() const { return client_; }

  void reset() {
    server_.reset();
    client_.reset();
  }

  /// Events of `t` across both vantages.
  uint32_t count(trace::EventType t) const {
    return server_.count(t) + client_.count(t);
  }

  /// Materializes the retained events as a paired qlog sample named
  /// `name` (obs::write_sqlog_pair, the same convention --trace-sample
  /// artifacts follow) so obs/trace_join joins the pair unchanged.
  void write_sqlog_pair(std::ostream& server_os, std::ostream& client_os,
                        const std::string& name) const;

  /// Async-signal-safe crash dump of both vantages to a pre-opened fd.
  bool crash_dump(int fd, uint64_t session_index, uint32_t scheme) const;

  /// Parsed crash_dump() artifact: per-vantage events, time-ordered.
  struct CrashDump {
    uint64_t session_index = 0;
    uint32_t scheme = 0;
    std::vector<trace::Event> server_events;
    std::vector<trace::Event> client_events;
  };
  static bool read_crash_dump(std::istream& in, CrashDump* out,
                              std::string* error);

 private:
  VantageRecorder server_;
  VantageRecorder client_;
};

}  // namespace wira::obs
