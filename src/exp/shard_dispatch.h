// Fleet-scale population dispatch (DESIGN.md §6): dynamic chunk
// scheduling over pluggable shard transports.
//
// Scheduling: the parent cuts the session index space [0, sessions) into
// contiguous chunks (PopulationConfig::chunk indices each) and keeps a
// queue of unassigned chunks.  Every worker holds at most two outstanding
// chunk assignments — one in flight, one buffered so the worker never idles
// between chunks — and receives the next queue chunk the moment its
// in-flight chunk completes.  Stragglers therefore stop gating the
// sweep: a slow worker simply pulls fewer chunks.  Reassembly is
// index-addressed and per-session seeding depends only on
// (config.seed, index), so stdout, metrics JSONL, and the parent's
// registry are byte-identical to serial at any worker count or chunk size.
//
// Transport: a ShardChannel abstracts the parent<->worker byte streams.
//   - thread (config.threads > 1): a std::thread in the parent's process
//     runs the worker loop over a control pipe and a data pipe.  Its
//     death reason is the exception a session threw ("threw: ...").
//   - pipe (config.processes > 1): fork; the child inherits the config,
//     a control pipe carries chunk assignments, a data pipe carries
//     record frames back.  waitpid gives exact death diagnoses ("killed
//     by signal 9", "exited with status 1").
//   - tcp (config.workers = {"host:port", ...}): connect to wira_workerd
//     daemons; one bidirectional socket carries a kConfig frame plus
//     assignments out and record frames back.  No exit status exists, so
//     a dead daemon is diagnosed from its stream state ("truncated
//     record stream", ...).
//
// All three speak exp/record_codec frames: control streams are
// [header][kConfig?][kChunkAssign...][kEnd], data streams are
// [header][kSessionRecord...][kEnd] — one wire format, one reader
// (exp::FrameReader), one failure taxonomy (PopulationShardError,
// retry_dead_shards) and one salvage contract for every channel kind.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "exp/population_experiment.h"

namespace wira::exp {

class RecordSink;

/// One contiguous range of session indices the scheduler dispatches as a
/// unit.
struct Chunk {
  size_t begin = 0;
  size_t end = 0;  ///< one past the last index

  size_t size() const { return end - begin; }
};

/// Cuts [0, sessions) into fixed-size chunks (the last one short).
/// chunk_size must be positive.
std::vector<Chunk> make_chunks(size_t sessions, size_t chunk_size);

/// Workers worth using for `n` independent items given a requested
/// count (0 = hardware concurrency); always at least 1.
size_t clamp_threads(size_t requested, size_t n);

/// One parent<->worker byte channel.  The dispatcher only needs: a
/// readable fd for record frames, a control-frame writer, a hard-kill
/// lever for cleanup, and a terminal classification.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// Fd the worker's record stream arrives on (poll()-able).
  virtual int data_fd() const = 0;
  /// Closes the parent-side read end (idempotent).
  virtual void close_data() = 0;
  /// Ships control bytes (assignments / end marker).  Failure means the
  /// worker is gone; its death is classified from the data stream.
  virtual bool send_control(const uint8_t* data, size_t n) = 0;
  /// Forcibly stops the worker (cleanup after a defect): a signal for a
  /// process, closed streams for a thread or socket.  Harmless on an
  /// already-dead worker.
  virtual void hard_kill() = 0;
  /// Reaps the worker and returns a dirty-exit reason ("killed by signal
  /// 9", "exited with status 3", "threw: ...") or "" when the transport
  /// has no exit status (TCP) or the exit was clean.  Call at most once,
  /// after EOF.
  virtual std::string finish() = 0;
};

/// Connects to a wira_workerd endpoint ("host:port") with a non-blocking
/// connect bounded by `connect_timeout_ms` (<=0 = no bound).  Throws
/// std::runtime_error only on a malformed endpoint (a config error);
/// resolve/connect failures and timeouts return a dead channel whose
/// data_fd() is -1 and whose finish() names the failure, so the
/// dispatcher's shard-death taxonomy classifies the endpoint and
/// retry_dead_shards can salvage its sessions.
std::unique_ptr<ShardChannel> connect_tcp_worker(const std::string& endpoint,
                                                 int connect_timeout_ms);

/// Shard worker loop of a forked pipe child (wira_workerd and thread
/// workers run the same loop): reads kChunkAssign/kEnd control frames
/// from control_fd, runs each assigned chunk through the serial session
/// code, and streams one kSessionRecord frame per completed session
/// (plus a final kEnd) to data_fd.  Returns the worker exit code: 0
/// clean, 1 a session threw, 2 control-protocol violation, 3 data write
/// failed (parent gone).  Owns its process: ignores SIGPIPE and honors
/// every fault-injection hook in `config`.  With `crash_replay` the child
/// re-runs a dead shard's chunk as a crash replay (DESIGN.md §7): each
/// (session, scheme) streams into anomaly_dir, and only a replay that
/// dies leaves its in-flight crash_session_<i>_<scheme> pair behind.
int run_shard_worker(const PopulationConfig& config, size_t worker,
                     int control_fd, int data_fd, bool crash_replay = false);

/// wira_workerd connection handler: reads the control header and the
/// kConfig frame (worker id + PopulationConfig) from `fd`, prepares the
/// trace/anomaly directories, then delegates to run_shard_worker with
/// the socket as both control and data stream.  Returns its exit code
/// (2 on a config/handshake violation).
int serve_shard_worker(int fd);

/// The multi-worker sweep behind both run_population overloads:
/// spawns/connects workers (TCP when config.workers is set, else forked
/// pipe children when processes > 1, else threads), dispatches chunks,
/// and hands each completed chunk's records to `sink` in strictly
/// increasing index order, holding O(workers · chunk) records at any
/// instant.  Metrics (when requested) are folded in that same index
/// order — bit-identical to the serial fold.  A worker death follows
/// run_population's failure contract.
void dispatch_population_stream(const PopulationConfig& config,
                                obs::MetricsRegistry* metrics,
                                RecordSink& sink);

}  // namespace wira::exp
