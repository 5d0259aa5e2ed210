// Dynamic chunk dispatcher over forked shard workers (DESIGN.md §6).  See
// shard_dispatch.h for the scheduling and transport contracts; this file
// holds the worker loop a forked child runs, the pipe channel the parent
// holds for it, and the dispatch driver.  Both ends read their incoming
// stream through one exp::FrameReader: the worker blocks on its control
// stream (next_control), the parent parses each record stream as poll()
// reports data (ChunkDispatcher::parse).
#include "exp/shard_dispatch.h"

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exp/population_internal.h"
#include "exp/record_codec.h"
#include "exp/record_sink.h"
#include "obs/metrics.h"
#include "popgen/population.h"
#include "util/logging.h"

namespace wira::exp {
namespace {

// The parent writes control frames to workers that may already be dead;
// without this the resulting EPIPE raises SIGPIPE and kills the sweep
// instead of letting the data-stream classifier name the death.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    struct sigaction ign = {};
    ign.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ign, &old_);
  }
  ~SigpipeGuard() { sigaction(SIGPIPE, &old_, nullptr); }

  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  struct sigaction old_ = {};
};

}  // namespace

std::vector<Chunk> make_chunks(size_t sessions, size_t chunk_size) {
  std::vector<Chunk> chunks;
  for (size_t at = 0; at < sessions; at += chunk_size) {
    chunks.push_back({at, std::min(sessions, at + chunk_size)});
  }
  return chunks;
}

size_t clamp_threads(size_t requested, size_t n) {
  if (requested == 0) {
    // Online CPUs: what hardware_concurrency() reports on glibc.
    requested = static_cast<size_t>(
        std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN)));
  }
  return std::max<size_t>(1, std::min(requested, n));
}

namespace {

// ---- worker side --------------------------------------------------------

/// Blocks for the next control frame on `fd`.  False on EOF, a read
/// error or corruption.  The view borrows `reader` until its next fill().
bool next_control(FrameReader& reader, int fd, FrameView* view) {
  for (;;) {
    const FrameStatus st = reader.next(view);
    if (st == FrameStatus::kOk) return true;
    if (st == FrameStatus::kCorrupt || reader.fill(fd) <= 0) return false;
  }
}

/// Worker loop body: reads kChunkAssign/kEnd control frames from
/// control_fd, runs each assigned chunk through the serial session code,
/// and streams one kSessionRecord frame per completed session (plus a
/// final kEnd) to data_fd.  It owns its process, so it honors the
/// signal-raising fault hooks.  A non-null `crash` makes this a crash
/// replay (internal::CrashReplay).  Returns 0 clean, 1 a session threw
/// (reported on stderr, since the exit status alone cannot carry it), 2
/// control-protocol violation, 3 data write failed (parent gone).
int run_worker_loop(const PopulationConfig& config, size_t worker,
                    int control_fd, int data_fd,
                    internal::CrashReplay* crash) {
  FrameReader control;
  std::vector<uint8_t> out;
  try {
    append_stream_header(out);
    popgen::Population population(config.seed * 31 + 7, config.num_groups);
    SessionWorkspace ws;

    bool end = false;
    std::deque<Chunk> todo;
    while (!end || !todo.empty()) {
      if (todo.empty()) {
        FrameView view;
        if (!next_control(control, control_fd, &view)) return 2;
        if (view.type == FrameType::kEnd) {
          end = true;
          continue;
        }
        if (view.type != FrameType::kChunkAssign) return 2;
        CodecReader r(view.payload);
        uint64_t begin = 0;
        uint64_t e = 0;
        if (!r.u64(&begin) || !r.u64(&e) || r.remaining() != 0 || begin > e) {
          return 2;
        }
        todo.push_back({static_cast<size_t>(begin), static_cast<size_t>(e)});
        continue;
      }
      const Chunk chunk = todo.front();
      todo.pop_front();
      for (size_t i = chunk.begin; i < chunk.end; ++i) {
        if (i == config.kill_at_index) {
          // Fault injection: flush what we have (header included) so the
          // parent sees a well-formed prefix, then die like a crash would.
          (void)internal::write_all(data_fd, out.data(), out.size());
          std::raise(SIGKILL);
        }
        const SessionRecord rec =
            internal::run_one_session(config, population, i, ws, crash);
        std::vector<uint8_t> payload;
        CodecWriter w(payload);
        w.u64(i);
        encode_session_record(rec, w);
        append_frame(FrameType::kSessionRecord, {payload.data(), payload.size()},
                     out);
        if (!internal::write_all(data_fd, out.data(), out.size())) return 3;
        out.clear();
        if (i == config.crash_after_index) {
          // Die of the signal itself, as an unhandled crash would, even
          // where a handler for it is installed (a sanitizer's).
          std::signal(config.crash_after_signal, SIG_DFL);
          std::raise(config.crash_after_signal);
        }
      }
    }
    append_frame(FrameType::kEnd, {}, out);
    if (!internal::write_all(data_fd, out.data(), out.size())) return 3;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wira population worker %zu: %s\n", worker,
                 e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "wira population worker %zu: unknown exception\n",
                 worker);
    return 1;
  }
}

/// Body of a forked pipe child.  A write to a vanished parent must fail
/// (exit 3) instead of raising SIGPIPE.  With `crash_replay` the child
/// re-runs a dead shard's chunk as a crash replay (DESIGN.md §7): each
/// (session, scheme) streams into anomaly_dir, and only a replay that dies
/// leaves its in-flight crash_session_<i>_<scheme> pair behind.
int run_shard_worker(const PopulationConfig& config, size_t worker,
                     int control_fd, int data_fd, bool crash_replay) {
  std::signal(SIGPIPE, SIG_IGN);
  internal::CrashReplay crash;
  const int code = run_worker_loop(config, worker, control_fd, data_fd,
                                   crash_replay ? &crash : nullptr);
  crash.discard();  // still alive: nothing crashed
  return code;
}

// ---- transports ---------------------------------------------------------

/// Opens one local worker's control pipe (parent writes cfds[1]) and data
/// pipe (parent reads dfds[0]).  Throws, leaking nothing, on failure.
void open_worker_pipes(int cfds[2], int dfds[2]) {
  if (pipe(cfds) != 0) {
    throw std::runtime_error("run_population: pipe() failed");
  }
  if (pipe(dfds) != 0) {
    close(cfds[0]);
    close(cfds[1]);
    throw std::runtime_error("run_population: pipe() failed");
  }
}

/// Closes *fd once (idempotent: -1 afterwards).
void close_fd(int* fd) {
  if (*fd >= 0) {
    close(*fd);
    *fd = -1;
  }
}

/// The parent's end of one forked worker: a control pipe it writes chunk
/// assignments to, a data pipe the worker's record stream arrives on, and
/// the pid that waitpid() classifies the worker's exit from.
class PipeShardChannel {
 public:
  PipeShardChannel(pid_t pid, int control_fd, int data_fd)
      : pid_(pid), control_fd_(control_fd), data_fd_(data_fd) {}

  ~PipeShardChannel() {
    close_fd(&control_fd_);
    close_fd(&data_fd_);
    if (!reaped_) {
      kill(pid_, SIGKILL);
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }

  int control_fd() const { return control_fd_; }
  /// Fd the worker's record stream arrives on (poll()-able).
  int data_fd() const { return data_fd_; }
  /// Closes the parent-side read end (idempotent).
  void close_data() { close_fd(&data_fd_); }

  /// Ships control bytes (assignments / end marker).  Failure means the
  /// worker is gone; its death is classified from the data stream.
  bool send_control(const uint8_t* data, size_t n) {
    if (control_fd_ < 0) return false;
    return internal::write_all(control_fd_, data, n);
  }

  /// Forcibly stops the worker (cleanup after a defect).  Harmless on an
  /// already-dead worker.
  void hard_kill() { kill(pid_, SIGKILL); }

  /// Reaps the worker and returns a dirty-exit reason ("killed by signal
  /// 9", "exited with status 3") or "" for a clean exit.  Call at most
  /// once, after EOF.
  std::string finish() {
    close_fd(&control_fd_);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    reaped_ = true;
    if (WIFSIGNALED(status)) {
      return "killed by signal " + std::to_string(WTERMSIG(status));
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      return "exited with status " + std::to_string(WEXITSTATUS(status));
    }
    return "";
  }

 private:
  pid_t pid_;
  int control_fd_;
  int data_fd_;
  bool reaped_ = false;
};

// ---- parent side --------------------------------------------------------

struct WorkerState {
  std::unique_ptr<PipeShardChannel> ch;
  std::deque<size_t> assigned;  ///< chunk ids; front is in flight
  size_t pos = 0;               ///< sessions completed of the front chunk

  FrameReader reader;
  bool end_seen = false;
  bool eof = false;
  bool retired = false;   ///< dead worker whose sessions re-run in-process
  bool end_sent = false;  ///< kEnd control frame shipped
  std::string defect;         ///< first stream-level defect, latched
  std::string finish_reason;  ///< from PipeShardChannel::finish()

  /// Parsed records not yet handed to the sink, in index order.
  std::deque<std::pair<size_t, SessionRecord>> ready;

  // Last completed chunk, for naming deaths that happen between chunks.
  size_t last_begin = 0;
  size_t last_end = 0;
};

/// Owner marker for a queue chunk the parent claimed to run in-process.
constexpr int kInProcess = -2;

/// "worker W (sessions [a,b)) <reason> while on session I".
std::string describe(const ShardDeath& d) {
  return "worker " + std::to_string(d.worker) + " (sessions [" +
         std::to_string(d.stripe_begin) + "," + std::to_string(d.stripe_end) +
         ")) " + d.reason + " while on session " + std::to_string(d.died_at);
}

class ChunkDispatcher {
 public:
  explicit ChunkDispatcher(const PopulationConfig& config)
      : config_(config), stats_(config.dispatch_stats) {
    const size_t requested = clamp_threads(config.processes, config.sessions);
    chunks_ = make_chunks(config.sessions, config.chunk);
    chunk_owner_.assign(chunks_.size(), -1);
    // S1: never materialize a worker that would get an empty assignment.
    w_count_ = std::min(requested, chunks_.size());
    if (stats_ != nullptr) {
      stats_->workers_spawned = w_count_;
      stats_->busy_workers = 0;
      stats_->chunks_completed.assign(w_count_, 0);
      stats_->sessions_completed.assign(w_count_, 0);
    }
  }

  const std::vector<Chunk>& chunks() const { return chunks_; }
  std::vector<WorkerState>& workers() { return workers_; }
  int owner_of(size_t chunk_id) const { return chunk_owner_[chunk_id]; }
  bool queue_empty() const { return next_chunk_ >= chunks_.size(); }

  /// Chunk containing session index i (chunks are contiguous and sorted).
  size_t chunk_index_of(size_t i) const {
    size_t lo = 0;
    size_t hi = chunks_.size();
    while (lo + 1 < hi) {
      const size_t mid = (lo + hi) / 2;
      if (chunks_[mid].begin <= i) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void spawn() {
    workers_.resize(w_count_);
    std::vector<int> parent_fds;  // earlier workers' parent-side fds
    for (size_t w = 0; w < w_count_; ++w) {
      workers_[w].ch = fork_worker(w, parent_fds, /*crash_replay=*/false);
      parent_fds.push_back(workers_[w].ch->control_fd());
      parent_fds.push_back(workers_[w].ch->data_fd());
    }
    // Stream header + the double-buffered initial deal: two rounds of one
    // chunk each, round-robin, so every worker starts with an in-flight
    // chunk plus one buffered.  The round-robin order also pins chunk i
    // -> worker i for i < W, which the death-message tests rely on.
    std::vector<uint8_t> header;
    append_stream_header(header);
    for (size_t w = 0; w < w_count_; ++w) {
      workers_[w].ch->send_control(header.data(), header.size());
    }
    for (int round = 0; round < 2; ++round) {
      for (size_t w = 0; w < w_count_ && next_chunk_ < chunks_.size(); ++w) {
        assign_chunk(w, next_chunk_++);
      }
    }
    for (size_t w = 0; w < w_count_; ++w) {
      maybe_send_end(w);
    }
    update_busy();
  }

  void assign_chunk(size_t w, size_t chunk_id) {
    const Chunk& c = chunks_[chunk_id];
    std::vector<uint8_t> payload;
    CodecWriter cw(payload);
    cw.u64(static_cast<uint64_t>(c.begin));
    cw.u64(static_cast<uint64_t>(c.end));
    std::vector<uint8_t> frame;
    append_frame(FrameType::kChunkAssign, {payload.data(), payload.size()},
                 frame);
    // A send failure means the worker died; the data-stream classifier
    // will name the death, so ignore it here.
    workers_[w].ch->send_control(frame.data(), frame.size());
    workers_[w].assigned.push_back(chunk_id);
    chunk_owner_[chunk_id] = static_cast<int>(w);
  }

  void maybe_send_end(size_t w) {
    WorkerState& ws = workers_[w];
    if (ws.end_sent || !ws.assigned.empty() || !queue_empty()) return;
    std::vector<uint8_t> frame;
    append_frame(FrameType::kEnd, {}, frame);
    ws.ch->send_control(frame.data(), frame.size());
    ws.end_sent = true;
  }

  /// Takes the queue head (chunk_id) off the queue to run in-process.
  void claim_in_process(size_t chunk_id) {
    next_chunk_++;
    chunk_owner_[chunk_id] = kInProcess;
  }

  /// Failure path: deal no further queue chunks, so every surviving
  /// worker ends its stream once its in-flight assignments drain.
  void stop_dealing() {
    next_chunk_ = chunks_.size();
    for (size_t w = 0; w < w_count_; ++w) maybe_send_end(w);
  }

  /// Incremental parse of worker w's buffered record stream.  Records
  /// land in ws.ready; chunk completions trigger the next assignment (or
  /// kEnd).  Any wire defect latches ws.defect and stops the parse.
  void parse(size_t w) {
    WorkerState& ws = workers_[w];
    if (!ws.defect.empty() || ws.end_seen) return;
    for (;;) {
      FrameView view;
      const FrameStatus st = ws.reader.next(&view);
      if (st == FrameStatus::kNeedMore) return;
      if (st == FrameStatus::kCorrupt) {
        ws.defect = ws.reader.header_seen() ? "corrupt frame (checksum or type)"
                                            : "bad codec magic/version";
        return;
      }
      if (view.type == FrameType::kEnd) {
        ws.end_seen = true;
        if (ws.reader.pending() != 0) {
          ws.defect = "trailing bytes after end marker";
        }
        return;
      }
      if (view.type != FrameType::kSessionRecord) {
        ws.defect = "unexpected control frame on record stream";
        return;
      }
      CodecReader r(view.payload);
      uint64_t index = 0;
      SessionRecord rec;
      if (!r.u64(&index) || !decode_session_record(r, &rec) ||
          r.remaining() != 0) {
        ws.defect = "undecodable session record";
        return;
      }
      if (ws.assigned.empty()) {
        ws.defect = "session record outside any assignment";
        return;
      }
      const Chunk& cur = chunks_[ws.assigned.front()];
      if (index != cur.begin + ws.pos) {
        ws.defect = "session index out of assignment order";
        return;
      }
      ws.ready.emplace_back(static_cast<size_t>(index), std::move(rec));
      ws.pos++;
      if (stats_ != nullptr) stats_->sessions_completed[w]++;
      if (ws.pos == cur.size()) {
        ws.last_begin = cur.begin;
        ws.last_end = cur.end;
        ws.assigned.pop_front();
        ws.pos = 0;
        if (stats_ != nullptr) stats_->chunks_completed[w]++;
        if (!queue_empty()) {
          assign_chunk(w, next_chunk_++);
        } else {
          maybe_send_end(w);
        }
        update_busy();
      }
    }
  }

  /// Waits for data on every live worker `pollable` admits and parses
  /// what arrived.  False when no worker qualifies (or poll() fails).
  template <typename Pollable>
  bool pump(Pollable pollable) {
    std::vector<struct pollfd> pfds;
    std::vector<size_t> owner;
    for (size_t w = 0; w < w_count_; ++w) {
      const WorkerState& ws = workers_[w];
      if (ws.retired || ws.eof || !ws.defect.empty() || !pollable(ws)) {
        continue;
      }
      pfds.push_back({ws.ch->data_fd(), POLLIN, 0});
      owner.push_back(w);
    }
    if (pfds.empty()) return false;
    if (poll(pfds.data(), pfds.size(), -1) < 0) return errno == EINTR;
    for (size_t p = 0; p < pfds.size(); ++p) {
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerState& ws = workers_[owner[p]];
      if (ws.reader.fill(ws.ch->data_fd()) > 0) {
        parse(owner[p]);
      } else {
        ws.eof = true;
        ws.ch->close_data();
      }
      // A worker that dies holding assignments sinks the sweep (retry
      // off): deal survivors nothing further, so what they complete —
      // and so the salvage — does not depend on when the cursor gets
      // to the dead worker's chunk.
      if ((ws.eof || !ws.defect.empty()) && !ws.assigned.empty() &&
          !config_.retry_dead_shards) {
        stop_dealing();
      }
    }
    return true;
  }

  /// Retry path: stops dead worker w.  Its chunks stay owned by it, so
  /// the driver can still take the records it streamed.
  ShardDeath retire(size_t w) {
    WorkerState& ws = workers_[w];
    ws.ch->hard_kill();
    ws.ch->close_data();
    ws.finish_reason = ws.ch->finish();
    ws.retired = true;
    update_busy();
    return make_death(w);
  }

  /// Reaps every worker not already retired; returns the dirty ones.
  std::vector<ShardDeath> reap() {
    std::vector<ShardDeath> deaths;
    for (size_t w = 0; w < w_count_; ++w) {
      WorkerState& ws = workers_[w];
      if (ws.retired) continue;
      // A corrupt stream never recovers: stop the worker before waiting.
      if (!ws.defect.empty()) ws.ch->hard_kill();
      ws.ch->close_data();
      ws.finish_reason = ws.ch->finish();
      if (!ws.defect.empty() || !ws.finish_reason.empty() || !ws.end_seen ||
          !ws.assigned.empty()) {
        deaths.push_back(make_death(w));
      }
    }
    return deaths;
  }

  /// Crash replay (DESIGN.md §7): re-runs a dead worker's chunk, from its
  /// first index through the session it died on, in one forked child
  /// whose every (session, scheme) streams into anomaly_dir as a
  /// crash_session_<i>_<scheme> pair (internal::CrashReplay).  Sessions
  /// are pure functions of (config, index), so a crash that recurs leaves
  /// the pair it was in flight on, counted as `anomaly.dumps.crash`.  A
  /// replay that survives leaves no pair: the crash depended on something
  /// outside the session (state leaking between sessions, or the host),
  /// itself a finding worth the warning.
  void replay_crash(const ShardDeath& d, obs::MetricsRegistry* metrics) const {
    if (!config_.flight_recorder || config_.anomaly_dir.empty()) return;
    const size_t end = std::min(d.died_at + 1, d.stripe_end);
    if (d.stripe_begin >= end) return;
    const std::unique_ptr<PipeShardChannel> ch =
        fork_worker(static_cast<size_t>(d.worker), {}, /*crash_replay=*/true);
    std::vector<uint8_t> control;
    append_stream_header(control);
    std::vector<uint8_t> payload;
    CodecWriter cw(payload);
    cw.u64(static_cast<uint64_t>(d.stripe_begin));
    cw.u64(static_cast<uint64_t>(end));
    append_frame(FrameType::kChunkAssign, {payload.data(), payload.size()},
                 control);
    append_frame(FrameType::kEnd, {}, control);
    ch->send_control(control.data(), control.size());
    // The replay's records are known already: drain them unread.
    uint8_t sink[4096];
    for (;;) {
      const ssize_t n = read(ch->data_fd(), sink, sizeof sink);
      if (n > 0 || (n < 0 && errno == EINTR)) continue;
      break;
    }
    ch->close_data();
    const std::string replay = ch->finish();
    if (replay.rfind("killed by signal", 0) == 0) {
      WIRA_WARN("population", "crash replay: " + describe(d) + " recurred (" +
                                  replay + "); its trace pair is in " +
                                  config_.anomaly_dir);
      if (metrics != nullptr) metrics->inc("anomaly.dumps.crash");
      return;
    }
    if (replay.empty()) {
      WIRA_WARN("population",
                "crash of " + describe(d) + " did not reproduce on replay");
      return;
    }
    // A throwing session, or a sanitizer that caught the fault and exited.
    WIRA_WARN("population", "crash replay: " + describe(d) + " ended without"
                            " a signal (replay " + replay + ")");
  }

  /// Names the death: in-flight chunk if one exists, else the last chunk
  /// the worker completed (death between chunks / after its assignment).
  ShardDeath make_death(size_t w) const {
    const WorkerState& ws = workers_[w];
    ShardDeath d;
    d.worker = static_cast<int>(w);
    if (!ws.assigned.empty()) {
      const Chunk& c = chunks_[ws.assigned.front()];
      d.stripe_begin = c.begin;
      d.stripe_end = c.end;
      d.died_at = c.begin + ws.pos;
    } else {
      d.stripe_begin = ws.last_begin;
      d.stripe_end = ws.last_end;
      d.died_at = ws.last_end;
    }
    d.reason = death_reason(ws);
    return d;
  }

 private:
  /// EOF classification: defect > transport reason > protocol state.
  static std::string death_reason(const WorkerState& ws) {
    if (!ws.defect.empty()) return ws.defect;
    if (!ws.finish_reason.empty()) return ws.finish_reason;
    if (ws.end_seen && (!ws.assigned.empty() || !ws.end_sent)) {
      return "end marker before assignment complete";
    }
    if (!ws.reader.header_seen()) {
      return "truncated record stream (no header)";
    }
    return "truncated record stream";
  }

  void update_busy() {
    if (stats_ == nullptr) return;
    size_t busy = 0;
    for (const WorkerState& ws : workers_) {
      if (!ws.retired && !ws.eof && !ws.assigned.empty()) busy++;
    }
    stats_->busy_workers = std::max(stats_->busy_workers, busy);
  }

  /// Forks worker w over a fresh control/data pipe pair.  The child drops
  /// every parent-side fd in `inherited` so a sibling's EOF is not held
  /// open by it, runs run_shard_worker and _Exits with its code.
  std::unique_ptr<PipeShardChannel> fork_worker(
      size_t w, const std::vector<int>& inherited, bool crash_replay) const {
    int cfds[2];  // parent writes control -> child reads
    int dfds[2];  // child writes data -> parent reads
    open_worker_pipes(cfds, dfds);
    const pid_t pid = fork();
    if (pid < 0) {
      close(cfds[0]);
      close(cfds[1]);
      close(dfds[0]);
      close(dfds[1]);
      throw std::runtime_error("run_population: fork() failed");
    }
    if (pid == 0) {
      for (const int fd : inherited) close(fd);
      close(cfds[1]);
      close(dfds[0]);
      _Exit(run_shard_worker(config_, w, cfds[0], dfds[1], crash_replay));
    }
    close(cfds[0]);
    close(dfds[1]);
    return std::make_unique<PipeShardChannel>(pid, cfds[1], dfds[0]);
  }

  const PopulationConfig& config_;
  DispatchStats* stats_;
  std::vector<Chunk> chunks_;
  /// -1 unassigned, kInProcess, else the worker it was dealt to.
  std::vector<int> chunk_owner_;
  std::vector<WorkerState> workers_;
  size_t w_count_ = 0;
  size_t next_chunk_ = 0;
};

}  // namespace

void dispatch_population_stream(const PopulationConfig& config,
                                obs::MetricsRegistry* metrics,
                                RecordSink& sink) {
  if (config.sessions == 0) {
    sink.on_complete(0);
    return;
  }

  SigpipeGuard sigpipe_guard;
  ChunkDispatcher disp(config);
  disp.spawn();
  auto& workers = disp.workers();
  // Per-worker reorder bound.  A worker holds at most two outstanding
  // chunks, so parking 2 x chunk records never stalls one that is merely
  // ahead of the cursor, and memory stays O(workers · chunk).
  const size_t ready_cap = std::max<size_t>(8, 2 * config.chunk);
  const auto has_headroom = [ready_cap](const WorkerState& ws) {
    return ws.ready.size() < ready_cap;
  };

  size_t next = 0;  // cursor: every index below it went to the sink
  auto deliver = [&](SessionRecord&& rec) {
    if (metrics != nullptr) {
      record_session_metrics(*metrics, rec, config.collect_metrics);
    }
    sink.on_record(next++, std::move(rec));
  };

  // Lazy in-process fallback for a dead worker's sessions under retry.
  std::optional<popgen::Population> retry_population;
  std::unique_ptr<SessionWorkspace> retry_ws;
  auto run_in_process = [&](size_t i) {
    if (!retry_population.has_value()) {
      retry_population.emplace(config.seed * 31 + 7, config.num_groups);
      retry_ws = std::make_unique<SessionWorkspace>();
    }
    return internal::run_one_session(config, *retry_population, i, *retry_ws);
  };

  // Owner of the cursor's chunk when it died with retry off.
  std::optional<size_t> failed_owner;
  // Workers retired (retry on) before the final reap.
  std::vector<ShardDeath> retired;
  while (next < config.sessions) {
    const size_t cid = disp.chunk_index_of(next);
    const int owner = disp.owner_of(cid);
    if (owner == kInProcess ||
        (owner >= 0 && workers[static_cast<size_t>(owner)].retired)) {
      // Take what a retired worker streamed; re-run the rest in-process.
      auto* ready =
          owner >= 0 ? &workers[static_cast<size_t>(owner)].ready : nullptr;
      if (ready != nullptr && !ready->empty() &&
          ready->front().first == next) {
        deliver(std::move(ready->front().second));
        ready->pop_front();
      } else {
        deliver(run_in_process(next));
      }
      continue;
    }
    if (owner < 0) {
      // Unassigned: chunks are dealt in order, so this is the queue head
      // and no live worker is left to deal it to.
      if (disp.pump(has_headroom)) continue;
      if (!config.retry_dead_shards) {
        failed_owner = 0;
        break;
      }
      disp.claim_in_process(cid);
      continue;
    }
    WorkerState& ws = workers[static_cast<size_t>(owner)];
    // The cursor's chunk is its owner's earliest unflushed one, so it is
    // complete once it has left the owner's assignment queue.  Only whole
    // chunks reach the sink: what a death leaves there (and what it
    // leaves to salvage) then does not depend on timing.
    if (ws.assigned.empty() || ws.assigned.front() != cid) {
      const size_t end = disp.chunks()[cid].end;
      while (next < end) {
        deliver(std::move(ws.ready.front().second));
        ws.ready.pop_front();
      }
      continue;
    }
    if (!ws.eof && ws.defect.empty() && disp.pump(has_headroom)) continue;
    // The owner died mid-chunk, or nothing can make progress.
    if (!config.retry_dead_shards) {
      failed_owner = static_cast<size_t>(owner);
      break;
    }
    retired.push_back(disp.retire(static_cast<size_t>(owner)));
    WIRA_WARN("population", "run_population: " + describe(retired.back()) +
                                "; re-running its remaining sessions "
                                "in-process");
  }

  // Drain every live stream to its end marker (after a failure, the
  // in-flight assignments of the surviving workers), then reap.
  if (failed_owner.has_value()) disp.stop_dealing();
  while (disp.pump([](const WorkerState& ws) { return !ws.end_seen; })) {
  }
  std::vector<ShardDeath> deaths = disp.reap();
  for (const ShardDeath& d : retired) disp.replay_crash(d, metrics);
  for (const ShardDeath& d : deaths) disp.replay_crash(d, metrics);
  if (deaths.empty() && !failed_owner.has_value()) {
    sink.on_complete(config.sessions);
    return;
  }
  if (deaths.empty()) deaths.push_back(disp.make_death(*failed_owner));
  std::string msg = "run_population: ";
  for (size_t d = 0; d < deaths.size(); ++d) {
    if (d > 0) msg += "; ";
    msg += describe(deaths[d]);
  }
  if (!failed_owner.has_value() && config.retry_dead_shards) {
    // A worker exited dirty after its records were all delivered:
    // nothing is left to re-run.
    WIRA_WARN("population", msg + "; all records were delivered");
    sink.on_complete(config.sessions);
    return;
  }

  // Salvage is index-addressed and holds what arrived but never reached
  // the sink; missing is exactly what never arrived.
  std::vector<SessionRecord> salvaged(config.sessions);
  std::vector<uint8_t> arrived(config.sessions, 0);
  std::fill(arrived.begin(), arrived.begin() + static_cast<long>(next), 1);
  for (WorkerState& ws : workers) {
    for (auto& [i, rec] : ws.ready) {
      salvaged[i] = std::move(rec);
      arrived[i] = 1;
    }
  }
  std::vector<size_t> missing;
  for (size_t i = 0; i < config.sessions; ++i) {
    if (arrived[i] == 0) missing.push_back(i);
  }
  msg += "; salvaged " + std::to_string(config.sessions - missing.size()) +
         " of " + std::to_string(config.sessions) + " records";
  throw PopulationShardError(msg, std::move(deaths), std::move(salvaged),
                             std::move(missing));
}

}  // namespace wira::exp
