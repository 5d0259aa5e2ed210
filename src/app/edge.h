// Multi-session CDN edge: one WiraServer per live viewer, routed by a key
// the caller supplies — the QUIC connection id when every viewer has its
// own (bench/abl_crowd's flash crowd), or the packed source address:port
// when they do not (wira_proxyd).  Every session serves the same
// immutable media::LiveStream.
//
// Session lifecycle:
//   - created by add_session(), or by the first datagram from an unknown
//     key that parses as a client Initial carrying a CHLO; any other
//     datagram from an unknown key is dropped and counted, so neither a
//     stray packet nor a spoofed source costs a session;
//   - open until its connection closes: the peer's CONNECTION_CLOSE, or
//     the edge's own close after kIdleTimeout without a datagram from the
//     peer.  A closed session leaves the routing table at once, so a new
//     CHLO from the same key starts a fresh session;
//   - evicted (destroyed, with its tracer) one zero-delay event after it
//     is finished (WiraServer::finished): closed, with no loop event left
//     that still points to it.
#pragma once

#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "app/wira_server.h"

namespace wira::app {

class WiraEdge {
 public:
  /// A session that hears nothing from its peer for this long is closed
  /// and evicted.  Clients that vanish without CONNECTION_CLOSE would
  /// otherwise keep their session, and its cookie sync, alive forever.
  static constexpr TimeNs kIdleTimeout = seconds(30);
  /// Error code of the CONNECTION_CLOSE an idle session is closed with.
  static constexpr uint64_t kIdleCloseCode = 1;

  /// Sends one datagram of the session keyed `key` to its peer.
  using SendFn = std::function<void(uint64_t key, std::vector<uint8_t>)>;
  /// Runs once per new session, before it sees a datagram: the place to
  /// set a clock or attach a tracer.  A returned sink is owned by the edge
  /// and destroyed right after its session; nullptr means none.
  using OpenFn = std::function<std::unique_ptr<trace::EventSink>(
      uint64_t key, WiraServer& server)>;

  struct Counters {
    uint64_t served = 0;       ///< sessions created
    uint64_t evicted = 0;      ///< sessions destroyed after finishing
    uint64_t dropped = 0;      ///< datagrams from unknown keys, not a CHLO
    uint64_t idle_closed = 0;  ///< sessions closed by kIdleTimeout
  };

  /// `loop` and `stream` must outlive the edge, and the loop must not run
  /// after the edge is destroyed: pending events may still point into it.
  WiraEdge(sim::EventLoop& loop, const media::LiveStream& stream,
           ServerConfig base_config, SendFn send, OpenFn open = {});
  ~WiraEdge();
  WiraEdge(const WiraEdge&) = delete;
  WiraEdge& operator=(const WiraEdge&) = delete;

  /// Creates the session for `key`, which must not be routed yet, ahead of
  /// its first datagram; `od_key` binds its cookies (sessions created from
  /// a CHLO take the base config's binding).
  WiraServer& add_session(uint64_t key, uint64_t od_key);

  /// Routes a datagram from the peer keyed `key`.
  void on_datagram(uint64_t key, std::span<const uint8_t> data);

  /// The connection id in a datagram's header, for edges keyed by it;
  /// nullopt for a runt.
  static std::optional<uint64_t> conn_id_of(std::span<const uint8_t> data);

  /// The open session for `key`, or nullptr.
  WiraServer* session(uint64_t key);
  /// Live sessions: open ones plus closed ones not yet evicted.
  size_t session_count() const { return open_.size() + closing_.size(); }
  const Counters& counters() const { return counters_; }

 private:
  struct Session {
    uint64_t key = 0;
    TimeNs last_heard = 0;
    /// Declared before the server, so the server dies first.
    std::unique_ptr<trace::EventSink> sink;
    std::optional<WiraServer> server;
  };
  using SessionList = std::list<Session>;

  SessionList::iterator open_session(uint64_t key, uint64_t od_key);
  /// True if `data` parses as a client Initial that carries a CHLO.
  bool is_client_chlo(std::span<const uint8_t> data);
  /// Moves a closed session out of the routing table into closing_.
  void retire(std::unordered_map<uint64_t, SessionList::iterator>::iterator
                  routed);
  void schedule_evict(SessionList::iterator it);
  void arm_idle_timer();
  void close_idle_sessions();

  sim::EventLoop& loop_;
  const media::LiveStream& stream_;
  ServerConfig base_config_;
  SendFn send_;
  OpenFn open_fn_;
  /// Open sessions, least recently heard first: the idle timer only ever
  /// looks at the front.
  SessionList open_;
  /// Closed sessions waiting to finish.
  SessionList closing_;
  std::unordered_map<uint64_t, SessionList::iterator> routes_;
  std::optional<sim::EventId> idle_timer_;
  Counters counters_;
};

}  // namespace wira::app
