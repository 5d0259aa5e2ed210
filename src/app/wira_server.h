// The Wira CDN proxy server (Fig. 10): accepts a QUIC connection, pulls the
// requested live stream from the (local) origin, runs every outgoing byte
// through Frame Perception, initializes the send controller from the
// Table-I scheme, and periodically synchronizes the transport cookie.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/frame_parser.h"
#include "core/init_config.h"
#include "core/transport_cookie.h"
#include "media/stream_source.h"
#include "quic/connection.h"
#include "sim/event_loop.h"
#include "trace/tracer.h"

namespace wira::app {

struct ServerConfig {
  core::Scheme scheme = core::Scheme::kWira;
  core::ExperiencedDefaults defaults;
  uint32_t theta_vf = 1;
  TimeNs sync_period = core::kDefaultSyncPeriod;
  TimeNs staleness_threshold = core::kDefaultStaleness;
  cc::CcAlgo cc_algo = cc::CcAlgo::kBbrV1;
  bool cookie_sync_enabled = true;
  /// Seed the congestion controller's converged state from a fresh cookie
  /// (skip BBR startup).  Off by default: cookies under-estimate
  /// app-limited paths, and without startup the session stays pinned at
  /// the remembered rate (see bench/abl_resume).
  bool careful_resume = false;
  crypto::Key master_key{};         ///< cookie-sealing master secret
  uint64_t expected_od_key = 0;     ///< cookie binding check (§VII)
  /// Group-average QoS for Scheme::kUserGroup (what a per-UG model would
  /// predict for this client); ignored by the other schemes.
  std::optional<core::HxQosRecord> ug_qos;
  quic::ConnectionId conn_id = 1;
  /// Origin-fetch latency: the gap between the client request reaching the
  /// proxy and stream bytes arriving from the origin.  Non-zero values
  /// exercise corner case 1 (FF_Size parsed after the first bytes ship).
  TimeNs origin_latency = milliseconds(5);
  /// Stop producing live frames after this stream-time horizon.
  TimeNs stream_horizon = seconds(12);
  /// Testbed override: fixed init_cwnd/init_pacing instead of the Table-I
  /// scheme computation (used by the Fig. 2 parameter sweeps).
  struct ManualInit {
    uint64_t init_cwnd = 0;
    Bandwidth init_pacing = 0;
  };
  std::optional<ManualInit> manual_init;
};

class WiraServer {
 public:
  using SendFn = quic::Connection::SendDatagramFn;

  WiraServer(sim::EventLoop& loop, const media::LiveStream& stream,
             ServerConfig config, SendFn send);

  void on_datagram(std::span<const uint8_t> data) {
    conn_.on_datagram(data);
  }

  quic::Connection& connection() { return conn_; }
  const quic::Connection& connection() const { return conn_; }
  /// Datagrams the server dropped as unparseable (see ConnStats).
  uint64_t packets_undecodable() const {
    return conn_.stats().packets_undecodable;
  }
  const core::FrameParser& parser() const { return parser_; }
  const core::InitDecision& last_init() const { return last_init_; }
  /// The Hx_QoS record recovered from the client's cookie (if any).
  const std::optional<core::HxQosRecord>& received_cookie() const {
    return received_cookie_;
  }
  /// Number of Hx_QoS sync packets sent so far.
  uint64_t cookies_synced() const { return cookies_synced_; }
  /// Server config id clients must cache for 0-RTT.
  const std::vector<uint8_t>& server_config_id() const { return scid_; }

  /// True once the connection is closed and no loop event that captures
  /// this server is still pending: only then may its owner destroy it.
  /// The connection cancels its own timers at close; what is left are the
  /// server's origin chunks (at most a second ahead), the live-tail re-arm
  /// and the cookie sync (one sync period ahead), each a no-op once closed.
  bool finished() const { return conn_.closed() && pending_events_ == 0; }
  /// Called once, when the last pending event of a closed server has run
  /// (a server already finished at close never calls it).  The server is
  /// still inside that event: the hook must not destroy it synchronously.
  void set_on_finished(std::function<void()> fn) {
    on_finished_ = std::move(fn);
  }

  /// Attaches an event sink to the transport connection *and* the
  /// server's application-level markers (request_received, origin_byte,
  /// ff_parsed, cookie and corner-case events).  nullptr detaches; the
  /// sink must outlive the server's activity.
  void set_tracer(trace::EventSink* tracer) {
    tracer_ = tracer;
    conn_.set_tracer(tracer);
  }
  /// The server's FFCT phase boundaries (obs/phase_timeline.h), kept
  /// whether or not a sink is attached; kNoTime until each happens.
  /// When the PLAY request arrived (the join instant).
  TimeNs request_received() const { return request_received_; }
  /// When the first origin byte went to the send stream.
  TimeNs first_origin_byte() const { return first_origin_byte_; }
  /// When Frame Perception finished parsing FF_Size.
  TimeNs ff_parsed() const { return ff_parsed_; }
  /// Times the send controller was initialized while FF_Size was still
  /// unparsed (corner case 1: init_cwnd_exp substituted).
  uint32_t ff_fallback_inits() const { return ff_fallback_inits_; }
  /// Times the send controller was initialized from a stale Hx_QoS cookie
  /// (corner case 2: FF_Size-derived init substituted).
  uint32_t stale_cookie_inits() const { return stale_cookie_inits_; }

 private:
  void on_handshake_message(const quic::HandshakeMessage& msg);
  void on_request(std::span<const uint8_t> data);
  void apply_init();                 ///< (re)compute Table-I parameters
  void start_streaming();
  /// Sends one origin chunk; its buffer goes back to the loop's pool when
  /// `bytes` dies, as it does if the delivery event is destroyed unrun.
  void deliver_from_origin(util::PooledBuffer bytes);

  /// Origin-fetch scratch, one per loop (EventLoop::scratch), so its
  /// capacity outlives the session: join_chunks/chunks_between rebuild
  /// into it before the chunk buffers move into their delivery events,
  /// which leaves only emptied chunks behind.
  struct OriginChunkScratch {
    std::vector<media::StreamChunk> chunks;
  };
  std::vector<media::StreamChunk>& chunk_scratch_;
  void schedule_live_tail(TimeNs from_pts);
  void sync_cookie();
  /// Schedules `fn` on the loop and counts it in pending_events_ until it
  /// has run (see finished()).
  template <typename Fn>
  void schedule_counted(TimeNs when, Fn fn) {
    ++pending_events_;
    loop_.schedule_at(when, [this, fn = std::move(fn)]() mutable {
      fn();
      if (--pending_events_ == 0 && conn_.closed() && on_finished_) {
        on_finished_();
      }
    });
  }

  sim::EventLoop& loop_;
  const media::LiveStream& stream_;
  ServerConfig config_;
  quic::Connection conn_;
  core::FrameParser parser_;
  core::CookieSealer sealer_;

  std::optional<core::HxQosRecord> received_cookie_;
  bool client_supports_sync_ = false;  ///< HQST Bool from the CHLO
  core::InitDecision last_init_;
  std::optional<uint64_t> parsed_ff_size_;
  TimeNs request_received_ = kNoTime;
  TimeNs first_origin_byte_ = kNoTime;
  TimeNs ff_parsed_ = kNoTime;
  Bandwidth session_max_bw_ = 0;   ///< running max of cc bandwidth estimate
  uint64_t cookies_synced_ = 0;
  uint32_t ff_fallback_inits_ = 0;
  uint32_t stale_cookie_inits_ = 0;
  uint32_t pending_events_ = 0;
  std::function<void()> on_finished_;
  std::vector<uint8_t> scid_ = {0x57, 0x49, 0x52, 0x41};  // "WIRA"

  trace::EventSink* tracer_ = nullptr;
  void trace(trace::EventType type, uint64_t a = 0, uint64_t b = 0,
             const char* detail = "") {
    if (tracer_) tracer_->record(loop_.now(), type, a, b, detail);
  }
};

}  // namespace wira::app
