// Live-streaming player client: connects (0-RTT when the server config is
// cached), sends the play request, demuxes the arriving FLV or MPEG-TS
// stream up to its last tracked frame (the rest is only counted), tracks
// first-frame / follow-up-frame completion, and stores transport cookies.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/transport_cookie.h"
#include "media/flv.h"
#include "media/mpegts.h"
#include "media/stream_source.h"
#include "quic/connection.h"
#include "sim/event_loop.h"
#include "trace/tracer.h"
#include "util/units.h"

namespace wira::app {

/// Client-side state that survives across sessions (the app cache): the
/// cookie store plus cached server configs for 0-RTT.
struct ClientCache {
  core::ClientCookieStore cookies;
  std::unordered_map<uint64_t, std::vector<uint8_t>> server_configs;
};

struct ClientConfig {
  uint64_t client_id = 1;
  uint64_t server_id = 1;
  uint32_t network_type = 0;  ///< 0=WiFi 1=3G 2=4G 3=5G
  quic::ConnectionId conn_id = 1;
  /// Playback condition: how many video frames complete the "first frame"
  /// (must match the server's Theta_VF for apples-to-apples metrics).
  uint32_t theta_vf = 1;
  /// Whether this client declares Hx_QoS sync support (HQST Bool).
  bool supports_cookie_sync = true;
  /// How many video-frame completion times to record (Fig. 15 uses 4).
  uint32_t track_frames = 4;
  /// Container the requested stream is delivered in (selects the demuxer).
  media::Container container = media::Container::kFlv;
};

class PlayerClient {
 public:
  using SendFn = quic::Connection::SendDatagramFn;
  using FrameEventFn = std::function<void(uint32_t frame_index)>;

  PlayerClient(sim::EventLoop& loop, ClientConfig config, ClientCache& cache,
               SendFn send);

  /// Connects and sends the play request.
  void start();

  void on_datagram(std::span<const uint8_t> data) {
    conn_.on_datagram(data);
  }

  /// Invoked when video frame `i` (1-based) completes; frame 1 is the
  /// first frame.  Lets the harness snapshot server stats at the instant.
  void set_on_frame_complete(FrameEventFn fn) { on_frame_ = std::move(fn); }

  /// Attaches an event sink to the transport connection *and* the
  /// client's application-level markers (request_sent, first_video_byte,
  /// frame_complete, stall observations) — the client-vantage half of a
  /// paired qlog sample.  nullptr detaches; the sink must outlive the
  /// client's activity.
  void set_tracer(trace::EventSink* tracer) {
    tracer_ = tracer;
    conn_.set_tracer(tracer);
  }

  struct Metrics {
    TimeNs request_sent_at = kNoTime;   ///< full-CHLO / request departure
    TimeNs first_byte_at = kNoTime;     ///< first response-stream byte
    /// When the contiguously-delivered stream first reached the first
    /// byte of video payload (demuxer saw the first video tag / video-PID
    /// packet).  Later than first_byte_at when the container prelude
    /// (header, metadata, audio) precedes video, or when reordering holes
    /// stall reassembly; the delivery phase ends here, so reorder wait on
    /// any pre-video byte is charged to delivery, not frame_recv.
    TimeNs first_frame_byte_at = kNoTime;
    bool zero_rtt = false;
    /// Completion time of video frames 1..N (absolute sim time).
    std::vector<TimeNs> frame_complete_at;
    uint64_t first_frame_bytes = 0;     ///< contiguous bytes at frame 1
    uint64_t total_bytes_received = 0;
    uint64_t cookies_received = 0;

    bool first_frame_done() const { return !frame_complete_at.empty(); }
    /// First-frame completion time (§I): request packet -> frame 1.
    TimeNs ffct() const {
      return first_frame_done() ? frame_complete_at[0] - request_sent_at
                                : kNoTime;
    }
    TimeNs frame_time(uint32_t i) const {  // 1-based
      return i <= frame_complete_at.size()
                 ? frame_complete_at[i - 1] - request_sent_at
                 : kNoTime;
    }
  };
  const Metrics& metrics() const { return metrics_; }

  quic::Connection& connection() { return conn_; }
  const quic::Connection& connection() const { return conn_; }
  /// Datagrams this client dropped as unparseable (decode_error anomaly
  /// trigger input, next to the server's).
  uint64_t packets_undecodable() const {
    return conn_.stats().packets_undecodable;
  }
  /// Receive gaps of 250 ms or more while streaming (stall anomaly
  /// trigger input); counted whether or not a tracer is attached.
  uint32_t stalls_observed() const { return stalls_observed_; }
  uint64_t od_key() const { return od_key_; }

 private:
  void on_established();
  void on_stream_data(std::span<const uint8_t> data);
  void on_hxqos(const quic::HxQosFrame& frame);
  void on_tag(const media::FlvTag& tag);
  void on_ts_unit(const media::TsPesUnit& unit);
  void on_video_frame_boundary(uint64_t bytes_at_boundary);

  sim::EventLoop& loop_;
  ClientConfig config_;
  ClientCache& cache_;
  quic::Connection conn_;
  media::FlvDemuxer demux_;
  media::TsDemuxer ts_demux_;
  uint64_t od_key_;
  uint32_t video_frames_ = 0;
  bool request_sent_ = false;
  TimeNs last_data_at_ = kNoTime;
  uint32_t stalls_observed_ = 0;
  Metrics metrics_;
  FrameEventFn on_frame_;

  trace::EventSink* tracer_ = nullptr;
  void trace(trace::EventType type, uint64_t a = 0, uint64_t b = 0,
             const char* detail = "") {
    if (tracer_) tracer_->record(loop_.now(), type, a, b, detail);
  }
};

}  // namespace wira::app
