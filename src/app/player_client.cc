#include "app/player_client.h"

#include <string_view>

namespace wira::app {
namespace {

/// Receive gap while streaming at or above this duration counts as a
/// stall (PlayerClient::stalls_observed) and, with a tracer attached, is
/// surfaced as a wira:stall_observed event in the client-vantage qlog.
/// Never affects the session's metrics.
constexpr TimeNs kStallThreshold = milliseconds(250);

}  // namespace

PlayerClient::PlayerClient(sim::EventLoop& loop, ClientConfig config,
                           ClientCache& cache, SendFn send)
    : loop_(loop),
      config_(config),
      cache_(cache),
      conn_(loop,
            quic::ConnectionConfig{.is_server = false,
                                   .conn_id = config.conn_id},
            std::move(send)),
      demux_([this](const media::FlvTag& tag) { on_tag(tag); }),
      ts_demux_([this](const media::TsPesUnit& unit) { on_ts_unit(unit); }),
      od_key_(core::od_pair_key(config.client_id, config.server_id,
                                config.network_type)) {
  conn_.set_on_established([this] { on_established(); });
  conn_.set_on_stream_data(
      [this](quic::StreamId id, std::span<const uint8_t> data, bool) {
        if (id == quic::kResponseStream) on_stream_data(data);
      });
  conn_.set_on_hxqos(
      [this](const quic::HxQosFrame& frame) { on_hxqos(frame); });
  conn_.set_on_handshake_message([this](const quic::HandshakeMessage& msg) {
    if (msg.msg_tag == quic::kTagREJ && msg.has(quic::kTagSCID)) {
      auto scid = msg.get(quic::kTagSCID);
      cache_.server_configs[config_.server_id] =
          std::vector<uint8_t>(scid.begin(), scid.end());
    }
  });
}

void PlayerClient::start() {
  quic::Connection::ClientConnectOptions opts;

  auto cfg_it = cache_.server_configs.find(config_.server_id);
  if (cfg_it != cache_.server_configs.end()) {
    opts.server_config_id = cfg_it->second;  // 0-RTT
  }

  if (config_.supports_cookie_sync) {
    quic::HqstPayload hqst;
    hqst.supports_sync = true;
    if (auto entry = cache_.cookies.lookup(od_key_)) {
      hqst.sealed_cookie = entry->sealed;
      hqst.client_recv_time_ms =
          static_cast<uint64_t>(to_ms(entry->stored_at));
    }
    opts.hqst = hqst;
  }

  conn_.connect(opts);
}

void PlayerClient::on_established() {
  if (request_sent_) return;
  request_sent_ = true;
  metrics_.zero_rtt = conn_.zero_rtt();
  // FFCT clock starts when the request packet leaves (§I: "from sending
  // out the request packet").  For 1-RTT this is the full CHLO + request,
  // after the REJ exchange.
  metrics_.request_sent_at = loop_.now();
  static constexpr std::string_view kRequest = "PLAY /live/stream.flv";
  trace(trace::EventType::kRequestSent, kRequest.size());
  conn_.write_stream(
      quic::kRequestStream,
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(kRequest.data()), kRequest.size()),
      /*fin=*/true);
}

void PlayerClient::on_stream_data(std::span<const uint8_t> data) {
  if (metrics_.first_byte_at == kNoTime && !data.empty()) {
    metrics_.first_byte_at = loop_.now();
  }
  // Stall observation: a receive gap at or above the threshold while the
  // stream is flowing — reordering holes, loss recovery and bursty pacing
  // all surface here.  Detected when data *resumes*, so the event carries
  // the gap it just ended.
  if (last_data_at_ != kNoTime && !data.empty()) {
    const TimeNs gap = loop_.now() - last_data_at_;
    if (gap >= kStallThreshold) {
      stalls_observed_++;
      trace(trace::EventType::kStallObserved,
            static_cast<uint64_t>(gap / 1000),
            metrics_.total_bytes_received, "recv_gap");
    }
  }
  if (!data.empty()) last_data_at_ = loop_.now();
  metrics_.total_bytes_received += data.size();
  if (config_.container == media::Container::kMpegTs) {
    ts_demux_.feed(data);
  } else {
    demux_.feed(data);
  }
  if (metrics_.first_frame_byte_at == kNoTime) {
    const bool video = config_.container == media::Container::kMpegTs
                           ? ts_demux_.video_started()
                           : demux_.video_started();
    if (video) {
      metrics_.first_frame_byte_at = loop_.now();
      trace(trace::EventType::kFirstVideoByte, metrics_.total_bytes_received);
    }
  }
}

void PlayerClient::on_video_frame_boundary(uint64_t bytes_at_boundary) {
  video_frames_++;
  // Playback condition (§VII): frame k completes when the Theta_VF-th,
  // (Theta_VF+1)-th, ... video frame is fully (contiguously) received.
  if (video_frames_ < config_.theta_vf) return;
  const uint32_t frame_index =
      video_frames_ - config_.theta_vf + 1;  // 1-based
  if (frame_index > config_.track_frames) return;
  metrics_.frame_complete_at.push_back(loop_.now());
  trace(trace::EventType::kFrameComplete, frame_index, bytes_at_boundary);
  if (frame_index == 1) {
    metrics_.first_frame_bytes = bytes_at_boundary;
  }
  if (on_frame_) on_frame_(frame_index);
}

void PlayerClient::on_tag(const media::FlvTag& tag) {
  if (tag.type != media::TagType::kVideo) return;
  on_video_frame_boundary(demux_.bytes_consumed());
}

void PlayerClient::on_ts_unit(const media::TsPesUnit& unit) {
  // Units are emitted when the *next* unit starts on the PID, which is
  // exactly when a TS access unit is known complete.
  if (!ts_demux_.video_pid() || unit.pid != *ts_demux_.video_pid()) return;
  on_video_frame_boundary(ts_demux_.packets_parsed() *
                          media::kTsPacketSize);
}

void PlayerClient::on_hxqos(const quic::HxQosFrame& frame) {
  metrics_.cookies_received++;
  // The blob span borrows the datagram buffer; the cache outlives it.
  cache_.cookies.store(
      od_key_,
      std::vector<uint8_t>(frame.sealed_blob.begin(), frame.sealed_blob.end()),
      loop_.now());
}

}  // namespace wira::app
