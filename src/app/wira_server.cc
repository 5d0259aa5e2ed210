#include "app/wira_server.h"

#include <algorithm>
#include <string_view>

#include "util/logging.h"

namespace wira::app {
namespace {

/// Proxy<->origin throughput; staggers join-burst chunk arrivals.
constexpr Bandwidth kOriginBandwidth = mbps(200);

}  // namespace

WiraServer::WiraServer(sim::EventLoop& loop, const media::LiveStream& stream,
                       ServerConfig config, SendFn send)
    : chunk_scratch_(loop.scratch<OriginChunkScratch>().chunks),
      loop_(loop),
      stream_(stream),
      config_(config),
      conn_(loop,
            quic::ConnectionConfig{.is_server = true,
                                   .conn_id = config.conn_id,
                                   .cc_algo = config.cc_algo},
            std::move(send)),
      parser_(core::FrameParser::Config{.theta_vf = config.theta_vf}),
      sealer_(config.master_key) {
  conn_.set_server_options(quic::Connection::ServerOptions{scid_});
  conn_.set_on_handshake_message(
      [this](const quic::HandshakeMessage& msg) { on_handshake_message(msg); });
  conn_.set_on_stream_data(
      [this](quic::StreamId id, std::span<const uint8_t> data, bool) {
        if (id == quic::kRequestStream) on_request(data);
      });
}

void WiraServer::on_handshake_message(const quic::HandshakeMessage& msg) {
  if (msg.msg_tag != quic::kTagCHLO) return;
  // Extract the Wira HQST tag (parse_hs_data analogue, §V): the sealed
  // cookie can only be opened — and is only trusted — by this server.
  if (msg.has(quic::kTagHQST)) {
    auto hqst = quic::parse_hqst(msg.get(quic::kTagHQST));
    if (hqst) client_supports_sync_ = hqst->supports_sync;
    if (hqst && hqst->supports_sync && !hqst->sealed_cookie.empty()) {
      auto record = sealer_.open(hqst->sealed_cookie);
      if (record && record->valid() &&
          (config_.expected_od_key == 0 ||
           record->od_key == config_.expected_od_key)) {
        received_cookie_ = *record;
        trace(trace::EventType::kCookieEvent, 0, 0, "opened");
      } else {
        // Tampered / mistargeted cookies fail AEAD or the OD check and are
        // dropped: fail-closed to baseline behaviour (§VII).
        trace(trace::EventType::kCookieEvent, 0, 0, "rejected");
      }
    }
  }
  // Initialize the send controller before any response byte is written.
  apply_init();
}

void WiraServer::apply_init() {
  if (config_.manual_init) {
    last_init_ = core::InitDecision{};
    last_init_.init_cwnd = config_.manual_init->init_cwnd;
    last_init_.init_pacing = config_.manual_init->init_pacing;
    conn_.set_initial_parameters(last_init_.init_cwnd,
                                 last_init_.init_pacing);
    return;
  }
  core::InitInputs in;
  in.ff_size = parsed_ff_size_;
  in.hx_qos = received_cookie_;
  in.ug_qos = config_.ug_qos;
  in.now = loop_.now();
  in.staleness_threshold = config_.staleness_threshold;

  core::ExperiencedDefaults defaults = config_.defaults;
  // 1-RTT connections measured the path RTT during the REJ/CHLO exchange;
  // the paper substitutes it for the configured initial RTT (§VI).
  const TimeNs hs_rtt = conn_.stats().handshake_rtt;
  if (hs_rtt != kNoTime) {
    defaults.init_rtt_exp = hs_rtt;
    if (in.hx_qos) in.hx_qos->min_rtt = hs_rtt;
  }

  last_init_ = core::compute_init(config_.scheme, in, defaults);

  // Corner-case accounting.  The FF fallback is the expected path for
  // FF-consuming schemes on the handshake-time init (FLV header/script/
  // audio tags precede the I frame, so parse completes only mid-burst);
  // the counter tracks how often the substitution window was entered at
  // all, and the phase.ff_parse histogram tracks how long it stayed open.
  if (last_init_.ff_pending) {
    ff_fallback_inits_++;
    trace(trace::EventType::kCornerCase, last_init_.init_cwnd, 0,
          "cwnd_before_parse");
    WIRA_WARN("wira_server",
              "init before FF_Size parse: substituting init_cwnd_exp");
  }
  if (last_init_.hx_stale) {
    stale_cookie_inits_++;
    trace(trace::EventType::kCornerCase, 0, 0, "stale_cookie");
    WIRA_WARN("wira_server", "Hx_QoS cookie stale: falling back to "
                             "FF_Size-derived init (corner case 2)");
  }

  if (config_.careful_resume && last_init_.used_hx_qos && in.hx_qos) {
    conn_.congestion().resume_from_history(in.hx_qos->max_bw,
                                           in.hx_qos->min_rtt);
  }

  // The decision is payload-denominated (FF_Size counts FLV bytes); the
  // transport accounts packet headers and UDP/IP framing against the
  // window.  Translate so that "init_cwnd adapted to FF_Size" admits the
  // whole first frame including its packetization overhead.
  const uint64_t packets =
      last_init_.init_cwnd / quic::kMaxPacketPayload + 1;
  const uint64_t wire_cwnd =
      last_init_.init_cwnd +
      packets * (quic::kPacketHeaderSize + quic::kPacketOverhead + 15);
  conn_.set_initial_parameters(wire_cwnd, last_init_.init_pacing);
}

void WiraServer::on_request(std::span<const uint8_t> data) {
  const std::string_view req(reinterpret_cast<const char*>(data.data()),
                             data.size());
  if (request_received_ != kNoTime ||
      req.find("PLAY") == std::string_view::npos) {
    return;
  }
  request_received_ = loop_.now();
  trace(trace::EventType::kRequestReceived, data.size());
  start_streaming();
}

void WiraServer::start_streaming() {
  // Join burst: fetched from the origin with fetch latency + origin-link
  // serialization, so early tags (header/script/audio) can reach L4 before
  // the I frame — the paper's corner case 1.
  TimeNs arrival = loop_.now() + config_.origin_latency;
  stream_.join_chunks(request_received_, chunk_scratch_, &loop_.buffers());
  for (media::StreamChunk& chunk : chunk_scratch_) {
    arrival += transfer_time(chunk.bytes.size(), kOriginBandwidth);
    util::PooledBuffer bytes(loop_.buffers(), std::move(chunk.bytes));
    schedule_counted(arrival, [this, bytes = std::move(bytes)]() mutable {
      deliver_from_origin(std::move(bytes));
    });
  }
  schedule_live_tail(request_received_);

  // Periodic Hx_QoS synchronization only when the client declared support
  // in its CHLO (HQST Bool = 1, §IV-B).
  if (config_.cookie_sync_enabled && client_supports_sync_) {
    schedule_counted(loop_.now() + config_.sync_period,
                     [this] { sync_cookie(); });
  }
}

void WiraServer::deliver_from_origin(util::PooledBuffer bytes) {
  // However this returns, `bytes` goes back to the loop pool the muxer
  // drew it from; write_stream copies what it sends.
  const std::vector<uint8_t>& chunk = bytes.bytes();
  if (conn_.closed()) return;
  if (first_origin_byte_ == kNoTime && !chunk.empty()) {
    first_origin_byte_ = loop_.now();
    trace(trace::EventType::kOriginByte, chunk.size());
  }
  // Frame Perception: the parser observes bytes on their way to the send
  // module; when FF_Size completes (exactly once), re-initialize (corner
  // case 1 ends).
  if (auto ff = parser_.feed(chunk)) {
    parsed_ff_size_ = *ff;
    ff_parsed_ = loop_.now();
    trace(trace::EventType::kFfParsed, *ff, parser_.bytes_seen());
    apply_init();
  }
  conn_.write_stream(quic::kResponseStream, chunk);
}

void WiraServer::schedule_live_tail(TimeNs from_pts) {
  // Pull the next second of frames, deliver each at pts + origin latency,
  // then re-arm.  Stops at the configured horizon, or once the connection
  // has closed: nobody is left to send the frames to.
  const TimeNs until = std::min<TimeNs>(
      from_pts + seconds(1), request_received_ + config_.stream_horizon);
  if (from_pts >= until || conn_.closed()) return;
  stream_.chunks_between(from_pts, until, chunk_scratch_, &loop_.buffers());
  for (media::StreamChunk& chunk : chunk_scratch_) {
    const TimeNs at = chunk.pts + config_.origin_latency;
    util::PooledBuffer bytes(loop_.buffers(), std::move(chunk.bytes));
    schedule_counted(at, [this, bytes = std::move(bytes)]() mutable {
      deliver_from_origin(std::move(bytes));
    });
  }
  schedule_counted(until, [this, until] { schedule_live_tail(until); });
}

void WiraServer::sync_cookie() {
  if (conn_.closed()) return;
  session_max_bw_ =
      std::max(session_max_bw_, conn_.congestion().bandwidth_estimate());
  const TimeNs min_rtt = conn_.rtt().min();
  if (min_rtt != kNoTime && session_max_bw_ > 0) {
    core::HxQosRecord record;
    record.min_rtt = min_rtt;
    record.max_bw = session_max_bw_;
    record.server_timestamp = loop_.now();
    record.od_key = config_.expected_od_key;
    const auto& st = conn_.stats();
    if (st.data_packets_sent > 0) {
      record.loss_rate = static_cast<double>(st.packets_lost) /
                         static_cast<double>(st.data_packets_sent);
    }
    // The frame borrows `blob`; send_hxqos serializes synchronously.
    const std::vector<uint8_t> blob = sealer_.seal(record);
    quic::HxQosFrame frame;
    frame.server_time_ms = static_cast<uint64_t>(to_ms(loop_.now()));
    frame.sealed_blob = blob;
    conn_.send_hxqos(frame);
    cookies_synced_++;
    trace(trace::EventType::kCookieEvent, frame.sealed_blob.size(), 0,
          "sealed");
  }
  schedule_counted(loop_.now() + config_.sync_period,
                   [this] { sync_cookie(); });
}

}  // namespace wira::app
