// QUIC connection: handshake state machine (0-RTT and 1-RTT), streams,
// ACK generation, loss recovery (packet + time thresholds, PTO), pacing,
// and the pluggable congestion controller.
//
// The class is transport-only: it neither knows about FLV nor about Wira's
// policies.  Wira plugs in through three seams, mirroring its LSQUIC
// implementation (§V):
//   - set_initial_parameters()      <- send-controller initialization
//   - the HQST tag in CHLO          <- surfaced via on_handshake_message
//   - HxQosFrame packets (0x1f)     <- send_hxqos / on_hxqos
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cc/bandwidth_sampler.h"
#include "cc/congestion_controller.h"
#include "net/clock.h"
#include "quic/handshake.h"
#include "quic/packet.h"
#include "quic/pacer.h"
#include "quic/rtt.h"
#include "quic/sent_packet_table.h"
#include "quic/stream.h"
#include "quic/types.h"
#include "sim/event_loop.h"
#include "trace/tracer.h"

namespace wira::quic {

struct ConnectionConfig {
  bool is_server = false;
  ConnectionId conn_id = 1;
  cc::CcAlgo cc_algo = cc::CcAlgo::kBbrV1;
};

struct ConnStats {
  uint64_t packets_sent = 0;
  uint64_t data_packets_sent = 0;  ///< ack-eliciting only
  uint64_t packets_received = 0;
  uint64_t packets_acked = 0;
  uint64_t packets_lost = 0;
  uint64_t ptos_fired = 0;
  uint64_t bytes_sent = 0;
  uint64_t stream_bytes_sent = 0;
  uint64_t stream_bytes_retransmitted = 0;
  /// Datagrams that failed packet parsing (dropped before any processing;
  /// input of the sweep's decode-error anomaly trigger).
  uint64_t packets_undecodable = 0;
  /// Server-side RTT measured across the REJ -> full-CHLO exchange
  /// (only available on 1-RTT connections — the paper's §VI distinction).
  TimeNs handshake_rtt = kNoTime;
};

class Connection {
 public:
  using SendDatagramFn = std::function<void(std::vector<uint8_t>)>;
  using StreamDataFn = std::function<void(StreamId, std::span<const uint8_t>,
                                          bool fin)>;
  using HandshakeMsgFn = std::function<void(const HandshakeMessage&)>;
  using HxQosFn = std::function<void(const HxQosFrame&)>;
  using EstablishedFn = std::function<void()>;

  Connection(sim::EventLoop& loop, ConnectionConfig config,
             SendDatagramFn send_datagram);
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // ---- wiring ----
  void set_on_stream_data(StreamDataFn fn) { on_stream_data_ = std::move(fn); }
  void set_on_handshake_message(HandshakeMsgFn fn) {
    on_handshake_message_ = std::move(fn);
  }
  void set_on_established(EstablishedFn fn) {
    on_established_ = std::move(fn);
  }
  void set_on_hxqos(HxQosFn fn) { on_hxqos_ = std::move(fn); }

  // ---- client role ----
  struct ClientConnectOptions {
    /// Cached server config id; presence enables 0-RTT.
    std::optional<std::vector<uint8_t>> server_config_id;
    /// Wira transport cookie to echo in the CHLO (HQST tag).
    std::optional<HqstPayload> hqst;
  };
  void connect(const ClientConnectOptions& opts);

  // ---- server role ----
  struct ServerOptions {
    std::vector<uint8_t> server_config_id = {0xAB, 0xCD};
  };
  void set_server_options(ServerOptions opts) { server_opts_ = std::move(opts); }

  // ---- data plane ----
  void write_stream(StreamId id, std::span<const uint8_t> data,
                    bool fin = false);
  /// Sends a Wira Hx_QoS synchronization packet (type 0x1f).
  void send_hxqos(const HxQosFrame& frame);
  void close(uint64_t error_code, std::string reason);

  /// Feeds a received datagram (wired to the Link delivery callback).
  void on_datagram(std::span<const uint8_t> data);

  // ---- state & introspection ----
  bool established() const { return established_; }
  bool closed() const { return closed_; }
  /// True when the connection completed its handshake without a round trip
  /// (client: cached config used; server: no REJ was needed).
  bool zero_rtt() const { return zero_rtt_; }

  cc::CongestionController& congestion() { return *cc_; }
  const cc::CongestionController& congestion() const { return *cc_; }
  const RttEstimator& rtt() const { return rtt_; }
  const ConnStats& stats() const { return stats_; }
  uint64_t bytes_in_flight() const { return bytes_in_flight_; }
  sim::EventLoop& loop() { return loop_; }

  // ---- Wira hooks ----
  /// Forwards to the congestion controller (send-controller init, §IV-C).
  void set_initial_parameters(uint64_t init_cwnd, Bandwidth init_pacing) {
    cc_->set_initial_parameters(init_cwnd, init_pacing);
    trace(trace::EventType::kInitApplied, init_cwnd, init_pacing);
    trace_cc_state();
  }
  /// Seeds the RTT estimator (e.g. from Hx_QoS MinRTT or the 1-RTT
  /// handshake measurement) so PTO and pacing fallbacks are sane.
  void seed_rtt(TimeNs rtt_sample) { rtt_.seed(rtt_sample); }

  /// Attaches an event sink (nullptr detaches).  The connection does not
  /// own it; it must outlive the connection's activity.
  void set_tracer(trace::EventSink* tracer) { tracer_ = tracer; }

  /// Overrides the connection's time source (nullptr = loop clock, the
  /// default and the simulation behaviour).  The real-socket runtime
  /// passes a net::MonotonicClock so timestamps — RTT samples, pacer
  /// gating, trace times — read the kernel clock at the instant of the
  /// call instead of the loop's last-advance time.  The override must
  /// share the loop's timebase (net/clock.h) and outlive the connection.
  void set_clock(const net::Clock* clock) { clock_ = clock; }

 private:
  // Handshake machinery.
  void send_crypto_message(const HandshakeMessage& msg,
                           PacketType packet_type);
  void handle_crypto(const CryptoFrame& frame);
  void handle_client_hello(const HandshakeMessage& chlo);
  void handle_rej(const HandshakeMessage& rej);
  void handle_shlo(const HandshakeMessage& shlo);
  void become_established();

  // Send machinery.
  SendStream& send_stream(StreamId id);
  RecvStream& recv_stream(StreamId id);
  bool has_pending_stream_data() const;
  void pump();                       ///< sends as much as cc/pacer allow
  void schedule_pump_at(TimeNs when);
  PacketNumber send_packet(Packet packet, bool bypass_pacer);
  void maybe_send_ack(bool immediate);
  void send_ack_now();

  // Receive machinery.
  void handle_ack(const AckFrame& ack);
  void handle_stream(const StreamFrame& frame);
  void detect_losses(PacketNumber largest_acked,
                     std::vector<cc::LostPacket>& lost);
  /// Takes lost (or PTO-probed) packet `pn` out of flight and out of
  /// sent_, and queues its payload again: stream ranges become
  /// resendable, crypto data is re-sent at once.
  void requeue_lost_payload(PacketNumber pn);

  // Timers.
  void arm_pto();
  void on_pto();
  void arm_loss_timer(TimeNs when);
  void on_loss_timer();
  void cancel_timer(std::optional<sim::EventId>& id);
  /// Marks the connection closed, cancels every timer and releases sent_.
  void mark_closed();

  /// Current time through the optional clock override (see set_clock).
  TimeNs now() const { return clock_ != nullptr ? clock_->now() : loop_.now(); }

  sim::EventLoop& loop_;
  const net::Clock* clock_ = nullptr;
  ConnectionConfig config_;
  SendDatagramFn send_datagram_;

  StreamDataFn on_stream_data_;
  HandshakeMsgFn on_handshake_message_;
  EstablishedFn on_established_;
  HxQosFn on_hxqos_;

  std::unique_ptr<cc::CongestionController> cc_;
  cc::BandwidthSampler sampler_;
  RttEstimator rtt_;
  Pacer pacer_;

  // Role / handshake state.
  ServerOptions server_opts_;
  std::optional<HqstPayload> pending_hqst_;
  bool established_ = false;
  bool closed_ = false;
  bool zero_rtt_ = false;
  bool rej_sent_ = false;
  bool rej_processed_ = false;
  TimeNs rej_sent_time_ = kNoTime;
  TimeNs chlo_sent_time_ = kNoTime;

  // Packet number spaces (single space).
  PacketNumber next_packet_number_ = 1;
  SentPacketTable sent_;  ///< retransmittable only
  /// A lost packet's crypto bytes during their re-send, which may grow
  /// sent_ or reuse the lost packet's slot (see requeue_lost_payload).
  std::vector<uint8_t> resend_crypto_;
  uint64_t bytes_in_flight_ = 0;
  PacketNumber largest_acked_ = 0;

  // Receiving.
  RangeSet received_;
  PacketNumber largest_received_ = 0;
  int unacked_retransmittable_ = 0;
  bool ack_pending_ = false;
  TimeNs oldest_unacked_recv_time_ = kNoTime;

  // Streams.
  std::map<StreamId, SendStream> send_streams_;
  std::map<StreamId, RecvStream> recv_streams_;

  // Timers.
  std::optional<sim::EventId> ack_timer_;
  std::optional<sim::EventId> loss_timer_;
  std::optional<sim::EventId> pto_timer_;
  std::optional<sim::EventId> send_timer_;
  int pto_count_ = 0;

  /// Reused across acks/loss-timer firings so the acked/lost vectors keep
  /// their capacity instead of heap-allocating per ACK.  Every field is
  /// re-set at each use site.
  cc::CongestionEvent scratch_event_;

  trace::EventSink* tracer_ = nullptr;
  const char* last_cc_state_ = nullptr;  ///< last state traced (literal)
  void trace(trace::EventType type, uint64_t a = 0, uint64_t b = 0,
             const char* detail = "") {
    if (tracer_) tracer_->record(now(), type, a, b, detail);
  }
  /// Emits kCcStateChanged when the controller's state-machine position
  /// moved since the last call (first call emits the initial state).
  void trace_cc_state();

  ConnStats stats_;
};

}  // namespace wira::quic
