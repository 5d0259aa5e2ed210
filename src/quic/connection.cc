#include "quic/connection.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace wira::quic {

Connection::Connection(sim::EventLoop& loop, ConnectionConfig config,
                       SendDatagramFn send_datagram)
    : loop_(loop),
      config_(config),
      send_datagram_(std::move(send_datagram)),
      cc_(cc::make_controller(config.cc_algo)),
      pacer_(kPacerBurst),
      sent_(loop.scratch<SentPacketTable::Cache>()) {}

// ---------------------------------------------------------------- handshake

void Connection::connect(const ClientConnectOptions& opts) {
  pending_hqst_ = opts.hqst;
  HandshakeMessage chlo;
  chlo.msg_tag = kTagCHLO;
  chlo.set_str(kTagVER, "Q043");
  if (opts.hqst) chlo.set(kTagHQST, serialize_hqst(*opts.hqst));
  if (opts.server_config_id) {
    // Full CHLO: 0-RTT path.
    chlo.set(kTagSCID, *opts.server_config_id);
    zero_rtt_ = true;
    send_crypto_message(chlo, PacketType::kInitial);
    become_established();
  } else {
    // Inchoate CHLO: expect REJ carrying the server config.
    chlo_sent_time_ = now();
    send_crypto_message(chlo, PacketType::kInitial);
  }
}

void Connection::send_crypto_message(const HandshakeMessage& msg,
                                     PacketType packet_type) {
  // The frame borrows `wire`; send_packet serializes synchronously (and
  // copies the crypto bytes into sent_), so the local suffices.
  const std::vector<uint8_t> wire = serialize_handshake(msg);
  CryptoFrame frame;
  frame.data = wire;

  Packet p(&loop_.arena());
  p.type = packet_type;
  p.conn_id = config_.conn_id;
  if (ack_pending_) {
    p.frames.push_back(build_ack(received_, 0, 32, &loop_.arena()));
    ack_pending_ = false;
    unacked_retransmittable_ = 0;
    cancel_timer(ack_timer_);
  }
  p.frames.emplace_back(frame);
  send_packet(std::move(p), /*bypass_pacer=*/true);
}

void Connection::handle_crypto(const CryptoFrame& frame) {
  auto msg = parse_handshake(frame.data);
  if (!msg) return;
  if (tracer_) {
    const char* name = msg->msg_tag == kTagCHLO   ? "chlo"
                       : msg->msg_tag == kTagREJ  ? "rej"
                       : msg->msg_tag == kTagSHLO ? "shlo"
                                                  : "unknown";
    trace(trace::EventType::kHandshakeEvent, 0, 0, name);
  }
  if (on_handshake_message_) on_handshake_message_(*msg);
  switch (msg->msg_tag) {
    case kTagCHLO:
      if (config_.is_server) handle_client_hello(*msg);
      break;
    case kTagREJ:
      if (!config_.is_server) handle_rej(*msg);
      break;
    case kTagSHLO:
      if (!config_.is_server) handle_shlo(*msg);
      break;
    default:
      break;
  }
}

void Connection::handle_client_hello(const HandshakeMessage& chlo) {
  const auto scid = chlo.get(kTagSCID);
  const bool full =
      !scid.empty() &&
      std::equal(scid.begin(), scid.end(),
                 server_opts_.server_config_id.begin(),
                 server_opts_.server_config_id.end());
  if (!full) {
    // Reject: ship the server config; the client retries with a full CHLO.
    HandshakeMessage rej;
    rej.msg_tag = kTagREJ;
    rej.set(kTagSCID, server_opts_.server_config_id);
    rej.set_str(kTagSCFG, "scfg-v1");
    rej_sent_ = true;
    rej_sent_time_ = now();
    send_crypto_message(rej, PacketType::kInitial);
    return;
  }
  if (established_) return;  // duplicate full CHLO

  if (rej_sent_) {
    // 1-RTT: the REJ -> full-CHLO exchange measures the path RTT before
    // any payload is sent (§VI: "1-RTT connections can obtain the
    // accurate MinRTT").
    stats_.handshake_rtt = now() - rej_sent_time_;
    rtt_.seed(stats_.handshake_rtt);
    zero_rtt_ = false;
  } else {
    zero_rtt_ = true;
  }

  HandshakeMessage shlo;
  shlo.msg_tag = kTagSHLO;
  send_crypto_message(shlo, PacketType::kInitial);
  become_established();
}

void Connection::handle_rej(const HandshakeMessage& rej) {
  if (rej_processed_) return;
  rej_processed_ = true;
  const auto scid = rej.get(kTagSCID);
  if (scid.empty()) return;
  if (chlo_sent_time_ != kNoTime) {
    rtt_.on_sample(now() - chlo_sent_time_, 0);
  }
  // A REJ after a 0-RTT attempt means the cached config was stale: retry
  // with the fresh one (any 0-RTT data already queued is retransmitted by
  // the normal loss machinery).
  zero_rtt_ = false;
  HandshakeMessage chlo;
  chlo.msg_tag = kTagCHLO;
  chlo.set_str(kTagVER, "Q043");
  chlo.set(kTagSCID, scid);
  if (pending_hqst_) chlo.set(kTagHQST, serialize_hqst(*pending_hqst_));
  send_crypto_message(chlo, PacketType::kInitial);
  become_established();
}

void Connection::handle_shlo(const HandshakeMessage&) {
  if (!established_) become_established();
}

void Connection::become_established() {
  established_ = true;
  trace(trace::EventType::kHandshakeEvent, zero_rtt_ ? 0 : 1, 0,
        "established");
  if (on_established_) on_established_();
  pump();
}

// --------------------------------------------------------------- data plane

SendStream& Connection::send_stream(StreamId id) {
  auto it = send_streams_.find(id);
  if (it == send_streams_.end()) {
    it = send_streams_
             .try_emplace(id, id, &loop_.scratch<SendBufferCache>())
             .first;
  }
  return it->second;
}

RecvStream& Connection::recv_stream(StreamId id) {
  auto it = recv_streams_.find(id);
  if (it == recv_streams_.end()) {
    it = recv_streams_
             .emplace(id, RecvStream(id, &loop_.scratch<RecvSegmentCache>()))
             .first;
    it->second.set_on_data(
        [this, id](std::span<const uint8_t> data, bool fin) {
          if (on_stream_data_) on_stream_data_(id, data, fin);
        });
  }
  return it->second;
}

void Connection::write_stream(StreamId id, std::span<const uint8_t> data,
                              bool fin) {
  if (closed_) return;
  send_stream(id).write(data, fin);
  if (established_) pump();
}

void Connection::send_hxqos(const HxQosFrame& frame) {
  if (closed_) return;
  Packet p(&loop_.arena());
  p.type = PacketType::kHxQos;
  p.conn_id = config_.conn_id;
  p.frames.emplace_back(frame);
  // Small periodic beacon: not paced, but tracked so losses are visible.
  send_packet(std::move(p), /*bypass_pacer=*/true);
}

void Connection::close(uint64_t error_code, std::string reason) {
  if (closed_) return;
  Packet p(&loop_.arena());
  p.type = PacketType::kOneRtt;
  p.conn_id = config_.conn_id;
  p.frames.push_back(ConnectionCloseFrame{error_code, std::move(reason)});
  send_packet(std::move(p), /*bypass_pacer=*/true);
  mark_closed();
}

bool Connection::has_pending_stream_data() const {
  for (const auto& [id, stream] : send_streams_) {
    if (stream.has_data_to_send()) return true;
  }
  return false;
}

void Connection::schedule_pump_at(TimeNs when) {
  if (send_timer_) return;  // already scheduled (monotone release times)
  send_timer_ = loop_.schedule_at(when, [this] {
    send_timer_.reset();
    pump();
  });
}

void Connection::pump() {
  if (closed_ || !established_) return;
  pacer_.on_idle(now());
  while (has_pending_stream_data()) {
    if (bytes_in_flight_ >= cc_->congestion_window()) return;
    if (!pacer_.can_send(now())) {
      schedule_pump_at(pacer_.next_release_time());
      return;
    }

    Packet p(&loop_.arena());
    p.type = zero_rtt_ && config_.is_server == false && !rtt_.has_sample()
                 ? PacketType::kZeroRtt
                 : PacketType::kOneRtt;
    p.conn_id = config_.conn_id;
    size_t budget = kMaxPacketPayload;
    if (ack_pending_) {
      // Sized in place: a copy of the arena-backed ranges would land on
      // the heap.
      p.frames.push_back(build_ack(received_, 0, 32, &loop_.arena()));
      budget -= std::min(budget, frame_wire_size(p.frames.back()));
      ack_pending_ = false;
      unacked_retransmittable_ = 0;
      cancel_timer(ack_timer_);
    }
    for (auto& [id, stream] : send_streams_) {
      while (stream.has_data_to_send() && budget > 24) {
        auto chunk = stream.next_chunk(budget - 24);
        if (!chunk) break;
        StreamFrame f;
        f.stream_id = id;
        f.offset = chunk->offset;
        f.fin = chunk->fin;
        f.data = chunk->data;  // borrows the stream's retained buffer
        p.frames.emplace_back(f);
        budget -= std::min(budget, frame_wire_size(p.frames.back()));
      }
      if (budget <= 24) break;
    }
    if (p.frames.empty()) break;
    send_packet(std::move(p), /*bypass_pacer=*/false);
  }
  // Everything flushed with window to spare: the sender is app-limited.
  if (bytes_in_flight_ < cc_->congestion_window()) {
    sampler_.on_app_limited();
  }
}

PacketNumber Connection::send_packet(Packet packet, bool bypass_pacer) {
  packet.packet_number = next_packet_number_++;
  const PacketNumber pn = packet.packet_number;

  // Retransmittable packets are tracked in sent_ (recycled ring
  // capacity); pure ACKs are not tracked and leave holes.  Only
  // retransmittable packets carry stream or crypto frames.
  const bool retransmittable = packet.retransmittable();
  SentPacketTable::Entry* info = retransmittable ? &sent_.add(pn) : nullptr;
  if (info != nullptr) {
    info->sent_time = now();
    for (const Frame& f : packet.frames) {
      if (const auto* sf = std::get_if<StreamFrame>(&f)) {
        sent_.add_stream_ref(SentPacketTable::StreamRef{
            sf->stream_id, sf->offset, sf->data.size(), sf->fin});
        stats_.stream_bytes_sent += sf->data.size();
      } else if (const auto* cf = std::get_if<CryptoFrame>(&f)) {
        // Explicit copy: the span dies with the packet, the retransmit
        // payload must survive in sent_.
        info->crypto_data.assign(cf->data.begin(), cf->data.end());
      }
    }
  }

  auto bytes = serialize_packet(packet, loop_.buffers());
  const uint64_t wire_bytes = bytes.size() + kPacketOverhead;

  stats_.packets_sent++;
  stats_.bytes_sent += wire_bytes;
  trace(trace::EventType::kPacketSent, pn, wire_bytes);

  if (info != nullptr) {
    info->bytes = wire_bytes;
    stats_.data_packets_sent++;
    info->rate = sampler_.on_packet_sent(now(), wire_bytes, bytes_in_flight_);
    bytes_in_flight_ += wire_bytes;
    cc_->on_packet_sent(now(), pn, wire_bytes, bytes_in_flight_, true);
    if (!bypass_pacer) {
      pacer_.on_packet_sent(now(), wire_bytes, cc_->pacing_rate());
    }
    arm_pto();
  }

  send_datagram_(std::move(bytes));
  return pn;
}

// ------------------------------------------------------------------ receive

void Connection::on_datagram(std::span<const uint8_t> data) {
  if (closed_) return;
  // Zero-copy parse: the packet's frame vector and ACK ranges live in the
  // loop's arena, payload spans borrow `data` — nothing below may retain
  // either past this call (RecvStream copies at reassembly, crypto/cookie
  // consumers copy explicitly).
  auto packet = parse_packet(data, &loop_.arena());
  if (!packet) {
    stats_.packets_undecodable++;
    trace(trace::EventType::kDecodeError, data.size());
    return;
  }
  stats_.packets_received++;
  if (received_.contains(packet->packet_number)) return;  // duplicate
  received_.add(packet->packet_number);
  const bool out_of_order = packet->packet_number < largest_received_;
  largest_received_ = std::max(largest_received_, packet->packet_number);

  bool retransmittable = false;
  for (const Frame& f : packet->frames) {
    if (is_retransmittable(f)) retransmittable = true;
    if (const auto* ack = std::get_if<AckFrame>(&f)) {
      handle_ack(*ack);
    } else if (const auto* crypto = std::get_if<CryptoFrame>(&f)) {
      handle_crypto(*crypto);
    } else if (const auto* sf = std::get_if<StreamFrame>(&f)) {
      handle_stream(*sf);
    } else if (const auto* hx = std::get_if<HxQosFrame>(&f)) {
      if (on_hxqos_) on_hxqos_(*hx);
    } else if (std::get_if<ConnectionCloseFrame>(&f)) {
      mark_closed();
      return;
    }
  }

  if (retransmittable) {
    unacked_retransmittable_++;
    if (oldest_unacked_recv_time_ == kNoTime) {
      oldest_unacked_recv_time_ = now();
    }
    maybe_send_ack(out_of_order ||
                   unacked_retransmittable_ >= kAckPacketTolerance);
  }
}

void Connection::maybe_send_ack(bool immediate) {
  ack_pending_ = true;
  if (immediate) {
    send_ack_now();
    return;
  }
  if (!ack_timer_) {
    ack_timer_ = loop_.schedule_in(kMaxAckDelay, [this] {
      ack_timer_.reset();
      if (ack_pending_) send_ack_now();
    });
  }
}

void Connection::send_ack_now() {
  TimeNs delay = 0;
  if (oldest_unacked_recv_time_ != kNoTime) {
    delay = now() - oldest_unacked_recv_time_;
  }
  Packet p(&loop_.arena());
  p.type = PacketType::kOneRtt;
  p.conn_id = config_.conn_id;
  p.frames.push_back(build_ack(received_, delay, 32, &loop_.arena()));
  ack_pending_ = false;
  unacked_retransmittable_ = 0;
  oldest_unacked_recv_time_ = kNoTime;
  cancel_timer(ack_timer_);
  send_packet(std::move(p), /*bypass_pacer=*/true);
}

void Connection::handle_stream(const StreamFrame& frame) {
  recv_stream(frame.stream_id).on_frame(frame.offset, frame.data, frame.fin);
}

void Connection::handle_ack(const AckFrame& ack) {
  cc::CongestionEvent& event = scratch_event_;
  event.acked.clear();
  event.lost.clear();
  event.now = now();
  event.prior_bytes_in_flight = bytes_in_flight_;
  event.bandwidth_sample = 0;
  event.app_limited_sample = false;

  PacketNumber largest_newly_acked = 0;
  TimeNs largest_sent_time = kNoTime;
  Bandwidth best_bw = 0;
  bool bw_app_limited = false;

  // Collect newly acked packets.
  for (PacketNumber pn = sent_.first(); pn <= ack.largest_acked;
       pn = sent_.next(pn)) {
    if (!ack.covers(pn)) continue;
    const SentPacketTable::Entry& info = sent_.at(pn);
    event.acked.push_back(cc::AckedPacket{pn, info.bytes, info.sent_time});
    bytes_in_flight_ -= std::min(bytes_in_flight_, info.bytes);
    stats_.packets_acked++;
    if (pn > largest_newly_acked) {
      largest_newly_acked = pn;
      largest_sent_time = info.sent_time;
    }
    const auto sample = sampler_.on_packet_acked(now(), info.rate);
    if (sample.bandwidth > best_bw) {
      best_bw = sample.bandwidth;
      bw_app_limited = sample.app_limited;
    }
    sent_.for_each_stream_ref(
        info, [this](const SentPacketTable::StreamRef& ref) {
          send_stream(ref.stream_id)
              .on_range_acked(ref.offset, ref.length, ref.fin);
        });
    sent_.erase(pn);
  }

  if (event.acked.empty()) return;
  largest_acked_ = std::max(largest_acked_, ack.largest_acked);
  pto_count_ = 0;

  // RTT sample only when the largest acked packet is newly acked.
  if (largest_newly_acked == ack.largest_acked &&
      largest_sent_time != kNoTime) {
    rtt_.on_sample(now() - largest_sent_time, ack.ack_delay);
  }

  detect_losses(ack.largest_acked, event.lost);

  event.latest_rtt = rtt_.latest();
  event.min_rtt = rtt_.min();
  event.smoothed_rtt = rtt_.smoothed();
  event.bandwidth_sample = best_bw;
  event.app_limited_sample = bw_app_limited;
  cc_->on_congestion_event(event);

  if (tracer_) {
    for (const auto& a : event.acked) {
      trace(trace::EventType::kPacketAcked, a.packet_number, a.bytes);
    }
    trace(trace::EventType::kRttSample,
          static_cast<uint64_t>(to_us(rtt_.latest())),
          static_cast<uint64_t>(to_us(rtt_.smoothed())));
    trace(trace::EventType::kCwndSample, cc_->congestion_window(),
          bytes_in_flight_);
    trace(trace::EventType::kPacingSample, cc_->pacing_rate());
    trace_cc_state();
  }

  if (sent_.empty()) {
    cancel_timer(pto_timer_);
    cancel_timer(loss_timer_);
  } else {
    arm_pto();
  }
  pump();
}

void Connection::detect_losses(PacketNumber largest_acked,
                               std::vector<cc::LostPacket>& lost) {
  const TimeNs rtt_for_threshold =
      rtt_.has_sample()
          ? std::max(rtt_.smoothed(), rtt_.latest())
          : kInitialRtt;
  const TimeNs time_threshold = static_cast<TimeNs>(
      kTimeReorderingFraction * static_cast<double>(rtt_for_threshold));
  TimeNs next_loss_time = kNoTime;

  // requeue_lost_payload erases `pn` and may add a (larger) packet, so
  // the walk goes by packet number, not by reference.
  for (PacketNumber pn = sent_.first(); pn < largest_acked;
       pn = sent_.next(pn)) {
    const SentPacketTable::Entry& info = sent_.at(pn);
    const bool packet_thresh =
        largest_acked - pn >= static_cast<PacketNumber>(
                                  kPacketReorderingThreshold);
    const TimeNs lost_at = info.sent_time + time_threshold;
    const bool time_thresh = now() >= lost_at;
    if (packet_thresh || time_thresh) {
      lost.push_back(cc::LostPacket{pn, info.bytes});
      stats_.packets_lost++;
      trace(trace::EventType::kPacketLost, pn, info.bytes);
      requeue_lost_payload(pn);
    } else if (next_loss_time == kNoTime || lost_at < next_loss_time) {
      next_loss_time = lost_at;
    }
  }
  if (next_loss_time != kNoTime) arm_loss_timer(next_loss_time);
}

void Connection::requeue_lost_payload(PacketNumber pn) {
  SentPacketTable::Entry& info = sent_.at(pn);
  bytes_in_flight_ -= std::min(bytes_in_flight_, info.bytes);
  sent_.for_each_stream_ref(
      info, [this](const SentPacketTable::StreamRef& ref) {
        send_stream(ref.stream_id)
            .on_range_lost(ref.offset, ref.length, ref.fin);
        stats_.stream_bytes_retransmitted += ref.length;
      });
  // The crypto re-send adds a packet, which may grow the ring or land in
  // this very slot, so its bytes move out of the ring first (a swap: both
  // buffers keep their capacity).
  resend_crypto_.swap(info.crypto_data);
  sent_.erase(pn);
  if (!resend_crypto_.empty()) {
    CryptoFrame f;
    f.data = resend_crypto_;
    Packet p(&loop_.arena());
    p.type = PacketType::kInitial;
    p.conn_id = config_.conn_id;
    p.frames.emplace_back(f);
    send_packet(std::move(p), /*bypass_pacer=*/true);
  }
}

void Connection::trace_cc_state() {
  if (!tracer_) return;
  const char* state = cc_->state_name();
  if (last_cc_state_ && std::strcmp(last_cc_state_, state) == 0) return;
  last_cc_state_ = state;
  trace(trace::EventType::kCcStateChanged, 0, 0, state);
}

// ------------------------------------------------------------------- timers

void Connection::cancel_timer(std::optional<sim::EventId>& id) {
  if (id) {
    loop_.cancel(*id);
    id.reset();
  }
}

void Connection::mark_closed() {
  closed_ = true;
  cancel_timer(ack_timer_);
  cancel_timer(loss_timer_);
  cancel_timer(pto_timer_);
  cancel_timer(send_timer_);
  sent_.release();
}

void Connection::arm_loss_timer(TimeNs when) {
  // Re-arm in place while the timer is pending; reschedule orders exactly
  // as cancel + schedule_at would.
  if (loss_timer_ && loop_.reschedule(*loss_timer_, when)) return;
  loss_timer_ = loop_.schedule_at(when, [this] {
    loss_timer_.reset();
    on_loss_timer();
  });
}

void Connection::on_loss_timer() {
  if (closed_) return;
  cc::CongestionEvent& event = scratch_event_;
  event.acked.clear();
  event.lost.clear();
  detect_losses(largest_acked_, event.lost);
  if (!event.lost.empty()) {
    event.now = now();
    event.prior_bytes_in_flight = bytes_in_flight_;
    event.latest_rtt = rtt_.latest();
    event.min_rtt = rtt_.min();
    event.smoothed_rtt = rtt_.smoothed();
    event.bandwidth_sample = 0;
    event.app_limited_sample = false;
    cc_->on_congestion_event(event);
    trace_cc_state();
    pump();
  }
}

void Connection::arm_pto() {
  // Loop time, not now(): timers live on the loop's clock even when now()
  // reads a real clock (wira_proxyd).
  const TimeNs when =
      loop_.now() + (rtt_.pto(kMaxAckDelay) << pto_count_);
  if (pto_timer_ && loop_.reschedule(*pto_timer_, when)) return;
  pto_timer_ = loop_.schedule_at(when, [this] {
    pto_timer_.reset();
    on_pto();
  });
}

void Connection::on_pto() {
  if (closed_ || sent_.empty()) return;
  stats_.ptos_fired++;
  trace(trace::EventType::kPtoFired, static_cast<uint64_t>(pto_count_));
  pto_count_ = std::min(pto_count_ + 1, 6);

  // Probe: treat the oldest in-flight packet's payload as needing resend.
  requeue_lost_payload(sent_.first());
  if (pto_count_ >= 2) {
    cc_->on_retransmission_timeout(now());
    trace_cc_state();
  }
  arm_pto();
  pump();

  // Nothing pending (e.g. pure-probe case): keep the timer armed while
  // packets remain in flight.
  if (!sent_.empty() && !pto_timer_) arm_pto();
}

}  // namespace wira::quic
