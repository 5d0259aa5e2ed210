// Per-packet delivery-rate estimator (the technique from the BBR paper /
// draft-cheng-iccrg-delivery-rate-estimation): each sent packet snapshots
// the delivered-bytes counter; each ACK yields bandwidth =
// delta(delivered) / delta(time), marked app-limited when the sender was
// starved at send time.
//
// The sampler keeps no per-packet table: on_packet_sent returns the
// packet's snapshot, the caller stores it with its own sent-packet record
// (quic::Connection keeps it in the packet's sent_ entry) and hands it
// back on ack.
// A lost packet's snapshot is simply dropped with its record.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace wira::cc {

struct RateSample {
  Bandwidth bandwidth = 0;
  bool app_limited = false;
  TimeNs interval = 0;
};

/// Delivery-clock snapshot taken when a packet is sent.
struct PacketState {
  uint64_t bytes = 0;
  uint64_t delivered_at_send = 0;
  TimeNs delivered_time_at_send = 0;
  TimeNs first_sent_time = 0;
  TimeNs sent_time = 0;
  bool app_limited = false;
};

class BandwidthSampler {
 public:
  /// Advances the send clock and returns the packet's snapshot.
  PacketState on_packet_sent(TimeNs now, uint64_t bytes,
                             uint64_t bytes_in_flight);

  /// Processes one acked packet (its snapshot from on_packet_sent) and
  /// returns its rate sample (bandwidth == 0 when the interval is zero).
  RateSample on_packet_acked(TimeNs now, const PacketState& st);

  /// Marks the connection app-limited: samples from packets sent from now
  /// until delivered catches up are flagged.
  void on_app_limited() { app_limited_until_ = delivered_ + 1; }

  uint64_t total_delivered() const { return delivered_; }

 private:
  uint64_t delivered_ = 0;
  TimeNs delivered_time_ = 0;
  TimeNs first_sent_time_ = 0;
  uint64_t app_limited_until_ = 0;
};

}  // namespace wira::cc
