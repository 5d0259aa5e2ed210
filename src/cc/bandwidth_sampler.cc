#include "cc/bandwidth_sampler.h"

#include <algorithm>

namespace wira::cc {

PacketState BandwidthSampler::on_packet_sent(TimeNs now, uint64_t bytes,
                                             uint64_t bytes_in_flight) {
  if (bytes_in_flight == 0) {
    // Restarting from idle: reset the delivery clock so the idle gap does
    // not depress the next sample.
    delivered_time_ = now;
    first_sent_time_ = now;
  }
  PacketState st;
  st.bytes = bytes;
  st.delivered_at_send = delivered_;
  st.delivered_time_at_send = delivered_time_;
  st.first_sent_time = first_sent_time_;
  st.sent_time = now;
  st.app_limited = delivered_ < app_limited_until_;
  first_sent_time_ = now;
  return st;
}

RateSample BandwidthSampler::on_packet_acked(TimeNs now,
                                             const PacketState& st) {
  RateSample sample;
  delivered_ += st.bytes;
  delivered_time_ = now;

  // Use the larger of the send interval and the ack interval (standard
  // delivery-rate estimation: guards against ACK compression).
  const TimeNs send_interval = st.sent_time - st.first_sent_time;
  const TimeNs ack_interval = now - st.delivered_time_at_send;
  const TimeNs interval = std::max(send_interval, ack_interval);
  if (interval <= 0) return sample;

  sample.bandwidth = delivery_rate(delivered_ - st.delivered_at_send,
                                   interval);
  sample.app_limited = st.app_limited;
  sample.interval = interval;
  return sample;
}

}  // namespace wira::cc
