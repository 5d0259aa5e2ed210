#include "sim/link.h"

#include <utility>

namespace wira::sim {

Link::Link(EventLoop& loop, LinkConfig config, uint64_t seed)
    : loop_(loop), config_(config), rng_(seed) {}

bool Link::roll_loss() {
  const LossModel& m = config_.loss;
  // Gilbert-Elliott state advance (per packet).
  if (m.p_good_to_bad > 0) {
    if (ge_bad_state_) {
      if (rng_.chance(m.p_bad_to_good)) ge_bad_state_ = false;
    } else {
      if (rng_.chance(m.p_good_to_bad)) ge_bad_state_ = true;
    }
    if (ge_bad_state_ && rng_.chance(m.bad_state_loss)) return true;
  }
  return m.loss_rate > 0 && rng_.chance(m.loss_rate);
}

void Link::send(Datagram d) {
  const uint64_t size = d.size ? d.size : d.payload.size();
  d.size = size;  // normalize so delivery stats need no side-channel
  if (queued_bytes_ + size > config_.buffer_bytes) {
    stats_.queue_drops++;
    loop_.buffers().release(std::move(d.payload));
    return;
  }
  queued_bytes_ += size;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);

  const TimeNs start = std::max(loop_.now(), busy_until_);
  const TimeNs tx = transfer_time(size, config_.rate);
  busy_until_ = start + tx;
  const TimeNs depart = busy_until_;
  TimeNs arrive = depart + config_.delay;
  if (config_.jitter > 0) {
    arrive += static_cast<TimeNs>(
        rng_.uniform() * static_cast<double>(config_.jitter));
  }
  if (config_.reorder_rate > 0 && rng_.chance(config_.reorder_rate)) {
    arrive += config_.reorder_extra_delay;
  }

  // Serialization complete: leave the queue, then either drop on the wire
  // or deliver after propagation.
  loop_.schedule_at(depart, [this, size] { queued_bytes_ -= size; });

  if (roll_loss()) {
    stats_.wire_drops++;
    loop_.buffers().release(std::move(d.payload));
    return;
  }
  const bool duplicate =
      config_.duplicate_rate > 0 && rng_.chance(config_.duplicate_rate);
  if (duplicate) {
    Datagram copy;
    copy.payload = loop_.buffers().acquire(d.payload.size());
    copy.payload.assign(d.payload.begin(), d.payload.end());
    copy.size = d.size;  // duplicates carry dest 0: the tag only matters
                         // on the egress hop, which never duplicates
    schedule_delivery(std::move(copy), arrive + milliseconds(1));
  }
  schedule_delivery(std::move(d), arrive);
}

void Link::schedule_delivery(Datagram d, TimeNs arrive) {
  loop_.schedule_at(arrive, [this, d = std::move(d)]() mutable {
    stats_.delivered_packets++;
    stats_.delivered_bytes += d.size;
    if (deliver_) deliver_(std::span<Datagram>(&d, 1));
    // Whatever buffer the receiver left behind goes back into the pool
    // for the next serialized packets.
    loop_.buffers().release(std::move(d.payload));
  });
}

}  // namespace wira::sim
