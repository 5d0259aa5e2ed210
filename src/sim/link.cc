#include "sim/link.h"

#include <cstddef>
#include <utility>

namespace wira::sim {

Link::Link(EventLoop& loop, LinkConfig config, uint64_t seed)
    : loop_(loop),
      config_(config),
      rng_(seed),
      ledger_cache_(loop.scratch<LedgerCache>()) {
  auto& spare = ledger_cache_.spare;
  if (!spare.empty()) {
    ledger_ = std::move(spare.back());
    spare.pop_back();
  }
}

Link::~Link() {
  ledger_.clear();
  ledger_cache_.spare.push_back(std::move(ledger_));
}

void Link::drain() const {
  // Departures are FIFO (one serializer), so the passed entries are a
  // prefix.
  while (ledger_head_ < ledger_.size() &&
         loop_.has_passed(ledger_[ledger_head_].depart,
                          ledger_[ledger_head_].seq)) {
    queued_bytes_ -= ledger_[ledger_head_].size;
    ++ledger_head_;
  }
  if (ledger_head_ == ledger_.size()) {
    ledger_.clear();
    ledger_head_ = 0;
  } else if (ledger_head_ >= 64 && 2 * ledger_head_ >= ledger_.size()) {
    // A link that never empties still reuses its storage.
    ledger_.erase(ledger_.begin(),
                  ledger_.begin() + static_cast<std::ptrdiff_t>(ledger_head_));
    ledger_head_ = 0;
  }
}

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
  drain();
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

  // Serialization completes at `depart`: the datagram leaves the queue in
  // the loop's event order, then is either dropped on the wire or
  // delivered after propagation.
  ledger_.push_back(Departure{depart, loop_.reserve_seq(), size});

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
  // The payload rides as a PooledBuffer: if a loop reset destroys the
  // event unrun, the buffer still goes back to the pool.
  util::PooledBuffer payload(loop_.buffers(), std::move(d.payload));
  loop_.schedule_at(arrive, [this, size = d.size, dest = d.dest,
                             payload = std::move(payload)]() mutable {
    Datagram d{payload.take(), size, dest};
    stats_.delivered_packets++;
    stats_.delivered_bytes += size;
    if (deliver_) deliver_(std::span<Datagram>(&d, 1));
    // Whatever buffer the receiver left behind goes back into the pool
    // for the next serialized packets.
    loop_.buffers().release(std::move(d.payload));
  });
}

}  // namespace wira::sim
