// Unidirectional emulated link: drop-tail queue -> serialization at a fixed
// rate -> propagation delay -> stochastic wire loss -> delivery callback.
//
// This is the emulator analogue of the paper's testbed configuration
// ("8Mbps bandwidth, 3% loss rate, 50ms RTT and 25KB network buffer").
//
// A datagram costs the loop one event, its delivery: the closure owns the
// datagram (a Datagram fits SmallFn's inline buffer), so delivery follows
// the loop's (time, insertion-order) semantics — same-instant arrivals
// reach the receiver in send order, one call each.  A loop reset destroys
// the pending closures, and every payload still in flight goes back to the
// loop's BufferPool.
//
// Leaving the queue takes no event.  The link keeps a FIFO ledger of
// {departure time, reserved sequence number, size} and drains it lazily
// (at send() and queued_bytes()) through EventLoop::has_passed, so the
// occupancy any caller sees is the one a departure event scheduled at send
// time would have left, same-instant ties included.  The ledger's storage
// is recycled through the loop's scratch across links and sessions.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/event_loop.h"
#include "util/rng.h"
#include "util/units.h"

namespace wira::sim {

/// A datagram in flight.  Payload bytes are owned; `size` may exceed the
/// payload length to model headers without materializing them.  `dest`
/// is an opaque routing tag used by multi-leg topologies.
struct Datagram {
  std::vector<uint8_t> payload;
  size_t size = 0;
  uint64_t dest = 0;
};

/// Stochastic loss model: independent (Bernoulli) loss plus an optional
/// Gilbert-Elliott two-state burst component.
struct LossModel {
  double loss_rate = 0.0;  ///< independent per-packet drop probability

  // Gilbert-Elliott burst loss (disabled when p_good_to_bad == 0).
  double p_good_to_bad = 0.0;  ///< transition probability per packet
  double p_bad_to_good = 0.0;
  double bad_state_loss = 0.0;  ///< drop probability while in the bad state
};

struct LinkConfig {
  Bandwidth rate = mbps(100);        ///< serialization rate
  TimeNs delay = milliseconds(10);   ///< one-way propagation delay
  uint64_t buffer_bytes = 64 * 1024; ///< drop-tail queue capacity
  LossModel loss;
  /// Per-packet propagation jitter: delay += U(0, jitter).  Jitter can
  /// reorder packets (later-sent may arrive first), like real radio links.
  TimeNs jitter = 0;
  /// Probability of an extra reordering kick: the packet is held for one
  /// additional `reorder_extra_delay` on top of jitter.
  double reorder_rate = 0;
  TimeNs reorder_extra_delay = milliseconds(5);
  /// Probability a delivered packet is duplicated (delivered twice).
  double duplicate_rate = 0;
};

struct LinkStats {
  uint64_t delivered_packets = 0;
  uint64_t delivered_bytes = 0;
  uint64_t queue_drops = 0;   ///< buffer overflow
  uint64_t wire_drops = 0;    ///< stochastic loss
  uint64_t max_queue_bytes = 0;
};

class Link {
 public:
  /// Receives one arriving datagram as a span of exactly one.  The span
  /// stays valid only for the duration of the call; after it returns, the
  /// link reclaims a payload buffer left in place into the loop's
  /// BufferPool (receivers that keep the bytes simply move the payload
  /// out).
  using DeliverFn = std::function<void(std::span<Datagram>)>;

  Link(EventLoop& loop, LinkConfig config, uint64_t seed);
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Installs the receiver; must be set before the first send().
  void set_receiver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Offers a datagram to the queue; silently drops on overflow (the drop
  /// is visible in stats(), like a real NIC).
  void send(Datagram d);

  /// Current queue occupancy in bytes: datagrams whose serialization has
  /// not completed by now().  After EventLoop::run(), whose clock stops at
  /// the last executed event, that still counts datagrams departing later
  /// (a wire-dropped datagram schedules no event to run up to).
  uint64_t queued_bytes() const {
    drain();
    return queued_bytes_;
  }

  const LinkConfig& config() const { return config_; }
  LinkConfig& config() { return config_; }  ///< mutable: mid-run condition changes
  const LinkStats& stats() const { return stats_; }

 private:
  /// A queued datagram's exit from the queue.  `seq` is reserved from the
  /// loop at send time, so a departure ties with same-instant events in
  /// send order.
  struct Departure {
    TimeNs depart;
    uint64_t seq;
    uint64_t size;
  };
  /// Spare ledger vectors, one cache per loop (EventLoop::scratch): a
  /// link borrows one at construction and returns it, cleared, on
  /// destruction, so recycled sessions allocate no ledger storage.
  struct LedgerCache {
    std::vector<std::vector<Departure>> spare;
  };

  bool roll_loss();
  /// Schedules `d`'s arrival at `arrive`: one event owning the datagram.
  void schedule_delivery(Datagram d, TimeNs arrive);
  /// Pops every ledger entry that has departed by the loop's position.
  void drain() const;

  EventLoop& loop_;
  LinkConfig config_;
  Rng rng_;
  DeliverFn deliver_;
  TimeNs busy_until_ = 0;   ///< when the serializer frees up
  LedgerCache& ledger_cache_;  ///< the loop's scratch, outlives us
  // The ledger is drained from const accessors: departures are a function
  // of the loop's clock, not a change the caller makes.
  mutable std::vector<Departure> ledger_;  ///< FIFO from ledger_head_
  mutable size_t ledger_head_ = 0;
  mutable uint64_t queued_bytes_ = 0;
  bool ge_bad_state_ = false;
  LinkStats stats_;
};

}  // namespace wira::sim
