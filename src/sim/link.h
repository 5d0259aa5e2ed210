// Unidirectional emulated link: drop-tail queue -> serialization at a fixed
// rate -> propagation delay -> stochastic wire loss -> delivery callback.
//
// This is the emulator analogue of the paper's testbed configuration
// ("8Mbps bandwidth, 3% loss rate, 50ms RTT and 25KB network buffer").
//
// Each surviving datagram is one loop event whose closure owns it (a
// Datagram fits SmallFn's inline buffer), so delivery follows the loop's
// (time, insertion-order) semantics: same-instant arrivals reach the
// receiver in send order, one call each.  A loop reset destroys the
// pending closures and with them every datagram still in flight.
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

  /// Installs the receiver; must be set before the first send().
  void set_receiver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Offers a datagram to the queue; silently drops on overflow (the drop
  /// is visible in stats(), like a real NIC).
  void send(Datagram d);

  /// Current queue occupancy in bytes (excludes the packet on the wire).
  uint64_t queued_bytes() const { return queued_bytes_; }

  const LinkConfig& config() const { return config_; }
  LinkConfig& config() { return config_; }  ///< mutable: mid-run condition changes
  const LinkStats& stats() const { return stats_; }

 private:
  bool roll_loss();
  /// Schedules `d`'s arrival at `arrive`: one event owning the datagram.
  void schedule_delivery(Datagram d, TimeNs arrive);

  EventLoop& loop_;
  LinkConfig config_;
  Rng rng_;
  DeliverFn deliver_;
  TimeNs busy_until_ = 0;   ///< when the serializer frees up
  uint64_t queued_bytes_ = 0;
  bool ge_bad_state_ = false;
  LinkStats stats_;
};

}  // namespace wira::sim
