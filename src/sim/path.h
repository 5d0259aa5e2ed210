// A duplex network path between two endpoints (client <-> server), built
// from two Links.  The forward (server -> client) direction carries the
// live-stream payload and is the bottleneck; the reverse direction carries
// requests and ACKs.
#pragma once

#include <memory>

#include "sim/link.h"

namespace wira::sim {

/// Path-level configuration in the vocabulary the paper uses.
struct PathConfig {
  Bandwidth bandwidth = mbps(8);       ///< bottleneck (server->client)
  TimeNs rtt = milliseconds(50);       ///< total propagation round trip
  double loss_rate = 0.0;              ///< applied on the bottleneck direction
  uint64_t buffer_bytes = 25 * 1024;   ///< bottleneck drop-tail buffer
  Bandwidth reverse_bandwidth = mbps(100);
  LossModel extra_loss;                ///< optional burst-loss overlay (fwd)
  /// Forward-direction reordering (see LinkConfig): per-packet propagation
  /// jitter plus an optional extra reorder kick.  Radio-like paths.
  TimeNs jitter = 0;
  double reorder_rate = 0;
  TimeNs reorder_extra_delay = milliseconds(5);
};

/// The paper's Fig. 2 testbed path: 8 Mbps, 3% loss, 50 ms RTT, 25 KB buffer.
PathConfig testbed_path();

class Path {
 public:
  Path(EventLoop& loop, const PathConfig& config, uint64_t seed);

  Link& forward() { return *forward_; }   ///< server -> client
  Link& reverse() { return *reverse_; }   ///< client -> server
  const PathConfig& config() const { return config_; }

 private:
  PathConfig config_;
  std::unique_ptr<Link> forward_;
  std::unique_ptr<Link> reverse_;
};

}  // namespace wira::sim
