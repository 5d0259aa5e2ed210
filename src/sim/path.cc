#include "sim/path.h"

namespace wira::sim {

PathConfig testbed_path() {
  PathConfig p;
  p.bandwidth = mbps(8);
  p.rtt = milliseconds(50);
  p.loss_rate = 0.03;
  p.buffer_bytes = 25 * 1024;
  return p;
}

Path::Path(EventLoop& loop, const PathConfig& config, uint64_t seed)
    : config_(config) {
  LinkConfig fwd;
  fwd.rate = config.bandwidth;
  fwd.delay = config.rtt / 2;
  fwd.buffer_bytes = config.buffer_bytes;
  fwd.loss = config.extra_loss;
  fwd.loss.loss_rate = config.loss_rate;
  fwd.jitter = config.jitter;
  fwd.reorder_rate = config.reorder_rate;
  fwd.reorder_extra_delay = config.reorder_extra_delay;

  LinkConfig rev;
  rev.rate = config.reverse_bandwidth;
  rev.delay = config.rtt / 2;
  rev.buffer_bytes = 256 * 1024;
  // The ACK path is lossless (LossModel's default).

  forward_ = std::make_unique<Link>(loop, fwd, seed * 2 + 1);
  reverse_ = std::make_unique<Link>(loop, rev, seed * 2 + 2);
}

}  // namespace wira::sim
