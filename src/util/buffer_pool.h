// Freelist of byte buffers for the per-packet hot path.
//
// A simulated session moves every datagram through the same cycle:
// Connection serializes into a vector, the Link queues it, the receiver
// parses it, the vector dies.  Pooling the vectors turns that steady-state
// churn (two allocations per packet, both directions) into pointer swaps.
// The origin's muxed chunks ride the same pool, and they range from a
// 300-byte audio tag to a 250-KB I-frame, so the pool keeps one free list
// per power-of-two size class: acquire(size) pops from the one class that
// fits `size` (O(1), no scan), and a miss reserves the class's full
// capacity, so the buffer fits every later request of its class.
// The pool is intentionally not thread-safe: it lives inside one
// EventLoop, and each simulated session owns its loop exclusively.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wira::util {

class BufferPool {
 public:
  /// Smallest and largest pooled capacities: class c holds buffers with
  /// capacity in [kMinCapacity << c, kMinCapacity << (c + 1)).
  static constexpr size_t kMinCapacity = 256;
  static constexpr size_t kClasses = 11;  ///< 256 B .. 256 KiB
  static constexpr size_t kMaxCapacity = kMinCapacity << (kClasses - 1);

  /// `max_buffers` bounds the number of pooled buffers (all classes).
  explicit BufferPool(size_t max_buffers = 64) : max_buffers_(max_buffers) {}

  /// Returns an empty buffer with capacity >= `size`.  Sizes above
  /// kMaxCapacity get an exact fresh buffer that release() will drop.
  std::vector<uint8_t> acquire(size_t size) {
    const size_t c = size <= kMinCapacity
                         ? 0
                         : std::bit_width(size - 1) - kMinShift;
    std::vector<uint8_t> buf;
    if (c >= kClasses) {
      buf.reserve(size);
      return buf;
    }
    if (free_[c].empty()) {
      buf.reserve(kMinCapacity << c);
      return buf;
    }
    buf = std::move(free_[c].back());
    free_[c].pop_back();
    --pooled_;
    buf.clear();
    return buf;
  }

  /// Returns a buffer to its size class (drops it if the pool is full or
  /// its capacity is outside [kMinCapacity, kMaxCapacity]).
  void release(std::vector<uint8_t>&& buf) {
    const size_t cap = buf.capacity();
    if (cap < kMinCapacity || cap > kMaxCapacity ||
        pooled_ >= max_buffers_) {
      return;
    }
    free_[std::bit_width(cap) - 1 - kMinShift].push_back(std::move(buf));
    ++pooled_;
  }

  size_t pooled() const { return pooled_; }

 private:
  static constexpr size_t kMinShift = std::bit_width(kMinCapacity) - 1;

  size_t max_buffers_;
  size_t pooled_ = 0;
  std::array<std::vector<std::vector<uint8_t>>, kClasses> free_;
};

}  // namespace wira::util
