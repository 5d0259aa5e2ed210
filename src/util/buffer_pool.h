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
//
// Each class keeps at most kClassBytes of free capacity, so a burst of
// large chunk buffers cannot crowd packet buffers out of the pool, and the
// memory a pool holds stays bounded by kClasses * kClassBytes.  A buffer
// captured by a pending event is a PooledBuffer, which goes home when the
// event is destroyed unrun (cancel, EventLoop::reset, ~EventLoop).
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
  /// Free capacity each class may hold: 128 buffers of the 2-KiB class
  /// that full-sized packets use, one of the largest.  A larger bound
  /// saved few allocations and raised the sweeps' peak RSS by about 1 MB.
  static constexpr size_t kClassBytes = size_t{256} << 10;

  /// `max_buffers` additionally bounds the number of pooled buffers over
  /// all classes (unbounded by default; the byte bound always applies).
  explicit BufferPool(size_t max_buffers = SIZE_MAX)
      : max_buffers_(max_buffers) {}

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
    free_bytes_[c] -= buf.capacity();
    buf.clear();
    return buf;
  }

  /// Returns a buffer to its size class.  Drops it if its capacity is
  /// outside [kMinCapacity, kMaxCapacity], if the class already holds
  /// kClassBytes, or if the pool holds max_buffers.
  void release(std::vector<uint8_t>&& buf) {
    const size_t cap = buf.capacity();
    if (cap < kMinCapacity || cap > kMaxCapacity ||
        pooled_ >= max_buffers_) {
      return;
    }
    const size_t c = std::bit_width(cap) - 1 - kMinShift;
    if (free_bytes_[c] + cap > kClassBytes) return;
    free_bytes_[c] += cap;
    free_[c].push_back(std::move(buf));
    ++pooled_;
  }

  size_t pooled() const { return pooled_; }

 private:
  static constexpr size_t kMinShift = std::bit_width(kMinCapacity) - 1;

  size_t max_buffers_;
  size_t pooled_ = 0;
  std::array<size_t, kClasses> free_bytes_{};
  std::array<std::vector<std::vector<uint8_t>>, kClasses> free_;
};

/// A buffer on its way back to a pool: whoever holds it may read, fill or
/// take() the bytes, and whatever is left when it is destroyed goes back
/// to the pool it came from.  It is what an event captures when it
/// carries a pooled buffer, so a destroyed event (cancel, loop reset, loop
/// destruction) returns the buffer instead of freeing it.  The pool must
/// outlive it.
class PooledBuffer {
 public:
  PooledBuffer(BufferPool& pool, std::vector<uint8_t>&& bytes)
      : pool_(&pool), bytes_(std::move(bytes)) {}
  PooledBuffer(PooledBuffer&& other) noexcept
      : pool_(other.pool_), bytes_(std::move(other.bytes_)) {}
  PooledBuffer& operator=(PooledBuffer&&) = delete;
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() { pool_->release(std::move(bytes_)); }

  std::vector<uint8_t>& bytes() { return bytes_; }
  /// Hands the bytes over; the caller now owns (and may release) them.
  std::vector<uint8_t> take() { return std::move(bytes_); }

 private:
  BufferPool* pool_;
  std::vector<uint8_t> bytes_;
};

}  // namespace wira::util
