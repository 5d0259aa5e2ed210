// Stream send/receive machinery.
//
// SendStream keeps the full byte buffer for the life of the stream (live
// sessions are a few MB at most) so retransmissions can always re-read the
// original bytes; ranges are tracked with RangeSet.  RecvStream reassembles
// out-of-order frames and delivers the contiguous prefix.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "quic/range_set.h"
#include "quic/types.h"

namespace wira::quic {

/// Recycler for SendStream's retained byte buffer.  A live session's
/// response stream grows to megabytes by doubling, and every doubling
/// copies the stream and touches fresh pages; a stream on a loop that
/// already ran a session swaps in the retired buffer as soon as it
/// outgrows kMinBytes.  One per event loop (EventLoop::scratch); the
/// bytes are always rewritten from offset 0, so recycling never changes
/// behaviour.
struct SendBufferCache {
  /// Smaller buffers are neither parked nor swapped in (request streams).
  static constexpr size_t kMinBytes = 64 * 1024;
  /// Bounds parked memory (one per concurrently retired stream).
  static constexpr size_t kMaxBuffers = 4;

  std::vector<std::vector<uint8_t>> buffers;
};

class SendStream {
 public:
  explicit SendStream(StreamId id, SendBufferCache* cache = nullptr)
      : id_(id), cache_(cache) {}
  /// Parks the buffer in the cache (when large enough and there is room).
  ~SendStream();
  SendStream(SendStream&&) = default;
  SendStream& operator=(SendStream&&) = default;

  StreamId id() const { return id_; }

  /// Appends application data; returns the starting offset.
  uint64_t write(std::span<const uint8_t> data, bool fin = false);

  bool has_data_to_send() const;

  /// Next chunk to transmit (retransmissions take priority over new data);
  /// at most `max_len` bytes.  Returns nullopt when idle.  `data` borrows
  /// from the stream's retained buffer: valid until the next write() (which
  /// may reallocate), which is fine for the synchronous pack-and-serialize
  /// in Connection::pump.
  struct Chunk {
    uint64_t offset = 0;
    std::span<const uint8_t> data;
    bool fin = false;
  };
  std::optional<Chunk> next_chunk(uint64_t max_len);

  /// Marks [offset, offset+len) acked.
  void on_range_acked(uint64_t offset, uint64_t len, bool fin_acked);

  /// Marks [offset, offset+len) lost -> queued for retransmission
  /// (already-acked bytes are skipped).
  void on_range_lost(uint64_t offset, uint64_t len, bool fin_lost);

  uint64_t bytes_written() const { return buffer_.size(); }
  uint64_t next_new_offset() const { return next_offset_; }
  bool fin_written() const { return fin_written_; }
  bool all_acked() const;

  /// Bytes queued for (re)transmission right now.
  uint64_t pending_bytes() const;

 private:
  StreamId id_;
  std::vector<uint8_t> buffer_;   ///< every byte ever written
  uint64_t next_offset_ = 0;      ///< first never-sent byte
  RangeSet retx_;                 ///< lost, needs resend
  RangeSet acked_;
  bool fin_written_ = false;
  bool fin_needs_send_ = false;
  bool fin_acked_ = false;
  SendBufferCache* cache_ = nullptr;  ///< not owned; may be null
};

/// Cross-stream recycler for RecvStream's reassembly storage.  Retired
/// segment map nodes park here (keyed by a throwaway counter) and are
/// re-keyed on reuse, so steady-state out-of-order reassembly allocates
/// neither map nodes nor byte buffers — the parked vectors keep their
/// capacity.  One per event loop (EventLoop::scratch) shared by every
/// stream of every connection on it; values are always fully overwritten
/// before reuse, so recycling never changes behaviour.
struct RecvSegmentCache {
  /// Bounds parked memory (nodes above the cap are simply freed).
  static constexpr size_t kMaxNodes = 256;

  std::map<uint64_t, std::vector<uint8_t>> graveyard;
  uint64_t next_key = 0;
};

class RecvStream {
 public:
  /// Callback invoked with each newly contiguous data segment, in order.
  using DataFn =
      std::function<void(std::span<const uint8_t> data, bool fin)>;

  explicit RecvStream(StreamId id, RecvSegmentCache* cache = nullptr)
      : id_(id), cache_(cache) {}
  ~RecvStream();
  RecvStream(RecvStream&&) = default;
  RecvStream& operator=(RecvStream&&) = default;

  StreamId id() const { return id_; }
  void set_on_data(DataFn fn) { on_data_ = std::move(fn); }

  void on_frame(uint64_t offset, std::span<const uint8_t> data, bool fin);

  uint64_t contiguous_bytes() const { return contiguous_; }
  uint64_t highest_seen() const { return highest_seen_; }
  bool finished() const { return fin_offset_ && contiguous_ >= *fin_offset_; }

 private:
  using SegmentMap = std::map<uint64_t, std::vector<uint8_t>>;

  /// segments_[key] = bytes, preferring a node recycled from the cache.
  void store_segment(uint64_t key, std::span<const uint8_t> bytes);
  /// Erases `it`, parking its node (and buffer capacity) in the cache.
  SegmentMap::iterator retire_segment(SegmentMap::iterator it);

  StreamId id_;
  DataFn on_data_;
  uint64_t contiguous_ = 0;
  uint64_t highest_seen_ = 0;
  std::optional<uint64_t> fin_offset_;
  SegmentMap segments_;                 ///< offset -> bytes
  RecvSegmentCache* cache_ = nullptr;   ///< not owned; may be null
};

}  // namespace wira::quic
