#include "quic/stream.h"

#include <algorithm>

namespace wira::quic {

SendStream::~SendStream() {
  if (cache_ != nullptr &&
      buffer_.capacity() >= SendBufferCache::kMinBytes &&
      cache_->buffers.size() < SendBufferCache::kMaxBuffers) {
    cache_->buffers.push_back(std::move(buffer_));
  }
}

uint64_t SendStream::write(std::span<const uint8_t> data, bool fin) {
  const uint64_t start = buffer_.size();
  const uint64_t need = start + data.size();
  if (cache_ != nullptr && need > buffer_.capacity() &&
      need > SendBufferCache::kMinBytes && !cache_->buffers.empty()) {
    // Outgrowing the buffer: swap in the largest parked one if it beats
    // the capacity this growth would allocate.
    auto largest = std::max_element(
        cache_->buffers.begin(), cache_->buffers.end(),
        [](const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
          return a.capacity() < b.capacity();
        });
    if (largest->capacity() >= std::max(need, 2 * buffer_.capacity())) {
      largest->assign(buffer_.begin(), buffer_.end());
      buffer_.swap(*largest);
      cache_->buffers.erase(largest);
    }
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  if (fin) {
    fin_written_ = true;
    fin_needs_send_ = true;
  }
  return start;
}

bool SendStream::has_data_to_send() const {
  return !retx_.empty() || next_offset_ < buffer_.size() || fin_needs_send_;
}

std::optional<SendStream::Chunk> SendStream::next_chunk(uint64_t max_len) {
  if (max_len == 0) return std::nullopt;
  Chunk c;
  if (!retx_.empty()) {
    const Range r = retx_.pop_front(max_len);
    c.offset = r.lo;
    c.data = std::span<const uint8_t>(buffer_).subspan(r.lo, r.hi + 1 - r.lo);
    c.fin = fin_written_ && r.hi + 1 == buffer_.size();
    return c;
  }
  if (next_offset_ < buffer_.size()) {
    const uint64_t len =
        std::min<uint64_t>(max_len, buffer_.size() - next_offset_);
    c.offset = next_offset_;
    c.data = std::span<const uint8_t>(buffer_).subspan(next_offset_, len);
    next_offset_ += len;
    c.fin = fin_written_ && next_offset_ == buffer_.size();
    if (c.fin) fin_needs_send_ = false;
    return c;
  }
  if (fin_needs_send_) {
    c.offset = buffer_.size();
    c.fin = true;
    fin_needs_send_ = false;
    return c;
  }
  return std::nullopt;
}

void SendStream::on_range_acked(uint64_t offset, uint64_t len,
                                bool fin_acked) {
  if (len > 0) {
    acked_.add(offset, offset + len - 1);
    retx_.subtract(offset, offset + len - 1);
  }
  if (fin_acked) fin_acked_ = true;
}

void SendStream::on_range_lost(uint64_t offset, uint64_t len, bool fin_lost) {
  if (len > 0) {
    acked_.visit_gaps(offset, offset + len - 1,
                      [this](const Range& r) { retx_.add(r.lo, r.hi); });
  }
  if (fin_lost && !fin_acked_) fin_needs_send_ = true;
}

bool SendStream::all_acked() const {
  if (buffer_.empty()) return !fin_written_ || fin_acked_;
  return acked_.size() == 1 && acked_.min() == 0 &&
         acked_.max() == buffer_.size() - 1 &&
         (!fin_written_ || fin_acked_);
}

uint64_t SendStream::pending_bytes() const {
  return retx_.total_length() + (buffer_.size() - next_offset_);
}

RecvStream::~RecvStream() {
  // Park whatever reassembly storage the stream still holds (sessions can
  // end with gaps outstanding) so the next stream on this loop reuses it.
  for (auto it = segments_.begin(); it != segments_.end();) {
    it = retire_segment(it);
  }
}

void RecvStream::store_segment(uint64_t key, std::span<const uint8_t> bytes) {
  auto it = segments_.find(key);
  if (it != segments_.end()) {
    it->second.assign(bytes.begin(), bytes.end());
    return;
  }
  if (cache_ != nullptr && !cache_->graveyard.empty()) {
    auto node = cache_->graveyard.extract(cache_->graveyard.begin());
    node.key() = key;
    node.mapped().assign(bytes.begin(), bytes.end());
    segments_.insert(std::move(node));
    return;
  }
  segments_[key].assign(bytes.begin(), bytes.end());
}

RecvStream::SegmentMap::iterator RecvStream::retire_segment(
    SegmentMap::iterator it) {
  if (cache_ != nullptr &&
      cache_->graveyard.size() < RecvSegmentCache::kMaxNodes) {
    auto next = std::next(it);
    auto node = segments_.extract(it);
    node.key() = cache_->next_key++;
    cache_->graveyard.insert(std::move(node));
    return next;
  }
  return segments_.erase(it);
}

void RecvStream::on_frame(uint64_t offset, std::span<const uint8_t> data,
                          bool fin) {
  if (fin) fin_offset_ = offset + data.size();
  highest_seen_ = std::max(highest_seen_, offset + data.size());

  if (!data.empty() && offset + data.size() > contiguous_) {
    // Trim the already-delivered prefix.
    size_t skip = 0;
    if (offset < contiguous_) skip = contiguous_ - offset;
    if (offset <= contiguous_ && segments_.empty()) {
      // Zero-copy fast path: in-order data with nothing buffered delivers
      // the borrowed span straight through — the common case by far.  The
      // bytes, callback count and fin flag match the buffered path exactly.
      std::span<const uint8_t> fresh = data.subspan(skip);
      contiguous_ = offset + data.size();
      const bool at_fin = fin_offset_ && contiguous_ >= *fin_offset_;
      if (on_data_) on_data_(fresh, at_fin);
      return;
    }
    // Out-of-order (or behind buffered data): copy into the reassembly
    // map.  This is the single copy point on the receive path.
    store_segment(offset + skip, data.subspan(skip));
  }

  // Advance the contiguous prefix and deliver.
  auto it = segments_.begin();
  while (it != segments_.end() && it->first <= contiguous_) {
    const uint64_t seg_end = it->first + it->second.size();
    if (seg_end > contiguous_) {
      const size_t skip = contiguous_ - it->first;
      std::span<const uint8_t> fresh(it->second.data() + skip,
                                     it->second.size() - skip);
      contiguous_ = seg_end;
      const bool at_fin = fin_offset_ && contiguous_ >= *fin_offset_;
      if (on_data_) on_data_(fresh, at_fin);
    }
    it = retire_segment(it);
  }
  if (fin_offset_ && contiguous_ >= *fin_offset_ && data.empty() &&
      offset >= contiguous_) {
    // Bare FIN at the current edge.
    if (on_data_) on_data_({}, true);
  }
}

}  // namespace wira::quic
