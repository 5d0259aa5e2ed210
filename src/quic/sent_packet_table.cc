#include "quic/sent_packet_table.h"

#include <algorithm>
#include <utility>

namespace wira::quic {
namespace {

/// Smallest ring a table grows to (either ring).
constexpr size_t kMinCapacity = 64;

}  // namespace

SentPacketTable::SentPacketTable(Cache& cache) : cache_(cache) {
  if (!cache_.spares.empty()) {
    Storage& spare = cache_.spares.back();
    slots_ = std::move(spare.slots);
    refs_ = std::move(spare.refs);
    cache_.spares.pop_back();
  }
  slot_mask_ = slots_.empty() ? 0 : slots_.size() - 1;
  refs_mask_ = refs_.empty() ? 0 : refs_.size() - 1;
}

void SentPacketTable::release() {
  if (!slots_.empty() && cache_.spares.size() < Cache::kMaxSpares) {
    cache_.spares.push_back(Storage{std::move(slots_), std::move(refs_)});
  }
  slots_ = {};
  refs_ = {};
  slot_mask_ = refs_mask_ = 0;
  least_ = end_;
  refs_least_ = refs_end_ = 0;
  tracked_ = 0;
}

PacketNumber SentPacketTable::next(PacketNumber pn) const {
  if (empty()) return kNoPacket;
  for (PacketNumber p = std::max(pn + 1, least_); p < end_; ++p) {
    if (slot(p).tracked) return p;
  }
  return kNoPacket;
}

SentPacketTable::Entry& SentPacketTable::add(PacketNumber pn) {
  if (empty()) {
    // Restart both rings at the new packet: nothing before it is live.
    least_ = end_ = pn;
    refs_least_ = refs_end_ = 0;
  }
  while (pn - least_ >= slots_.size()) grow_slots();
  for (; end_ < pn; ++end_) slot(end_).tracked = false;  // holes
  end_ = pn + 1;
  tracked_++;
  Entry& e = slot(pn);
  e.sent_time = 0;
  e.bytes = 0;
  e.rate = cc::PacketState{};
  e.crypto_data.clear();
  e.refs_begin = refs_end_;
  e.refs_count = 0;
  e.tracked = true;
  return e;
}

void SentPacketTable::add_stream_ref(const StreamRef& ref) {
  if (refs_end_ - refs_least_ >= refs_.size()) grow_refs();
  refs_[refs_end_ & refs_mask_] = ref;
  refs_end_++;
  slot(end_ - 1).refs_count++;
}

void SentPacketTable::erase(PacketNumber pn) {
  slot(pn).tracked = false;
  tracked_--;
  if (pn != least_) return;
  while (least_ < end_ && !slot(least_).tracked) least_++;
  refs_least_ = empty() ? refs_end_ : slot(least_).refs_begin;
}

void SentPacketTable::grow_slots() {
  const size_t old_size = slots_.size();
  std::vector<Entry> bigger(std::max(kMinCapacity, 2 * old_size));
  const uint64_t mask = bigger.size() - 1;
  // old_size consecutive packet numbers from least_ name every old slot
  // once, so each one (live or not) moves, keeping its crypto_data
  // capacity, and the live span lands where the new mask expects it.
  for (PacketNumber p = least_; p < least_ + old_size; ++p) {
    bigger[p & mask] = std::move(slots_[p & slot_mask_]);
  }
  slots_ = std::move(bigger);
  slot_mask_ = mask;
}

void SentPacketTable::grow_refs() {
  const size_t old_size = refs_.size();
  std::vector<StreamRef> bigger(std::max(kMinCapacity, 2 * old_size));
  const uint64_t mask = bigger.size() - 1;
  for (uint64_t i = refs_least_; i < refs_end_; ++i) {
    bigger[i & mask] = refs_[i & refs_mask_];
  }
  refs_ = std::move(bigger);
  refs_mask_ = mask;
}

}  // namespace wira::quic
