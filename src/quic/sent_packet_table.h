// Sent-packet table: the retransmittable packets a connection has in
// flight, keyed by packet number.
//
// Packet numbers are dense and increasing, so the table is a ring indexed
// by packet number (slot = pn & mask), as Chromium's QuicUnackedPacketMap
// is a deque indexed by pn - least_unacked.  The live span runs from the
// least tracked packet to the last one added; packets inside it that are
// not tracked (pure ACKs, or packets already acked or lost) are holes.
// Walks with first()/next() visit tracked packets in ascending order.
//
// Each packet's stream refs sit in one flat FIFO ring beside the slots:
// packets are added in packet-number order, so the refs of every live
// packet lie at or after the least tracked packet's.  Both rings are
// recycled through a Cache (one per event loop, EventLoop::scratch), so a
// table on a warm loop allocates only when it outgrows the storage it
// took, and never per packet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cc/bandwidth_sampler.h"
#include "quic/types.h"

namespace wira::quic {

/// "No packet": what first()/next() return past the last tracked packet.
/// Larger than every packet number, so `pn <= limit` walks stop on it.
inline constexpr PacketNumber kNoPacket = UINT64_MAX;

class SentPacketTable {
 public:
  struct StreamRef {
    StreamId stream_id;
    uint64_t offset;
    uint64_t length;
    bool fin;
  };
  struct Entry {
    TimeNs sent_time = 0;
    uint64_t bytes = 0;
    cc::PacketState rate;  ///< delivery-rate snapshot, read back on ack
    std::vector<uint8_t> crypto_data;  ///< handshake message to re-send

   private:
    friend class SentPacketTable;
    uint64_t refs_begin = 0;  ///< absolute index into the refs ring
    uint32_t refs_count = 0;
    bool tracked = false;
  };
  /// Ring capacity a table keeps between owners.  Only slots inside the
  /// live span are ever read, so a recycled ring needs no clearing.
  struct Storage {
    std::vector<Entry> slots;     ///< power-of-two size (or empty)
    std::vector<StreamRef> refs;  ///< power-of-two size (or empty)
  };
  /// Retired storage, shared by every table on one event loop and kept
  /// across loop resets.
  struct Cache {
    /// Bounds parked memory: one per concurrent connection (wira_proxyd
    /// serves ~75 at a time); a table retired above the cap frees its
    /// storage.
    static constexpr size_t kMaxSpares = 256;
    std::vector<Storage> spares;
  };

  /// Takes the most recently parked storage from `cache`, if any.
  explicit SentPacketTable(Cache& cache);
  ~SentPacketTable() { release(); }
  SentPacketTable(const SentPacketTable&) = delete;
  SentPacketTable& operator=(const SentPacketTable&) = delete;

  bool empty() const { return tracked_ == 0; }

  /// Least tracked packet number, or kNoPacket when empty.
  PacketNumber first() const { return empty() ? kNoPacket : least_; }
  /// Least tracked packet number above `pn`, or kNoPacket.
  PacketNumber next(PacketNumber pn) const;
  /// The entry of tracked packet `pn`.  The reference stays valid until
  /// the next add(), which may grow the ring.
  Entry& at(PacketNumber pn) { return slot(pn); }
  const Entry& at(PacketNumber pn) const { return slot(pn); }

  /// Tracks `pn`, which must exceed every packet number added before.
  /// Returns its entry with every field reset; the packets skipped since
  /// the last add become holes.
  Entry& add(PacketNumber pn);
  /// Appends a stream ref to the packet added last.
  void add_stream_ref(const StreamRef& ref);
  /// Calls `fn(const StreamRef&)` for each of `e`'s stream refs, in the
  /// order they were added.
  template <typename Fn>
  void for_each_stream_ref(const Entry& e, Fn&& fn) const {
    const uint64_t end = e.refs_begin + e.refs_count;
    for (uint64_t i = e.refs_begin; i < end; ++i) fn(refs_[i & refs_mask_]);
  }
  /// Stops tracking `pn` (which must be tracked).  The entry keeps its
  /// crypto_data capacity for a later packet that lands in its slot.
  void erase(PacketNumber pn);
  /// Forgets every packet and parks the storage in the cache (freed when
  /// the cache is full); a later add() grows a ring afresh.  A connection
  /// releases at close, since it never reads its sent packets again, so
  /// a closed session waiting to be evicted holds no ring.
  void release();

 private:
  Entry& slot(PacketNumber pn) { return slots_[pn & slot_mask_]; }
  const Entry& slot(PacketNumber pn) const {
    return slots_[pn & slot_mask_];
  }
  void grow_slots();
  void grow_refs();

  Cache& cache_;
  std::vector<Entry> slots_;
  std::vector<StreamRef> refs_;
  uint64_t slot_mask_ = 0;  ///< slots_.size() - 1
  uint64_t refs_mask_ = 0;  ///< refs_.size() - 1
  PacketNumber least_ = 0;  ///< least tracked pn (== end_ when empty)
  PacketNumber end_ = 0;    ///< one past the last added pn
  uint64_t refs_least_ = 0;  ///< first live ref (absolute index)
  uint64_t refs_end_ = 0;    ///< one past the last ref (absolute index)
  size_t tracked_ = 0;
};

}  // namespace wira::quic
