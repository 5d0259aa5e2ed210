// Single-threaded discrete-event loop.
//
// All network, transport and application behaviour in this repository is
// driven by one of these: events execute in (time, insertion-order) order on
// a simulated nanosecond clock, so whole experiments are deterministic given
// their seeds.  Many loops may run concurrently (one per simulated session)
// — a loop and everything scheduled on it stay on one thread.
//
// Hot-path design (this is the inner loop of every experiment):
//   - callbacks are SmallFn's: captures up to 64 bytes live inline in a
//     pooled slot instead of behind a std::function heap allocation, and
//     move-only captures (recycled buffers) are allowed;
//   - an indexed binary heap orders 24-byte POD entries {when, seq, slot};
//     the callable never moves during sifting — it stays put in its slot,
//     and the slot records its entry's heap position;
//   - cancel() removes the entry eagerly in O(log n) through that index,
//     so the heap holds exactly the pending events: no stale entries to
//     skip on pop, and pending() is the heap size;
//   - reschedule() moves a pending event to a new time in place (one
//     sift, callable untouched), so connection timers that re-arm on
//     every send/ACK (PTO, loss) cost no slot churn;
//   - bookkeeping that only needs to know *whether* an instant has passed
//     takes no event at all: reserve_seq() hands out the insertion
//     sequence number an event would have taken, and has_passed() answers
//     exactly as that event's having run would (sim::Link drains its
//     queue ledger this way: a datagram costs one event, its delivery);
//   - the loop owns a size-classed BufferPool so links, connections and
//     the origin muxer recycle datagram and chunk buffers instead of
//     allocating per packet;
//   - the loop owns a bump Arena for tick-scoped scratch (parsed packets,
//     frame vectors, ACK ranges): it rewinds in O(1) whenever the clock
//     advances, so the per-datagram structures never touch the heap.
#pragma once

#include <cstdint>
#include <memory>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "util/arena.h"
#include "util/buffer_pool.h"
#include "util/small_fn.h"
#include "util/units.h"

namespace wira::sim {

/// Handle for cancelling or rescheduling a scheduled event: packs a slot
/// index and the slot's generation at scheduling time, so a handle
/// outliving its event (slot since reused) touches nothing.
using EventId = uint64_t;

class EventLoop {
 public:
  using EventFn = util::SmallFn<64>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `when` (clamped to now()).
  EventId schedule_at(TimeNs when, EventFn fn);

  /// Schedules `fn` after `delay` nanoseconds.
  EventId schedule_in(TimeNs delay, EventFn fn) {
    return schedule_at(now_ + (delay > 0 ? delay : 0), std::move(fn));
  }

  /// Cancels a pending event; no-op if it already ran or was cancelled.
  void cancel(EventId id);

  /// Moves a pending event to absolute time `when` (clamped to now()),
  /// keeping its callable and handle.  The event takes a fresh insertion
  /// sequence number, so it orders exactly as cancel() followed by
  /// schedule_at() would — FIFO after everything already scheduled for
  /// the same instant.  Returns false (and does nothing) if the handle is
  /// stale: the event already ran, was cancelled, or reset() intervened.
  bool reschedule(EventId id, TimeNs when);

  /// Returns the loop to its freshly constructed state while KEEPING every
  /// capacity it has grown: callable slots, the heap's backing vector, the
  /// buffer pool's recycled buffers and the arena's blocks all survive, so
  /// a reset loop re-runs a comparable workload without re-paying its
  /// allocations.  Pending callables are destroyed immediately (their
  /// captures release now, exactly as cancel() would: a captured
  /// util::PooledBuffer goes back to buffers()) and every outstanding
  /// EventId goes stale.  This is what makes the loop reusable
  /// across sessions (exp::SessionWorkspace): reset + rerun is
  /// behaviourally identical to constructing a new loop.
  void reset();

  /// Runs events until the queue is empty or the clock would pass
  /// `deadline`; returns the number of events executed.
  size_t run_until(TimeNs deadline);

  /// Runs until the queue is empty (or `max_events` executed, as a runaway
  /// guard); returns the number of events executed.  The clock stops at
  /// the last executed event: a reserved instant (reserve_seq) later than
  /// that has not passed.
  size_t run(size_t max_events = SIZE_MAX);

  /// Takes the next insertion sequence number without scheduling anything,
  /// so every other event orders exactly as if an event had been scheduled
  /// here.  Pair it with has_passed() to track a deadline lazily.
  uint64_t reserve_seq() { return next_seq_++; }

  /// True once an event scheduled at `when` with sequence number `seq`
  /// (taken by reserve_seq() at or after now()) would have run: `when` is
  /// in the past, or it is now() and `seq` precedes the running event.
  /// Outside any event, after run_until() or a run() that emptied the
  /// queue, every reservation made so far at or before now() has passed.
  bool has_passed(TimeNs when, uint64_t seq) const {
    return when < now_ || (when == now_ && seq < passed_seq_);
  }

  bool empty() const { return heap_.empty(); }
  /// Number of scheduled events that are neither run nor cancelled.
  size_t pending() const { return heap_.size(); }

  /// Absolute time of the earliest live event, or kNoEvent when the queue
  /// is empty.  This is what lets a real-time driver (net::EpollRuntime)
  /// use the loop as its timer wheel: run_until(clock-now) fires everything
  /// due, next_event_time() says how long the driver may sleep.
  static constexpr TimeNs kNoEvent = INT64_MAX;
  TimeNs next_event_time() const {
    return heap_.empty() ? kNoEvent : heap_.front().when;
  }

  /// Scratch byte-buffer pool shared by everything driven by this loop.
  util::BufferPool& buffers() { return buffers_; }

  /// Type-keyed scratch objects that persist across reset(): freelists,
  /// node graveyards, pooled containers — anything whose *capacity* should
  /// survive session recycling (exp::SessionWorkspace).  Among them are
  /// quic::RecvSegmentCache (reassembly segments) and the spare rings of
  /// quic::SentPacketTable::Cache: each connection's sent-packet table
  /// takes a ring (slots and stream refs) at construction and parks it
  /// at close or destruction, so concurrent connections on one loop (a
  /// session's two, or wira_proxyd's dozens) each reuse a retired ring.
  /// The first scratch<T>() default-constructs the loop's T; later calls
  /// return the same instance.  Contract: a scratch object must hold
  /// capacity-only state — recycled values have to be fully overwritten
  /// before reuse, and reset() never touches it, so it must not own
  /// anything a pending event still refers to.  A reset loop then stays
  /// indistinguishable from a fresh one.
  template <typename T>
  T& scratch() {
    const std::type_index key(typeid(T));
    auto it = scratch_.find(key);
    if (it == scratch_.end()) {
      ScratchPtr p(new T(), [](void* v) { delete static_cast<T*>(v); });
      it = scratch_.emplace(key, std::move(p)).first;
    }
    return *static_cast<T*>(it->second.get());
  }

  /// Tick-scoped bump arena: reset whenever the clock advances, so
  /// anything allocated from it must die before the next tick boundary.
  util::Arena& arena() { return arena_; }

 private:
  struct HeapEntry {
    TimeNs when;
    uint64_t seq;  ///< FIFO tiebreak among simultaneous events
    uint32_t slot;
  };
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  struct Slot {
    EventFn fn;
    uint32_t gen = 0;
    uint32_t heap_pos = 0;  ///< index into heap_; meaningful while pending
  };
  using ScratchPtr = std::unique_ptr<void, void (*)(void*)>;

  static constexpr uint32_t slot_of(EventId id) {
    return static_cast<uint32_t>(id);
  }
  static constexpr uint32_t gen_of(EventId id) {
    return static_cast<uint32_t>(id >> 32);
  }

  /// The slot a handle names while its event is pending, or nullptr if
  /// the handle is stale.  A slot's generation is bumped whenever its
  /// event leaves the heap (run, cancel, reset), so a generation match
  /// alone proves the event is still queued.
  Slot* live_slot(EventId id) {
    const uint32_t slot = slot_of(id);
    if (slot >= slots_.size()) return nullptr;
    Slot& s = slots_[slot];
    return s.gen == gen_of(id) ? &s : nullptr;
  }
  /// Places `e` at heap index `pos` and records the position in its slot.
  void place(size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = static_cast<uint32_t>(pos);
  }
  void sift_up(size_t pos);
  void sift_down(size_t pos);
  /// Unlinks the entry at `pos` from the heap (O(log n)).
  void remove_at(size_t pos);
  /// Stales every handle to `slot` and returns it to the free list.
  void release_slot(uint32_t slot);
  bool pop_one();  // executes the next event, if any

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  /// Sequence numbers below this, at now_, have run (see has_passed).
  uint64_t passed_seq_ = 0;
  /// Bounded per size class by bytes, not by a count: the origin join
  /// burst schedules a whole GOP of chunk buffers at one instant, and
  /// they must not push the packet buffers out.  Declared before the
  /// slots, so the PooledBuffers that pending callables capture return
  /// into a live pool when ~EventLoop destroys those callables.
  util::BufferPool buffers_;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  util::Arena arena_;
  std::unordered_map<std::type_index, ScratchPtr> scratch_;
};

}  // namespace wira::sim
