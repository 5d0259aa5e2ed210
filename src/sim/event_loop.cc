#include "sim/event_loop.h"

namespace wira::sim {

EventId EventLoop::schedule_at(TimeNs when, EventFn fn) {
  if (when < now_) when = now_;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(HeapEntry{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return (static_cast<uint64_t>(s.gen) << 32) | slot;
}

void EventLoop::cancel(EventId id) {
  Slot* s = live_slot(id);
  if (s == nullptr) return;  // already ran, cancelled, or stale
  remove_at(s->heap_pos);
  // Take the callable out before recycling the slot, so a capture whose
  // destructor re-enters the loop finds a consistent slot table; its
  // captured state is released when `dead` goes out of scope.
  EventFn dead = std::move(s->fn);
  release_slot(slot_of(id));
}

bool EventLoop::reschedule(EventId id, TimeNs when) {
  Slot* s = live_slot(id);
  if (s == nullptr) return false;
  if (when < now_) when = now_;
  const size_t pos = s->heap_pos;
  const TimeNs old = heap_[pos].when;
  heap_[pos].when = when;
  heap_[pos].seq = next_seq_++;  // orders as a fresh schedule_at would
  // The fresh seq is the largest ever issued, so the key only decreases
  // when the time does.
  if (when < old) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
  return true;
}

void EventLoop::reset() {
  heap_.clear();
  // Destroy pending callables now (captured PooledBuffers go back to the
  // pool) and stale every outstanding handle via the
  // generation bump — cancel() or reschedule() against a pre-reset
  // EventId is a no-op.
  for (Slot& s : slots_) {
    s.fn = EventFn();
    ++s.gen;
  }
  // Rebuild the free list in descending order so slots are handed out
  // 0, 1, 2, ... again — the same assignment order as a fresh loop.
  free_slots_.clear();
  free_slots_.reserve(slots_.size());
  for (uint32_t i = static_cast<uint32_t>(slots_.size()); i-- > 0;) {
    free_slots_.push_back(i);
  }
  next_seq_ = 0;
  passed_seq_ = 0;
  now_ = 0;
  arena_.reset();
}

void EventLoop::sift_up(size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!earlier(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void EventLoop::sift_down(size_t pos) {
  const HeapEntry e = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void EventLoop::remove_at(size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the last entry itself
  // Refill the hole with the former last entry and restore heap order in
  // whichever direction it is out of place.
  const bool up = earlier(last, heap_[pos]);
  heap_[pos] = last;
  if (up) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventLoop::release_slot(uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  free_slots_.push_back(slot);
}

bool EventLoop::pop_one() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  remove_at(0);
  // Move the callable out before running: the handler may schedule into
  // (and thus overwrite) the freshly recycled slot.
  EventFn fn = std::move(slots_[top.slot].fn);
  release_slot(top.slot);
  // Tick boundary: everything bump-allocated during the previous tick is
  // dead by contract, so the arena rewinds before the clock moves.
  if (top.when > now_) arena_.reset();
  now_ = top.when;
  passed_seq_ = top.seq + 1;
  fn();
  return true;
}

size_t EventLoop::run_until(TimeNs deadline) {
  size_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    pop_one();
    ++executed;
  }
  // Everything due at or before the deadline has run, reserved instants
  // included.
  if (now_ <= deadline) {
    now_ = deadline;
    passed_seq_ = next_seq_;
  }
  return executed;
}

size_t EventLoop::run(size_t max_events) {
  size_t executed = 0;
  while (executed < max_events && pop_one()) ++executed;
  if (heap_.empty()) passed_seq_ = next_seq_;
  return executed;
}

}  // namespace wira::sim
