// Unit tests for the discrete-event loop: ordering, cancellation, clock.
#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <random>
#include <vector>

namespace wira::sim {
namespace {

TEST(EventLoop, ExecutesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  loop.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  loop.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, SimultaneousEventsRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(milliseconds(10), [&, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ClockAdvancesToEventTime) {
  EventLoop loop;
  TimeNs observed = -1;
  loop.schedule_at(milliseconds(42), [&] { observed = loop.now(); });
  loop.run();
  EXPECT_EQ(observed, milliseconds(42));
  EXPECT_EQ(loop.now(), milliseconds(42));
}

TEST(EventLoop, ScheduleInIsRelative) {
  EventLoop loop;
  TimeNs observed = -1;
  loop.schedule_at(milliseconds(10), [&] {
    loop.schedule_in(milliseconds(5), [&] { observed = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(observed, milliseconds(15));
}

TEST(EventLoop, PastTimesClampToNow) {
  EventLoop loop;
  TimeNs observed = -1;
  loop.schedule_at(milliseconds(10), [&] {
    loop.schedule_at(milliseconds(1), [&] { observed = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(observed, milliseconds(10));
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule_at(milliseconds(10), [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelOtherEventFromHandler) {
  EventLoop loop;
  bool second_ran = false;
  EventId second =
      loop.schedule_at(milliseconds(20), [&] { second_ran = true; });
  loop.schedule_at(milliseconds(10), [&] { loop.cancel(second); });
  loop.run();
  EXPECT_FALSE(second_ran);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(milliseconds(10), [&] { count++; });
  loop.schedule_at(milliseconds(30), [&] { count++; });
  const size_t executed = loop.run_until(milliseconds(20));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), milliseconds(20));  // clock advances to deadline
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, SelfReschedulingEventRespectsMaxEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    count++;
    loop.schedule_in(milliseconds(1), tick);
  };
  loop.schedule_in(0, tick);
  loop.run(/*max_events=*/50);
  EXPECT_EQ(count, 50);
}

TEST(EventLoop, RunUntilWithEmptyQueueAdvancesClock) {
  EventLoop loop;
  loop.run_until(seconds(5));
  EXPECT_EQ(loop.now(), seconds(5));
}

// ---- cancellation and stale handles ----

TEST(EventLoop, CancelIsIdempotentAndUpdatesPending) {
  EventLoop loop;
  const EventId id = loop.schedule_at(milliseconds(10), [] {});
  EXPECT_EQ(loop.pending(), 1u);
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(loop.empty());
  loop.cancel(id);  // double-cancel must not underflow or resurrect
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.run(), 0u);
}

TEST(EventLoop, StaleHandleAfterRunCancelsNothing) {
  EventLoop loop;
  int runs = 0;
  const EventId first = loop.schedule_at(milliseconds(1), [&] { runs++; });
  loop.run();
  EXPECT_EQ(runs, 1);
  // `first` already ran; its slot may be reused by the next event.  The
  // stale handle must not cancel the new occupant.
  loop.schedule_at(milliseconds(2), [&] { runs++; });
  loop.cancel(first);
  loop.run();
  EXPECT_EQ(runs, 2);
}

TEST(EventLoop, StaleHandleAfterCancelCancelsNothing) {
  EventLoop loop;
  bool victim_ran = false;
  const EventId id = loop.schedule_at(milliseconds(5), [] {});
  loop.cancel(id);
  loop.run();  // lazily discards the cancelled event, freeing its slot
  loop.schedule_at(milliseconds(6), [&] { victim_ran = true; });
  loop.cancel(id);  // stale: generation advanced when the slot retired
  loop.run();
  EXPECT_TRUE(victim_ran);
}

TEST(EventLoop, ManyCancelledEventsAreSkippedWithoutRunning) {
  EventLoop loop;
  int runs = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(loop.schedule_at(milliseconds(i), [&] { runs++; }));
  }
  for (size_t i = 0; i < ids.size(); i += 2) loop.cancel(ids[i]);
  EXPECT_EQ(loop.pending(), 500u);
  EXPECT_EQ(loop.run(), 500u);
  EXPECT_EQ(runs, 500);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, CancelledEventsDoNotBlockRunUntilDeadline) {
  EventLoop loop;
  bool late_ran = false;
  const EventId early = loop.schedule_at(milliseconds(1), [] {});
  loop.schedule_at(milliseconds(50), [&] { late_ran = true; });
  loop.cancel(early);
  EXPECT_EQ(loop.run_until(milliseconds(10)), 0u);
  EXPECT_EQ(loop.now(), milliseconds(10));
  EXPECT_FALSE(late_ran);
  loop.run();
  EXPECT_TRUE(late_ran);
}

TEST(EventLoop, SlotReuseKeepsFifoOrderForSimultaneousEvents) {
  EventLoop loop;
  // Churn slots so later events reuse freed slots with bumped generations.
  for (int i = 0; i < 16; ++i) {
    loop.cancel(loop.schedule_at(milliseconds(1), [] {}));
  }
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    loop.schedule_at(milliseconds(10), [&, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// ---- reschedule: in-place re-arm ----

TEST(EventLoop, RescheduleLaterRunsAtNewTime) {
  EventLoop loop;
  TimeNs observed = -1;
  const EventId id =
      loop.schedule_at(milliseconds(10), [&] { observed = loop.now(); });
  EXPECT_TRUE(loop.reschedule(id, milliseconds(25)));
  EXPECT_EQ(loop.next_event_time(), milliseconds(25));
  EXPECT_EQ(loop.run_until(milliseconds(20)), 0u);
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(observed, milliseconds(25));
}

TEST(EventLoop, RescheduleEarlierOvertakesOtherEvents) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  loop.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  const EventId id =
      loop.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  EXPECT_TRUE(loop.reschedule(id, milliseconds(5)));
  EXPECT_EQ(loop.next_event_time(), milliseconds(5));
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(EventLoop, ReschedulePastTimeClampsToNow) {
  EventLoop loop;
  TimeNs observed = -1;
  const EventId id =
      loop.schedule_at(milliseconds(50), [&] { observed = loop.now(); });
  loop.run_until(milliseconds(20));
  EXPECT_TRUE(loop.reschedule(id, milliseconds(3)));
  EXPECT_EQ(loop.next_event_time(), milliseconds(20));
  loop.run();
  EXPECT_EQ(observed, milliseconds(20));
}

TEST(EventLoop, RescheduledTieRunsAfterEarlierScheduledPeers) {
  // The re-armed event takes a fresh sequence number, so among events at
  // the same instant it runs last, exactly as cancel + schedule_at would.
  EventLoop loop;
  std::vector<int> order;
  const EventId first =
      loop.schedule_at(milliseconds(10), [&] { order.push_back(0); });
  loop.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  loop.schedule_at(milliseconds(10), [&] { order.push_back(2); });
  EXPECT_TRUE(loop.reschedule(first, milliseconds(10)));
  loop.schedule_at(milliseconds(10), [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3}));
}

TEST(EventLoop, RescheduleStaleHandleIsRejectedAndHarmless) {
  EventLoop loop;
  int runs = 0;
  // Already ran: the slot is reused by `occupant`, which must not move.
  const EventId ran = loop.schedule_at(milliseconds(1), [&] { runs++; });
  loop.run();
  const EventId occupant =
      loop.schedule_at(milliseconds(5), [&] { runs += 10; });
  EXPECT_FALSE(loop.reschedule(ran, milliseconds(2)));
  EXPECT_EQ(loop.next_event_time(), milliseconds(5));
  // Cancelled: nothing is resurrected.
  const EventId cancelled =
      loop.schedule_at(milliseconds(6), [&] { runs += 100; });
  loop.cancel(cancelled);
  EXPECT_FALSE(loop.reschedule(cancelled, milliseconds(7)));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(runs, 11);
  // Staled by reset(): the pre-reset handle names a recycled slot.
  const EventId before_reset =
      loop.schedule_at(milliseconds(20), [&] { runs += 1000; });
  loop.reset();
  loop.schedule_at(milliseconds(3), [&] { runs += 10000; });
  EXPECT_FALSE(loop.reschedule(before_reset, milliseconds(9)));
  EXPECT_FALSE(loop.reschedule(occupant, milliseconds(9)));
  EXPECT_EQ(loop.next_event_time(), milliseconds(3));
  loop.run();
  EXPECT_EQ(runs, 10011);
  EXPECT_EQ(loop.now(), milliseconds(3));
}

TEST(EventLoop, RescheduleFromInsideHandler) {
  EventLoop loop;
  std::vector<std::pair<int, TimeNs>> log;
  const EventId timer = loop.schedule_at(milliseconds(10), [&] {
    log.emplace_back(1, loop.now());
  });
  loop.schedule_at(milliseconds(5), [&] {
    log.emplace_back(0, loop.now());
    EXPECT_TRUE(loop.reschedule(timer, loop.now() + milliseconds(20)));
  });
  loop.schedule_at(milliseconds(12), [&] { log.emplace_back(2, loop.now()); });
  loop.run();
  EXPECT_EQ(log, (std::vector<std::pair<int, TimeNs>>{
                     {0, milliseconds(5)},
                     {2, milliseconds(12)},
                     {1, milliseconds(25)}}));
}

TEST(EventLoop, PendingStaysExactThroughCancelAndReschedule) {
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(loop.schedule_at(milliseconds(10 + i), [] {}));
  }
  EXPECT_EQ(loop.pending(), 10u);
  for (int i = 0; i < 10; i += 3) loop.cancel(ids[i]);  // 0, 3, 6, 9
  EXPECT_EQ(loop.pending(), 6u);
  EXPECT_TRUE(loop.reschedule(ids[1], milliseconds(100)));
  EXPECT_FALSE(loop.reschedule(ids[3], milliseconds(100)));
  EXPECT_EQ(loop.pending(), 6u);
  EXPECT_EQ(loop.run_until(milliseconds(50)), 5u);
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.empty());
  EXPECT_EQ(loop.next_event_time(), milliseconds(100));
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.next_event_time(), EventLoop::kNoEvent);
}

// Differential check of the reschedule contract: one loop re-arms timers
// in place, the other cancels and schedules anew.  Under a seeded stream
// of schedule / cancel / re-arm / run operations — including re-arms from
// inside handlers and plenty of same-instant ties — both must execute the
// same callbacks at the same times and agree on pending() throughout.
TEST(EventLoop, RescheduleMatchesCancelThenSchedule) {
  struct Side {
    explicit Side(bool in_place) : in_place(in_place) {}
    bool in_place;
    EventLoop loop;
    std::vector<EventId> ids;  // handle per label
    std::vector<std::pair<size_t, TimeNs>> log;

    void fire(size_t label) {
      log.emplace_back(label, loop.now());
      // Every fifth handler re-arms another label from inside the loop.
      if (label % 5 == 0) rearm((label * 7 + 3) % ids.size(),
                                loop.now() + milliseconds(label % 4));
    }
    EventId add(size_t label, TimeNs when) {
      return loop.schedule_at(when, [this, label] { fire(label); });
    }
    void schedule(TimeNs when) { ids.push_back(add(ids.size(), when)); }
    void rearm(size_t label, TimeNs when) {
      if (in_place) {
        if (loop.reschedule(ids[label], when)) return;
      } else {
        loop.cancel(ids[label]);
      }
      ids[label] = add(label, when);
    }
  };
  Side a(/*in_place=*/true);
  Side b(/*in_place=*/false);
  std::mt19937_64 rng(20240715);
  auto pick = [&](uint64_t n) { return static_cast<size_t>(rng() % n); };
  for (int op = 0; op < 10000; ++op) {
    const TimeNs when = a.loop.now() + milliseconds(pick(8));
    switch (a.ids.empty() ? 0 : pick(5)) {
      case 0:
        a.schedule(when);
        b.schedule(when);
        break;
      case 1: {
        const size_t label = pick(a.ids.size());
        a.loop.cancel(a.ids[label]);
        b.loop.cancel(b.ids[label]);
        break;
      }
      case 2:
      case 3: {
        const size_t label = pick(a.ids.size());
        a.rearm(label, when);
        b.rearm(label, when);
        break;
      }
      default: {
        const TimeNs until = a.loop.now() + milliseconds(pick(3));
        EXPECT_EQ(a.loop.run_until(until), b.loop.run_until(until));
        break;
      }
    }
    ASSERT_EQ(a.loop.pending(), b.loop.pending()) << "op " << op;
    ASSERT_EQ(a.loop.next_event_time(), b.loop.next_event_time())
        << "op " << op;
  }
  a.loop.run();
  b.loop.run();
  EXPECT_GT(a.log.size(), 1000u);
  EXPECT_EQ(a.log, b.log);
}

// A reserved sequence number passes exactly where an event scheduled in
// its place would have run: behind the same-instant events scheduled
// before it, ahead of those scheduled after it, and — outside any event —
// once run_until has reached its instant.
TEST(EventLoop, ReservedSeqPassesWhereAnEventWouldRun) {
  EventLoop loop;
  std::vector<bool> seen;
  loop.schedule_at(milliseconds(1), [&] {
    seen.push_back(loop.has_passed(milliseconds(1), 1));
  });
  const uint64_t seq = loop.reserve_seq();
  ASSERT_EQ(seq, 1u);
  const TimeNs when = milliseconds(1);
  loop.schedule_at(when, [&] { seen.push_back(loop.has_passed(when, seq)); });
  EXPECT_FALSE(loop.has_passed(when, seq));
  loop.run_until(when - 1);
  EXPECT_FALSE(loop.has_passed(when, seq));
  loop.run_until(when);
  EXPECT_EQ(seen, (std::vector<bool>{false, true}));
  EXPECT_TRUE(loop.has_passed(when, seq));
  // A reservation made now, at now(), has not passed until the loop runs
  // that instant again.
  const uint64_t later = loop.reserve_seq();
  EXPECT_FALSE(loop.has_passed(when, later));
  loop.run_until(when);
  EXPECT_TRUE(loop.has_passed(when, later));
  EXPECT_FALSE(loop.has_passed(when + 1, 0));
  loop.reset();
  EXPECT_FALSE(loop.has_passed(0, 0));
}

TEST(EventLoop, MoveOnlyCallablesAreSupported) {
  EventLoop loop;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  loop.schedule_at(milliseconds(1),
                   [p = std::move(payload), &seen] { seen = *p + 1; });
  loop.run();
  EXPECT_EQ(seen, 42);
}

TEST(EventLoop, OversizedCapturesFallBackToHeap) {
  EventLoop loop;
  std::array<uint64_t, 32> big{};  // 256 bytes: larger than SmallFn's SBO
  big[31] = 7;
  uint64_t seen = 0;
  loop.schedule_at(milliseconds(1), [big, &seen] { seen = big[31]; });
  loop.run();
  EXPECT_EQ(seen, 7u);
}

// Scratch objects are the cross-session recycling mechanism (DESIGN.md
// §6): one instance per loop per type, surviving reset() so pools and
// caches keep their capacity across recycled sessions.
TEST(EventLoop, ScratchPersistsAcrossReset) {
  struct Pool {
    std::vector<int> items;
  };
  EventLoop loop;
  Pool& pool = loop.scratch<Pool>();
  pool.items.assign(100, 7);
  loop.reset();
  Pool& again = loop.scratch<Pool>();
  EXPECT_EQ(&again, &pool);          // same object, not a replacement
  EXPECT_EQ(again.items.size(), 100u);  // state untouched by reset
}

TEST(EventLoop, ScratchIsPerTypeSingleton) {
  struct A {
    int v = 0;
  };
  struct B {
    int v = 0;
  };
  EventLoop loop;
  loop.scratch<A>().v = 1;
  loop.scratch<B>().v = 2;
  EXPECT_EQ(loop.scratch<A>().v, 1);
  EXPECT_EQ(loop.scratch<B>().v, 2);
}

}  // namespace
}  // namespace wira::sim
