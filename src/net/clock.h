// Clock abstraction for running session objects against real time
// (DESIGN.md §6).
//
// Everything in src/quic, src/app and src/cc reads time as TimeNs — in
// simulation that is the EventLoop's virtual nanosecond clock.  The real
// runtime (net::EpollRuntime) keeps the *same* loop synchronized to
// CLOCK_MONOTONIC, so session objects run unmodified in both worlds:
//
//   world      timebase                who advances it                read through
//   ---------  ----------------------  -----------------------------  --------------
//   simulated  virtual ns from 0       EventLoop::run/run_until       loop.now()
//   real       raw CLOCK_MONOTONIC ns  EpollRuntime (run_until(now))  MonotonicClock
//
// Clock is the read-side of that contract.  A session without a Clock
// reads loop.now() (exact in simulation, poll-batch granular in real
// time); MonotonicClock reads the kernel clock directly, for
// timestamping events *between* loop advances — e.g. a datagram's true
// receive time.
// MonotonicClock is deliberately offset-free: every process on a host
// shares the CLOCK_MONOTONIC epoch, which is what makes cross-process
// sqlog pairs (wira_proxyd + wira_loadgen) joinable by obs/trace_join
// without clock reconciliation.
#pragma once

#include <ctime>

#include "util/units.h"

namespace wira::net {

/// Read-only time source.  Implementations must be monotone
/// non-decreasing and share a timebase with the EventLoop that drives
/// the session (see file header).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimeNs now() const = 0;
};

/// Raw CLOCK_MONOTONIC nanoseconds.
class MonotonicClock final : public Clock {
 public:
  static TimeNs raw_now() {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<TimeNs>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
  TimeNs now() const override { return raw_now(); }
};

}  // namespace wira::net
