// Connection event tracing (qlog-flavoured): the QUIC connection, the Wira
// server and the player client record transport and application events on
// the simulated clock.  Tracing is opt-in per connection and free when
// disabled.
//
// A traced object holds one EventSink and hands it each event the moment
// it is recorded (obs::QlogStreamWriter writes standard qlog, tests and
// examples attach an EventLog); nothing is buffered.  An untraced object
// holds no sink and builds no event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.h"

namespace wira::trace {

enum class EventType : uint16_t {
  kPacketSent,
  kPacketReceived,
  kPacketAcked,
  kPacketLost,
  kPtoFired,
  kRttSample,        ///< a = latest rtt (us), b = smoothed (us)
  kCwndSample,       ///< a = cwnd bytes, b = bytes in flight
  kPacingSample,     ///< a = pacing rate (bytes/s)
  kHandshakeEvent,   ///< detail = "chlo"/"rej"/"shlo"/"established"
  kInitApplied,      ///< a = init_cwnd, b = init_pacing
  kCookieEvent,      ///< detail = "sealed"/"opened"/"rejected"
  kFrameComplete,    ///< a = frame index, b = bytes
  kRequestReceived,  ///< server saw the PLAY request
  kOriginByte,       ///< first stream byte left the proxy; a = chunk bytes
  kFfParsed,         ///< a = FF_Size, b = bytes fed until parse completed
  kCornerCase,       ///< detail = "cwnd_before_parse"/"stale_cookie"
  kCcStateChanged,   ///< detail = new controller state ("startup", ...)
  // Client-vantage events (PlayerClient's tracer; the paired .client.sqlog
  // view of the same session — obs/trace_join.h joins them by group_id).
  kRequestSent,      ///< client: PLAY request departed; a = request bytes
  kFirstVideoByte,   ///< client: contiguous stream reached the first video
                     ///< payload byte; a = total bytes received so far
  kStallObserved,    ///< client: receive gap while streaming; a = gap (us),
                     ///< b = total bytes so far, detail = "recv_gap"
  kDecodeError,      ///< datagram failed packet parsing; a = datagram bytes
};

/// Number of distinct EventType values (per-type arrays).
inline constexpr size_t kEventTypeCount =
    static_cast<size_t>(EventType::kDecodeError) + 1;

const char* event_type_name(EventType t);

/// One trace event, a small trivially copyable value.  `detail` is always
/// NUL-terminated: EventSink::record keeps at most 21 bytes, and every detail
/// the stack emits (at most 20 bytes, "congestion_avoidance") fits.
struct Event {
  TimeNs time = 0;
  uint64_t a = 0;  ///< primary value (packet number, bytes, ...)
  uint64_t b = 0;  ///< secondary value
  EventType type = EventType::kPacketSent;
  char detail[22] = {};
};

/// Receives each event the moment it is recorded.  Implementations own
/// their serialization format; a sink serves one session vantage (a
/// connection and the server or client that owns it) and is never called
/// concurrently.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& e) = 0;

  /// Builds the event (copying at most 21 bytes of the non-null `detail`)
  /// and hands it to on_event.
  void record(TimeNs time, EventType type, uint64_t a = 0, uint64_t b = 0,
              const char* detail = "");
};

/// A sink that keeps every event in order, for tests and examples that want
/// the whole list.  Production paths never attach one.
class EventLog : public EventSink {
 public:
  void on_event(const Event& e) override { events.push_back(e); }

  std::vector<Event> events;
};

}  // namespace wira::trace
