#include "trace/tracer.h"

#include <cstring>

namespace wira::trace {

const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::kPacketSent: return "packet_sent";
    case EventType::kPacketReceived: return "packet_received";
    case EventType::kPacketAcked: return "packet_acked";
    case EventType::kPacketLost: return "packet_lost";
    case EventType::kPtoFired: return "pto_fired";
    case EventType::kRttSample: return "rtt_sample";
    case EventType::kCwndSample: return "cwnd_sample";
    case EventType::kPacingSample: return "pacing_sample";
    case EventType::kHandshakeEvent: return "handshake";
    case EventType::kInitApplied: return "init_applied";
    case EventType::kCookieEvent: return "cookie";
    case EventType::kFrameComplete: return "frame_complete";
    case EventType::kRequestReceived: return "request_received";
    case EventType::kOriginByte: return "origin_byte";
    case EventType::kFfParsed: return "ff_parsed";
    case EventType::kCornerCase: return "corner_case";
    case EventType::kCcStateChanged: return "cc_state_changed";
    case EventType::kRequestSent: return "request_sent";
    case EventType::kFirstVideoByte: return "first_video_byte";
    case EventType::kStallObserved: return "stall_observed";
    case EventType::kDecodeError: return "decode_error";
  }
  return "?";
}

void EventSink::record(TimeNs time, EventType type, uint64_t a, uint64_t b,
                       const char* detail) {
  Event e{time, a, b, type};
  std::memcpy(e.detail, detail, ::strnlen(detail, sizeof(e.detail) - 1));
  on_event(e);
}

}  // namespace wira::trace
