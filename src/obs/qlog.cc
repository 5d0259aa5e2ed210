#include "obs/qlog.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string_view>

#include "util/json.h"

namespace wira::obs {

namespace {

// qlog times are milliseconds; emit with microsecond precision using pure
// integer math so output never depends on ostream float state / locale.
void append_ms(std::string& out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000000,
                (ns % 1000000) / 1000);
  out += buf;
}

void append_kv(std::string& out, const char* key, uint64_t value) {
  out += '"';
  out += key;
  out += "\": ";
  out += std::to_string(value);
}

void append_kv(std::string& out, const char* key, std::string_view value) {
  out += '"';
  out += key;
  out += "\": \"";
  util::append_json_escaped(out, value);
  out += '"';
}

void append_kv_ms(std::string& out, const char* key, uint64_t us) {
  out += '"';
  out += key;
  out += "\": ";
  append_ms(out, us * 1000);
}

/// The event's "data" member, serialized per the mapping in DESIGN.md §7.
void append_data(std::string& out, const trace::Event& e) {
  using trace::EventType;
  const std::string_view detail(e.detail);
  out += '{';
  switch (e.type) {
    case EventType::kPacketSent:
    case EventType::kPacketReceived:
    case EventType::kPacketLost:
      out += "\"header\": {";
      append_kv(out, "packet_number", e.a);
      out += "}, \"raw\": {";
      append_kv(out, "length", e.b);
      out += '}';
      break;
    case EventType::kPacketAcked:
      out += "\"acked_ranges\": [[";
      out += std::to_string(e.a);
      out += ", ";
      out += std::to_string(e.a);
      out += "]], ";
      append_kv(out, "length", e.b);
      break;
    case EventType::kPtoFired:
      append_kv(out, "event_type", "expired");
      out += ", ";
      append_kv(out, "timer_type", "pto");
      out += ", ";
      append_kv(out, "pto_count", e.a);
      break;
    case EventType::kRttSample:
      append_kv_ms(out, "latest_rtt", e.a);
      out += ", ";
      append_kv_ms(out, "smoothed_rtt", e.b);
      break;
    case EventType::kCwndSample:
      append_kv(out, "congestion_window", e.a);
      out += ", ";
      append_kv(out, "bytes_in_flight", e.b);
      break;
    case EventType::kPacingSample:
      // qlog pacing_rate is bits per second; the tracer records bytes/s.
      append_kv(out, "pacing_rate", e.a * 8);
      break;
    case EventType::kCcStateChanged:
      append_kv(out, "new", detail);
      break;
    case EventType::kHandshakeEvent:
      if (detail == "established") {
        append_kv(out, "new", detail);
        out += ", \"zero_rtt\": ";
        out += e.a == 0 ? "true" : "false";
      } else {
        append_kv(out, "message", detail);
      }
      break;
    case EventType::kInitApplied:
      append_kv(out, "init_cwnd", e.a);
      out += ", ";
      append_kv(out, "init_pacing", e.b);
      break;
    case EventType::kCookieEvent:
      append_kv(out, "action", detail);
      out += ", ";
      append_kv(out, "size", e.a);
      break;
    case EventType::kFrameComplete:
      append_kv(out, "frame_index", e.a);
      out += ", ";
      append_kv(out, "bytes", e.b);
      break;
    case EventType::kRequestReceived:
      append_kv(out, "bytes", e.a);
      break;
    case EventType::kOriginByte:
      append_kv(out, "chunk_bytes", e.a);
      break;
    case EventType::kFfParsed:
      append_kv(out, "ff_size", e.a);
      out += ", ";
      append_kv(out, "bytes_fed", e.b);
      break;
    case EventType::kCornerCase:
      append_kv(out, "kind", detail);
      out += ", ";
      append_kv(out, "init_cwnd", e.a);
      break;
    case EventType::kRequestSent:
      append_kv(out, "bytes", e.a);
      break;
    case EventType::kFirstVideoByte:
      append_kv(out, "total_bytes", e.a);
      break;
    case EventType::kStallObserved:
      append_kv(out, "kind", detail);
      out += ", \"gap\": ";
      append_ms(out, e.a * 1000);  // a is microseconds; qlog wants ms
      out += ", ";
      append_kv(out, "total_bytes", e.b);
      break;
    case EventType::kDecodeError:
      out += "\"raw\": {";
      append_kv(out, "length", e.a);
      out += "}, ";
      append_kv(out, "trigger", "decoding_failure");
      break;
  }
  out += '}';
}

}  // namespace

std::string qlog_event_name(const trace::Event& e) {
  using trace::EventType;
  switch (e.type) {
    case EventType::kPacketSent: return "transport:packet_sent";
    case EventType::kPacketReceived: return "transport:packet_received";
    case EventType::kPacketAcked: return "recovery:packets_acked";
    case EventType::kPacketLost: return "recovery:packet_lost";
    case EventType::kPtoFired: return "recovery:loss_timer_updated";
    case EventType::kRttSample:
    case EventType::kCwndSample:
    case EventType::kPacingSample: return "recovery:metrics_updated";
    case EventType::kCcStateChanged:
      return "recovery:congestion_state_updated";
    case EventType::kHandshakeEvent:
      return std::string_view(e.detail) == "established"
                 ? "connectivity:connection_state_updated"
                 : "wira:handshake_message";
    case EventType::kInitApplied: return "wira:init_applied";
    case EventType::kCookieEvent: return "wira:cookie_applied";
    case EventType::kFrameComplete: return "wira:frame_complete";
    case EventType::kRequestReceived: return "wira:request_received";
    case EventType::kOriginByte: return "wira:origin_byte";
    case EventType::kFfParsed: return "wira:ff_parsed";
    case EventType::kCornerCase: return "wira:corner_case";
    case EventType::kRequestSent: return "wira:request_sent";
    case EventType::kFirstVideoByte: return "wira:first_video_byte";
    case EventType::kStallObserved: return "wira:stall_observed";
    case EventType::kDecodeError: return "transport:packet_dropped";
  }
  return "wira:unknown";
}

QlogStreamWriter::QlogStreamWriter(std::ostream& os, const QlogTraceInfo& info)
    : os_(os) {
  std::string line;
  line += "{\"qlog_version\": \"0.3\", \"qlog_format\": \"JSON-SEQ\", ";
  append_kv(line, "title", info.title);
  line += ", \"trace\": {\"vantage_point\": {";
  append_kv(line, "name", info.vantage_point_name);
  line += ", ";
  append_kv(line, "type", info.vantage_point_type);
  line += "}, \"common_fields\": {\"time_format\": \"relative\", "
          "\"reference_time\": 0";
  if (!info.group_id.empty()) {
    line += ", ";
    append_kv(line, "group_id", info.group_id);
  }
  line += "}}}\n";
  os_ << line;
}

void QlogStreamWriter::on_event(const trace::Event& e) {
  std::string line;
  line += "{\"time\": ";
  append_ms(line, static_cast<uint64_t>(e.time));
  line += ", ";
  append_kv(line, "name", qlog_event_name(e));
  line += ", \"data\": ";
  append_data(line, e);
  line += "}\n";
  os_ << line;
}

std::unique_ptr<QlogFile> QlogFile::open(const std::string& path,
                                         const QlogTraceInfo& info,
                                         bool unbuffered) {
  std::unique_ptr<QlogFile> q(new QlogFile());
  if (unbuffered) q->file_.rdbuf()->pubsetbuf(nullptr, 0);
  q->file_.open(path, std::ios::trunc);
  if (!q->file_) return nullptr;
  q->writer_.emplace(q->file_, info);
  return q;
}

QlogTraceInfo paired_trace_info(const std::string& name,
                                QlogVantage vantage) {
  QlogTraceInfo info;
  info.title = name;
  info.group_id = name;
  if (vantage == QlogVantage::kClient) {
    info.vantage_point_name = "wira-client";
    info.vantage_point_type = "client";
  }
  return info;
}

}  // namespace wira::obs
