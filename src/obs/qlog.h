// Standard-qlog serialization of the internal tracer event stream
// (draft-ietf-quic-qlog main schema, JSON-SEQ flavour written as plain
// JSONL — one JSON object per line, no RS framing — so both qlog viewers
// and line-oriented tools can consume the file directly).
//
// File layout:
//   line 1:  the qlog "header" record (qlog_version, title, vantage_point)
//   line 2+: one event record per tracer event:
//              {"time": <ms rel.>, "name": "<category:event>", "data": {...}}
//
// Transport/recovery events map onto the names defined by
// draft-ietf-quic-qlog-quic-events; events specific to this reproduction
// (FF_Size parsing, Hx_QoS cookies, corner cases) live under a "wira:"
// namespace.  DESIGN.md §7 carries the full mapping table; the schema
// subset is enforced by tests/test_qlog.cc.
#pragma once

#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/tracer.h"

namespace wira::obs {

/// Static metadata for one qlog trace (the header line).
struct QlogTraceInfo {
  std::string title;                          ///< e.g. "session 12 / wira"
  std::string group_id;                       ///< correlates related traces
  std::string vantage_point_name = "wira-server";
  std::string vantage_point_type = "server";  ///< "client"/"server"/"network"
};

/// Which half of a joinable trace pair a file holds.
enum class QlogVantage { kServer, kClient };

/// Header for one half of a trace pair, following the convention
/// obs/trace_join (wira_trace_join) pairs files by: both halves share
/// title == group_id == `name`; the server half is vantage
/// "wira-server"/"server" and the client half "wira-client"/"client".
QlogTraceInfo paired_trace_info(const std::string& name, QlogVantage vantage);

/// Standard qlog event name for an internal tracer event, e.g.
/// "transport:packet_sent" or "wira:ff_parsed".  Depends on the detail for
/// kHandshakeEvent ("established" is a connection_state_updated).
std::string qlog_event_name(const trace::Event& e);

/// Streams tracer events as standard qlog.  Writes the header line on
/// construction; each on_event() appends exactly one event line.  Attach
/// with set_tracer(&writer); the writer must outlive the attachment.
class QlogStreamWriter : public trace::EventSink {
 public:
  QlogStreamWriter(std::ostream& os, const QlogTraceInfo& info);

  void on_event(const trace::Event& e) override;

 private:
  std::ostream& os_;
};

/// A QlogStreamWriter that owns its file: open() truncates `path` and
/// writes the header line; destroying it flushes and closes the file.
class QlogFile final : public trace::EventSink {
 public:
  /// nullptr if `path` cannot be opened.  `unbuffered` hands each event
  /// line to the kernel as it is written, so a process that dies keeps
  /// every event before the fault.
  static std::unique_ptr<QlogFile> open(const std::string& path,
                                        const QlogTraceInfo& info,
                                        bool unbuffered = false);

  void on_event(const trace::Event& e) override { writer_->on_event(e); }

 private:
  QlogFile() = default;
  std::ofstream file_;
  std::optional<QlogStreamWriter> writer_;
};

}  // namespace wira::obs
