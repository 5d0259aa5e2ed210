#include "obs/trace_join.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/json_parse.h"

namespace wira::obs {

namespace {

using util::JsonValue;

bool parse_header(const JsonValue& doc, ParsedQlog* out, std::string* error) {
  if (!doc.is_object()) {
    *error = "header line is not an object";
    return false;
  }
  if (const JsonValue* title = doc.find("title", JsonValue::Kind::kString)) {
    out->title = title->str;
  }
  const JsonValue* trace = doc.find("trace", JsonValue::Kind::kObject);
  if (trace == nullptr) {
    *error = "header has no trace object";
    return false;
  }
  const JsonValue* vp =
      trace->find("vantage_point", JsonValue::Kind::kObject);
  if (vp == nullptr) {
    *error = "header has no vantage_point";
    return false;
  }
  if (const JsonValue* name = vp->find("name", JsonValue::Kind::kString)) {
    out->vantage_name = name->str;
  }
  const JsonValue* type = vp->find("type", JsonValue::Kind::kString);
  if (type == nullptr) {
    *error = "vantage_point has no type";
    return false;
  }
  out->vantage_type = type->str;
  if (const JsonValue* common =
          trace->find("common_fields", JsonValue::Kind::kObject)) {
    if (const JsonValue* gid =
            common->find("group_id", JsonValue::Kind::kString)) {
      out->group_id = gid->str;
    }
  }
  return true;
}

/// Records the first occurrence only: the partition anchors on first
/// markers, matching the server's phase marks (app::WiraServer).
void note_first(uint64_t* slot, uint64_t t_us) {
  if (*slot == kNoTimeUs) *slot = t_us;
}

bool parse_event(const JsonValue& doc, ParsedQlog* out, std::string* error) {
  const JsonValue* name = doc.find("name", JsonValue::Kind::kString);
  const JsonValue* time = doc.find("time", JsonValue::Kind::kNumber);
  if (name == nullptr || time == nullptr) {
    *error = "event line missing name or time";
    return false;
  }
  uint64_t t_us = 0;
  if (!util::ms_text_to_us(time->raw_number, &t_us)) {
    *error = "unparsable event time \"" + time->raw_number + "\"";
    return false;
  }
  out->events++;
  const std::string& n = name->str;
  if (n == "wira:request_sent") {
    note_first(&out->request_sent_us, t_us);
  } else if (n == "wira:first_video_byte") {
    note_first(&out->first_video_byte_us, t_us);
  } else if (n == "wira:frame_complete") {
    const JsonValue* data = doc.find("data", JsonValue::Kind::kObject);
    const JsonValue* idx =
        data ? data->find("frame_index", JsonValue::Kind::kNumber) : nullptr;
    if (idx != nullptr && idx->raw_number == "1") {
      note_first(&out->first_frame_complete_us, t_us);
    }
  } else if (n == "wira:request_received") {
    note_first(&out->request_received_us, t_us);
  } else if (n == "wira:origin_byte") {
    note_first(&out->first_origin_byte_us, t_us);
  } else if (n == "wira:ff_parsed") {
    note_first(&out->ff_parsed_us, t_us);
  } else if (n == "wira:stall_observed") {
    out->stall_events++;
  }
  return true;
}

}  // namespace

bool parse_sqlog_text(std::string_view text, ParsedQlog* out,
                      std::string* error) {
  *out = ParsedQlog{};
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    ++line_no;
    JsonValue doc;
    std::string json_error;
    if (!util::parse_json(line, &doc, &json_error)) {
      *error = "line " + std::to_string(line_no) + ": " + json_error;
      return false;
    }
    if (line_no == 1) {
      if (!parse_header(doc, out, error)) return false;
      continue;
    }
    if (!parse_event(doc, out, error)) {
      *error = "line " + std::to_string(line_no) + ": " + *error;
      return false;
    }
  }
  if (line_no == 0) {
    *error = "empty qlog file";
    return false;
  }
  return true;
}

bool parse_sqlog_file(const std::string& path, ParsedQlog* out,
                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!parse_sqlog_text(buf.str(), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool join_vantages(const ParsedQlog& client, const ParsedQlog& server,
                   JoinedPhases* out, std::string* error) {
  if (client.vantage_type != "client") {
    *error = "first trace has vantage type \"" + client.vantage_type +
             "\", expected \"client\"";
    return false;
  }
  if (server.vantage_type != "server") {
    *error = "second trace has vantage type \"" + server.vantage_type +
             "\", expected \"server\"";
    return false;
  }
  if (client.group_id != server.group_id) {
    *error = "group_id mismatch: client \"" + client.group_id +
             "\" vs server \"" + server.group_id + "\"";
    return false;
  }
  if (client.request_sent_us == kNoTimeUs) {
    *error = "client trace has no wira:request_sent";
    return false;
  }
  if (client.first_frame_complete_us == kNoTimeUs) {
    *error = "client trace has no frame-1 wira:frame_complete";
    return false;
  }
  const uint64_t start = client.request_sent_us;
  const uint64_t end = client.first_frame_complete_us;
  if (end < start) {
    *error = "frame 1 completed before the request departed";
    return false;
  }
  // Identical construction to obs::ffct_phases, in microsecond integers:
  // a missing boundary inherits the previous one; out-of-order boundaries
  // clamp into [cur, end].  Both clocks are the same simulated timeline
  // (reference_time 0), so cross-vantage boundaries compare directly.
  const uint64_t raw[kNumPhases - 1] = {
      server.request_received_us, server.first_origin_byte_us,
      server.ff_parsed_us, client.first_video_byte_us};
  uint64_t cur = start;
  for (size_t i = 0; i + 1 < kNumPhases; ++i) {
    const uint64_t t =
        raw[i] == kNoTimeUs ? cur : std::clamp(raw[i], cur, end);
    out->spans[i] = JoinedPhases::Span{kPhaseNames[i], cur, t};
    cur = t;
  }
  out->spans[kNumPhases - 1] =
      JoinedPhases::Span{kPhaseNames[kNumPhases - 1], cur, end};
  out->ffct_us = end - start;
  return true;
}

bool joined_matches_phases(const JoinedPhases& joined,
                           const std::vector<PhaseSpan>& phases,
                           std::string* why) {
  if (phases.size() != kNumPhases) {
    *why = "in-session phase list has " + std::to_string(phases.size()) +
           " spans, expected " + std::to_string(kNumPhases);
    return false;
  }
  for (size_t i = 0; i < kNumPhases; ++i) {
    const JoinedPhases::Span& j = joined.spans[i];
    const PhaseSpan& p = phases[i];
    if (std::string_view(j.name) != std::string_view(p.name)) {
      *why = "span " + std::to_string(i) + " name mismatch: joined \"" +
             j.name + "\" vs in-session \"" + p.name + "\"";
      return false;
    }
    // Truncation commutes with the clamped partition (monotone map), so
    // equality here is exact, not approximate.
    const uint64_t begin_us = static_cast<uint64_t>(p.begin) / 1000;
    const uint64_t end_us = static_cast<uint64_t>(p.end) / 1000;
    if (j.begin_us != begin_us || j.end_us != end_us) {
      *why = std::string("phase ") + p.name + " boundaries diverge: joined [" +
             std::to_string(j.begin_us) + ", " + std::to_string(j.end_us) +
             "] us vs in-session [" + std::to_string(begin_us) + ", " +
             std::to_string(end_us) + "] us";
      return false;
    }
  }
  return true;
}

}  // namespace wira::obs
