// Conformance tests for the standard-qlog trace layer (obs/qlog.h).
//
// Three layers of checking:
//   1. golden strings: the header line and representative event lines are
//      compared byte-for-byte, pinning the wire format;
//   2. a minimal strict JSON parser + schema-subset validator: every line
//      of a .sqlog must parse as one JSON object, events must carry a
//      numeric "time", a known "name" and a "data" object with the fields
//      DESIGN.md §7 documents for that name;
//   3. an end-to-end run through the population runner's --trace-sample
//      path, validating the files it writes and checking the legacy
//      streaming JSONL and qlog outputs of one tracer never interleave.
#include "obs/qlog.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/population_experiment.h"
#include "trace/tracer.h"

namespace wira::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal strict JSON parser (objects, arrays, strings, numbers, literals).
// Only what the validator needs: parse one line, expose object keys.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_number() const { return type == Type::kNumber; }
  const JsonValue* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parses the full input as one value; empty error string on success.
  std::string parse(JsonValue* out) {
    error_.clear();
    pos_ = 0;
    *out = value();
    skip_ws();
    if (error_.empty() && pos_ != s_.size()) {
      fail("trailing characters after value");
    }
    return error_;
  }

 private:
  void fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      pos_++;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    JsonValue v;
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return v;
    }
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = string();
      return v;
    }
    if (literal("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (literal("null")) return v;
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    consume('{');
    skip_ws();
    if (consume('}')) return v;
    while (error_.empty()) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        fail("expected object key");
        break;
      }
      const std::string key = string();
      if (!consume(':')) {
        fail("expected ':' after key");
        break;
      }
      v.object[key] = value();
      if (consume(',')) continue;
      if (consume('}')) break;
      fail("expected ',' or '}' in object");
    }
    return v;
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    consume('[');
    skip_ws();
    if (consume(']')) return v;
    while (error_.empty()) {
      v.array.push_back(value());
      if (consume(',')) continue;
      if (consume(']')) break;
      fail("expected ',' or ']' in array");
    }
    return v;
  }

  std::string string() {
    std::string out;
    pos_++;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            fail("truncated \\u escape");
            return out;
          }
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              fail("bad \\u escape");
              return out;
            }
          }
          pos_ += 4;
          out += '?';  // code point itself is irrelevant to the validator
          break;
        }
        default:
          fail("bad escape character");
          return out;
      }
    }
    fail("unterminated string");
    return out;
  }

  JsonValue number() {
    JsonValue v;
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') pos_++;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      pos_++;
    }
    if (pos_ == start) {
      fail("expected a value");
      return v;
    }
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      fail("unparseable number");
      return v;
    }
    v.type = JsonValue::Type::kNumber;
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Schema-subset validator.

/// data fields required per event name (nested fields checked separately).
const std::map<std::string, std::vector<std::string>>& required_data() {
  static const std::map<std::string, std::vector<std::string>> kRequired = {
      {"transport:packet_sent", {"header", "raw"}},
      {"transport:packet_received", {"header", "raw"}},
      {"recovery:packet_lost", {"header", "raw"}},
      {"recovery:packets_acked", {"acked_ranges", "length"}},
      {"recovery:loss_timer_updated",
       {"event_type", "timer_type", "pto_count"}},
      {"recovery:metrics_updated", {}},  // one-of, checked below
      {"recovery:congestion_state_updated", {"new"}},
      {"connectivity:connection_state_updated", {"new"}},
      {"wira:handshake_message", {"message"}},
      {"wira:init_applied", {"init_cwnd", "init_pacing"}},
      {"wira:cookie_applied", {"action", "size"}},
      {"wira:frame_complete", {"frame_index", "bytes"}},
      {"wira:request_received", {"bytes"}},
      {"wira:origin_byte", {"chunk_bytes"}},
      {"wira:ff_parsed", {"ff_size", "bytes_fed"}},
      {"wira:corner_case", {"kind", "init_cwnd"}},
      {"wira:request_sent", {"bytes"}},
      {"wira:first_video_byte", {"total_bytes"}},
      {"wira:stall_observed", {"kind", "gap", "total_bytes"}},
  };
  return kRequired;
}

std::string validate_header(const JsonValue& v) {
  const JsonValue* version = v.find("qlog_version");
  if (version == nullptr || version->string != "0.3") {
    return "header: qlog_version missing or not \"0.3\"";
  }
  const JsonValue* format = v.find("qlog_format");
  if (format == nullptr || format->string != "JSON-SEQ") {
    return "header: qlog_format missing or not \"JSON-SEQ\"";
  }
  if (v.find("title") == nullptr) return "header: title missing";
  const JsonValue* trace = v.find("trace");
  if (trace == nullptr || !trace->is_object()) {
    return "header: trace object missing";
  }
  const JsonValue* vp = trace->find("vantage_point");
  if (vp == nullptr || !vp->is_object() || vp->find("type") == nullptr) {
    return "header: vantage_point.type missing";
  }
  const std::string& vpt = vp->find("type")->string;
  if (vpt != "client" && vpt != "server" && vpt != "network") {
    return "header: vantage_point.type not client/server/network";
  }
  return "";
}

std::string validate_event(const JsonValue& v, double* prev_time) {
  const JsonValue* time = v.find("time");
  if (time == nullptr || !time->is_number() || time->number < 0) {
    return "event: time missing or not a non-negative number";
  }
  if (time->number < *prev_time) return "event: time went backwards";
  *prev_time = time->number;
  const JsonValue* name = v.find("name");
  if (name == nullptr || name->type != JsonValue::Type::kString) {
    return "event: name missing";
  }
  const auto req = required_data().find(name->string);
  if (req == required_data().end()) {
    return "event: unknown name " + name->string;
  }
  const JsonValue* data = v.find("data");
  if (data == nullptr || !data->is_object()) {
    return "event: data object missing (" + name->string + ")";
  }
  for (const std::string& field : req->second) {
    if (data->find(field) == nullptr) {
      return "event " + name->string + ": data." + field + " missing";
    }
  }
  if (name->string == "recovery:metrics_updated" &&
      data->find("latest_rtt") == nullptr &&
      data->find("congestion_window") == nullptr &&
      data->find("pacing_rate") == nullptr) {
    return "metrics_updated: no known metric present";
  }
  return "";
}

/// Validates a full .sqlog text; returns "" or the first error found.
std::string validate_sqlog(const std::string& text, size_t* events_out) {
  std::istringstream is(text);
  std::string line;
  size_t line_no = 0;
  size_t events = 0;
  double prev_time = 0;
  while (std::getline(is, line)) {
    line_no++;
    if (line.empty()) return "line " + std::to_string(line_no) + ": empty";
    JsonValue v;
    const std::string err = JsonParser(line).parse(&v);
    if (!err.empty()) {
      return "line " + std::to_string(line_no) + ": " + err;
    }
    if (!v.is_object()) {
      return "line " + std::to_string(line_no) + ": not a JSON object";
    }
    const std::string semantic =
        line_no == 1 ? validate_header(v) : validate_event(v, &prev_time);
    if (!semantic.empty()) {
      return "line " + std::to_string(line_no) + ": " + semantic;
    }
    if (line_no > 1) events++;
  }
  if (line_no == 0) return "empty file";
  if (events_out != nullptr) *events_out = events;
  return "";
}

// ---------------------------------------------------------------------------
// Golden strings.

TEST(Qlog, GoldenHeaderLine) {
  std::ostringstream os;
  QlogTraceInfo info;
  info.title = "session_3_Wira";
  info.group_id = "session_3_Wira";
  QlogStreamWriter writer(os, info);
  EXPECT_EQ(os.str(),
            "{\"qlog_version\": \"0.3\", \"qlog_format\": \"JSON-SEQ\", "
            "\"title\": \"session_3_Wira\", \"trace\": {\"vantage_point\": "
            "{\"name\": \"wira-server\", \"type\": \"server\"}, "
            "\"common_fields\": {\"time_format\": \"relative\", "
            "\"reference_time\": 0, \"group_id\": \"session_3_Wira\"}}}\n");
}

TEST(Qlog, GoldenEventLines) {
  std::ostringstream os;
  QlogTraceInfo info;
  QlogStreamWriter writer(os, info);
  os.str("");  // drop the header: this golden targets the event lines
  writer.record(microseconds(5500), trace::EventType::kPacketSent, 7, 1200);
  writer.record(milliseconds(12), trace::EventType::kRttSample, 50'000,
                51'250);
  writer.record(milliseconds(20), trace::EventType::kCookieEvent, 32, 0,
                "say \"hi\"");
  EXPECT_EQ(os.str(),
            "{\"time\": 5.500, \"name\": \"transport:packet_sent\", "
            "\"data\": {\"header\": {\"packet_number\": 7}, \"raw\": "
            "{\"length\": 1200}}}\n"
            "{\"time\": 12.000, \"name\": \"recovery:metrics_updated\", "
            "\"data\": {\"latest_rtt\": 50.000, \"smoothed_rtt\": "
            "51.250}}\n"
            "{\"time\": 20.000, \"name\": \"wira:cookie_applied\", "
            "\"data\": {\"action\": \"say \\\"hi\\\"\", \"size\": 32}}\n");
}

TEST(Qlog, EventNameMapping) {
  using trace::Event;
  using trace::EventType;
  const auto name = [](EventType type, const char* detail = "") {
    Event e;
    e.type = type;
    std::strncpy(e.detail, detail, sizeof(e.detail) - 1);
    return qlog_event_name(e);
  };
  EXPECT_EQ(name(EventType::kPacketSent), "transport:packet_sent");
  EXPECT_EQ(name(EventType::kPacketReceived), "transport:packet_received");
  EXPECT_EQ(name(EventType::kPacketAcked), "recovery:packets_acked");
  EXPECT_EQ(name(EventType::kPacketLost), "recovery:packet_lost");
  EXPECT_EQ(name(EventType::kPtoFired), "recovery:loss_timer_updated");
  EXPECT_EQ(name(EventType::kRttSample), "recovery:metrics_updated");
  EXPECT_EQ(name(EventType::kCwndSample), "recovery:metrics_updated");
  EXPECT_EQ(name(EventType::kPacingSample), "recovery:metrics_updated");
  EXPECT_EQ(name(EventType::kCcStateChanged),
            "recovery:congestion_state_updated");
  EXPECT_EQ(name(EventType::kHandshakeEvent, "established"),
            "connectivity:connection_state_updated");
  EXPECT_EQ(name(EventType::kHandshakeEvent, "chlo"),
            "wira:handshake_message");
  EXPECT_EQ(name(EventType::kInitApplied), "wira:init_applied");
  EXPECT_EQ(name(EventType::kCookieEvent), "wira:cookie_applied");
  EXPECT_EQ(name(EventType::kFrameComplete), "wira:frame_complete");
  EXPECT_EQ(name(EventType::kRequestReceived), "wira:request_received");
  EXPECT_EQ(name(EventType::kOriginByte), "wira:origin_byte");
  EXPECT_EQ(name(EventType::kFfParsed), "wira:ff_parsed");
  EXPECT_EQ(name(EventType::kCornerCase), "wira:corner_case");
}

// ---------------------------------------------------------------------------
// Validator self-checks (it must actually reject broken input).

TEST(QlogValidator, AcceptsMinimalValidFile) {
  std::ostringstream os;
  QlogTraceInfo info;
  info.title = "t";
  QlogStreamWriter writer(os, info);
  writer.record(0, trace::EventType::kHandshakeEvent, 0, 0, "chlo");
  writer.record(milliseconds(1), trace::EventType::kInitApplied, 66'000,
                1'000'000);
  size_t events = 0;
  EXPECT_EQ(validate_sqlog(os.str(), &events), "");
  EXPECT_EQ(events, 2u);
}

TEST(QlogValidator, RejectsBrokenInput) {
  const std::string header =
      "{\"qlog_version\": \"0.3\", \"qlog_format\": \"JSON-SEQ\", "
      "\"title\": \"t\", \"trace\": {\"vantage_point\": {\"name\": \"x\", "
      "\"type\": \"server\"}}}\n";
  // Truncated JSON.
  EXPECT_NE(validate_sqlog(header + "{\"time\": 1.0, \"name\":", nullptr),
            "");
  // Unknown event name.
  EXPECT_NE(validate_sqlog(header + "{\"time\": 1.0, \"name\": "
                                    "\"transport:bogus\", \"data\": {}}\n",
                           nullptr),
            "");
  // Missing data field.
  EXPECT_NE(validate_sqlog(header + "{\"time\": 1.0, \"name\": "
                                    "\"wira:ff_parsed\", \"data\": "
                                    "{\"ff_size\": 1}}\n",
                           nullptr),
            "");
  // Time going backwards.
  EXPECT_NE(
      validate_sqlog(header +
                         "{\"time\": 2.0, \"name\": \"wira:request_received"
                         "\", \"data\": {\"bytes\": 1}}\n"
                         "{\"time\": 1.0, \"name\": \"wira:request_received"
                         "\", \"data\": {\"bytes\": 1}}\n",
                     nullptr),
      "");
  // Wrong version string.
  EXPECT_NE(validate_sqlog("{\"qlog_version\": \"9.9\"}\n", nullptr), "");
}

// ---------------------------------------------------------------------------
// End-to-end: the population runner's --trace-sample files conform.

TEST(QlogEndToEnd, TraceSampleFilesValidate) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "wira_qlog_e2e";
  std::filesystem::remove_all(dir);

  exp::PopulationConfig cfg;
  cfg.sessions = 4;
  cfg.seed = 11;
  cfg.processes = 2;
  cfg.trace_sample = 2;  // sessions 0 and 2, every scheme
  cfg.trace_dir = dir.string();
  cfg.collect_metrics = true;  // phase extraction next to a qlog sink
  obs::MetricsRegistry registry;
  const auto records = exp::run_population(cfg, &registry);
  ASSERT_EQ(records.size(), 4u);

  size_t server_files = 0;
  size_t client_files = 0;
  size_t total_events = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".sqlog") continue;
    const std::string filename = entry.path().filename().string();
    std::ifstream is(entry.path());
    std::stringstream buf;
    buf << is.rdbuf();
    size_t events = 0;
    EXPECT_EQ(validate_sqlog(buf.str(), &events), "")
        << "in " << entry.path();
    EXPECT_GT(events, 0u) << "in " << entry.path();
    total_events += events;
    const std::string text = buf.str();
    if (filename.find(".server.sqlog") != std::string::npos) {
      server_files++;
      // A server-side session trace must at least show the request, the
      // init decision and data packets leaving.
      EXPECT_NE(text.find("\"type\": \"server\""), std::string::npos);
      EXPECT_NE(text.find("\"wira:request_received\""), std::string::npos);
      EXPECT_NE(text.find("\"wira:init_applied\""), std::string::npos);
      EXPECT_NE(text.find("\"transport:packet_sent\""), std::string::npos);
      EXPECT_NE(text.find("\"recovery:congestion_state_updated\""),
                std::string::npos);
    } else {
      // The paired client vantage: request departure and the delivery-side
      // markers only the receiver can observe.
      EXPECT_NE(filename.find(".client.sqlog"), std::string::npos)
          << filename << " is neither .server.sqlog nor .client.sqlog";
      client_files++;
      EXPECT_NE(text.find("\"type\": \"client\""), std::string::npos);
      EXPECT_NE(text.find("\"wira:request_sent\""), std::string::npos);
      EXPECT_NE(text.find("\"wira:first_video_byte\""), std::string::npos);
      EXPECT_NE(text.find("\"wira:frame_complete\""), std::string::npos);
      // Server-only markers must not leak across vantages.
      EXPECT_EQ(text.find("\"wira:request_received\""), std::string::npos);
    }
  }
  // 2 sampled sessions x 4 schemes, one file per vantage.
  EXPECT_EQ(server_files, 2u * records[0].results.size());
  EXPECT_EQ(client_files, 2u * records[0].results.size());
  EXPECT_GT(total_events, 100u);
  // Phase collection ran alongside the qlog sink.
  for (const auto& [scheme, res] : records[0].results) {
    if (res.first_frame_completed) {
      EXPECT_FALSE(res.phases.empty());
    }
  }
  std::filesystem::remove_all(dir);
}

// A detail holding a quote, a backslash and a newline (16 bytes, so the
// 21-byte field keeps it whole) round-trips through exactly one level of
// JSON escaping, and the file stays schema-valid around it.
TEST(QlogEndToEnd, HostileDetailRoundTripsWithOneEscapeLevel) {
  std::ostringstream qlog;
  QlogTraceInfo info;
  info.title = "hostile";
  QlogStreamWriter writer(qlog, info);

  const std::string hostile = "say \"hi\" a\\b\nend";
  ASSERT_LT(hostile.size(), sizeof(trace::Event::detail));
  writer.record(microseconds(1), trace::EventType::kPacketSent, 1, 1200);
  writer.record(microseconds(2), trace::EventType::kCornerCase, 45, 0,
                hostile.c_str());
  writer.record(microseconds(3), trace::EventType::kFfParsed, 66'000, 70'000);

  size_t events = 0;
  EXPECT_EQ(validate_sqlog(qlog.str(), &events), "");
  EXPECT_EQ(events, 3u);

  std::istringstream qis(qlog.str());
  std::string line;
  std::getline(qis, line);  // header
  std::getline(qis, line);  // packet_sent
  std::getline(qis, line);  // corner_case
  JsonValue v;
  ASSERT_EQ(JsonParser(line).parse(&v), "");
  EXPECT_EQ(v.find("data")->find("kind")->string, hostile);
}

}  // namespace
}  // namespace wira::obs
