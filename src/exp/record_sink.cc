#include "exp/record_sink.h"

#include <cinttypes>
#include <cstdio>

#include "util/json.h"

namespace wira::exp {

// ---- CollectSink --------------------------------------------------------

void CollectSink::on_record(size_t index, SessionRecord&& rec) {
  // Index-order contract: the runner hands records over strictly in
  // order, so collection is a plain append.
  (void)index;
  records_.push_back(std::move(rec));
}

// ---- AggregateSink ------------------------------------------------------

void AggregateSink::on_record(size_t index, SessionRecord&& rec) {
  (void)index;
  record_session_metrics(registry_, rec, options_.include_phases);
  ++sessions_seen_;
  if (options_.flush_every > 0 && options_.flush_out != nullptr &&
      sessions_seen_ % options_.flush_every == 0) {
    flush_line(/*final_line=*/false);
  }
}

void AggregateSink::on_complete(size_t sessions) {
  (void)sessions;
  if (options_.flush_out != nullptr) flush_line(/*final_line=*/true);
}

namespace {

void append_fixed(std::string& out, double v, int decimals = 3) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  out += buf;
}

void append_u64(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

/// {"count":n,"mean":m,"p50":...,"p90":...,"p99":...} with an optional
/// unit scale (us -> ms uses 1e-3).
void append_hist_summary(std::string& out, const obs::LatencyHistogram& h,
                         double scale) {
  out += "{\"count\":";
  append_u64(out, h.count());
  out += ",\"mean\":";
  append_fixed(out, h.mean() * scale);
  out += ",\"p50\":";
  append_fixed(out, h.percentile(50) * scale);
  out += ",\"p90\":";
  append_fixed(out, h.percentile(90) * scale);
  out += ",\"p99\":";
  append_fixed(out, h.percentile(99) * scale);
  out += "}";
}

}  // namespace

void AggregateSink::write_summary_line(std::ostream& os,
                                       bool final_line) const {
  std::string line = "{\"sessions\":";
  append_u64(line, sessions_seen_);
  line += ",\"final\":";
  line += final_line ? "true" : "false";
  if (flush_hook_ != nullptr) {
    flush_hook_(sessions_seen_, &line, flush_hook_arg_);
  }
  // Flight-recorder anomaly triggers, keyed by trigger kind (only when
  // any fired — the common clean flush line stays unchanged).  The
  // `anomaly.dumps.` prefix scan mirrors the scheme discovery below.
  {
    bool any = false;
    for (const auto& [name, count] : registry_.counters()) {
      constexpr std::string_view kPrefix = "anomaly.dumps.";
      if (name.rfind(kPrefix, 0) != 0 || count == 0) continue;
      line += any ? "," : ",\"anomaly_dumps\":{";
      any = true;
      line += '"';
      util::append_json_escaped(line, name.substr(kPrefix.size()));
      line += "\":";
      append_u64(line, count);
    }
    if (any) line += "}";
  }
  line += ",\"schemes\":{";
  // Scheme discovery via the per-scheme session counters: lexicographic
  // map order keeps the line deterministic at any worker count.
  bool first = true;
  for (const auto& [name, count] : registry_.counters()) {
    constexpr std::string_view kPrefix = "sessions.";
    if (name.rfind(kPrefix, 0) != 0) continue;
    const std::string scheme = name.substr(kPrefix.size());
    if (!first) line += ',';
    first = false;
    line += '"';
    util::append_json_escaped(line, scheme);
    line += "\":{\"sessions\":";
    append_u64(line, count);
    if (const obs::LatencyHistogram* ffct =
            registry_.find_histogram("ffct_us." + scheme)) {
      line += ",\"ffct_ms\":";
      append_hist_summary(line, *ffct, 1e-3);
    }
    if (const obs::LatencyHistogram* fflr =
            registry_.find_histogram("fflr_ppm." + scheme)) {
      line += ",\"fflr_ppm\":";
      append_hist_summary(line, *fflr, 1.0);
    }
    line += "}";
  }
  line += "}}\n";
  os << line;
}

void AggregateSink::flush_line(bool final_line) {
  write_summary_line(*options_.flush_out, final_line);
  options_.flush_out->flush();
  ++flushes_written_;
}

}  // namespace wira::exp
