// Tests for the cross-vantage qlog join (obs/trace_join.h): parser edge
// cases, the join itself, and the end-to-end exactness contract — every
// --trace-sample'd session's joined phase split equals the in-session
// PhaseTimeline truncated to microseconds, at any thread count.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "exp/population_experiment.h"
#include "obs/trace_join.h"
#include "util/json_parse.h"

namespace wira::obs {
namespace {

// ---------------------------------------------------------------------------
// Exact ms-text -> us conversion (the precision-critical parsing step).

TEST(MsTextToUs, ExactIntegerConversion) {
  uint64_t us = 0;
  ASSERT_TRUE(util::ms_text_to_us("0", &us));
  EXPECT_EQ(us, 0u);
  ASSERT_TRUE(util::ms_text_to_us("12", &us));
  EXPECT_EQ(us, 12'000u);
  ASSERT_TRUE(util::ms_text_to_us("12.003", &us));
  EXPECT_EQ(us, 12'003u);
  ASSERT_TRUE(util::ms_text_to_us("0.001", &us));
  EXPECT_EQ(us, 1u);
  ASSERT_TRUE(util::ms_text_to_us("7.5", &us));
  EXPECT_EQ(us, 7'500u);
  // A value a double cannot hold exactly still converts exactly.
  ASSERT_TRUE(util::ms_text_to_us("9007199254740.993", &us));
  EXPECT_EQ(us, 9'007'199'254'740'993u);
}

TEST(MsTextToUs, RejectsWhatQlogNeverEmits) {
  uint64_t us = 0;
  EXPECT_FALSE(util::ms_text_to_us("-1", &us));
  EXPECT_FALSE(util::ms_text_to_us("1e3", &us));
  EXPECT_FALSE(util::ms_text_to_us("1.0001", &us));  // sub-us precision
  EXPECT_FALSE(util::ms_text_to_us("", &us));
  EXPECT_FALSE(util::ms_text_to_us("abc", &us));
}

// ---------------------------------------------------------------------------
// Parser.

std::string header_line(const std::string& vantage_type,
                        const std::string& group_id) {
  return "{\"qlog_version\": \"0.3\", \"qlog_format\": \"JSON-SEQ\", "
         "\"title\": \"t\", \"trace\": {\"vantage_point\": {\"name\": "
         "\"x\", \"type\": \"" +
         vantage_type +
         "\"}, \"common_fields\": {\"group_id\": \"" + group_id +
         "\", \"reference_time\": 0}}}\n";
}

TEST(SqlogParse, ExtractsMarkersAndIdentity) {
  const std::string text =
      header_line("client", "s0") +
      "{\"time\": 1.250, \"name\": \"wira:request_sent\", \"data\": "
      "{\"bytes\": 33}}\n"
      "{\"time\": 2.000, \"name\": \"some:unknown_event\", \"data\": {}}\n"
      "{\"time\": 5.125, \"name\": \"wira:first_video_byte\", \"data\": "
      "{\"total_bytes\": 900}}\n"
      "{\"time\": 6.000, \"name\": \"wira:stall_observed\", \"data\": "
      "{\"kind\": \"recv_gap\", \"gap\": 300.000, \"total_bytes\": 900}}\n"
      "{\"time\": 7.000, \"name\": \"wira:frame_complete\", \"data\": "
      "{\"frame_index\": 2, \"bytes\": 1}}\n"
      "{\"time\": 9.003, \"name\": \"wira:frame_complete\", \"data\": "
      "{\"frame_index\": 1, \"bytes\": 50000}}\n";
  ParsedQlog q;
  std::string error;
  ASSERT_TRUE(parse_sqlog_text(text, &q, &error)) << error;
  EXPECT_EQ(q.vantage_type, "client");
  EXPECT_EQ(q.group_id, "s0");
  EXPECT_EQ(q.request_sent_us, 1'250u);
  EXPECT_EQ(q.first_video_byte_us, 5'125u);
  // Only frame_index == 1 counts as first-frame completion.
  EXPECT_EQ(q.first_frame_complete_us, 9'003u);
  EXPECT_EQ(q.stall_events, 1u);
  EXPECT_EQ(q.events, 6u);
  EXPECT_EQ(q.request_received_us, kNoTimeUs);
}

TEST(SqlogParse, RejectsMalformedInputs) {
  ParsedQlog q;
  std::string error;
  EXPECT_FALSE(parse_sqlog_text("", &q, &error));
  EXPECT_FALSE(parse_sqlog_text("not json\n", &q, &error));
  // Header without a vantage type.
  EXPECT_FALSE(parse_sqlog_text(
      "{\"trace\": {\"vantage_point\": {\"name\": \"x\"}}}\n", &q, &error));
  // Event with an unparsable time.
  EXPECT_FALSE(parse_sqlog_text(
      header_line("client", "g") +
          "{\"time\": 1e3, \"name\": \"wira:request_sent\", \"data\": {}}\n",
      &q, &error));
}

// ---------------------------------------------------------------------------
// Join.

ParsedQlog client_vantage(const std::string& gid = "g") {
  ParsedQlog q;
  q.vantage_type = "client";
  q.group_id = gid;
  q.request_sent_us = 1'000;
  q.first_video_byte_us = 40'000;
  q.first_frame_complete_us = 90'000;
  return q;
}

ParsedQlog server_vantage(const std::string& gid = "g") {
  ParsedQlog q;
  q.vantage_type = "server";
  q.group_id = gid;
  q.request_received_us = 11'000;
  q.first_origin_byte_us = 20'000;
  q.ff_parsed_us = 25'000;
  return q;
}

TEST(JoinVantages, PartitionsFfctExactly) {
  JoinedPhases joined;
  std::string error;
  ASSERT_TRUE(join_vantages(client_vantage(), server_vantage(), &joined,
                            &error))
      << error;
  EXPECT_EQ(joined.ffct_us, 89'000u);
  const uint64_t expected_bounds[] = {1'000,  11'000, 20'000,
                                      25'000, 40'000, 90'000};
  uint64_t sum = 0;
  for (size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_EQ(joined.spans[i].name, std::string(kPhaseNames[i]));
    EXPECT_EQ(joined.spans[i].begin_us, expected_bounds[i]) << i;
    EXPECT_EQ(joined.spans[i].end_us, expected_bounds[i + 1]) << i;
    sum += joined.spans[i].duration_us();
  }
  EXPECT_EQ(sum, joined.ffct_us);
}

TEST(JoinVantages, MissingServerMarkersCollapseToZeroSpans) {
  ParsedQlog server = server_vantage();
  server.first_origin_byte_us = kNoTimeUs;
  server.ff_parsed_us = kNoTimeUs;
  JoinedPhases joined;
  std::string error;
  ASSERT_TRUE(join_vantages(client_vantage(), server, &joined, &error));
  EXPECT_EQ(joined.spans[1].duration_us(), 0u);  // origin_fetch
  EXPECT_EQ(joined.spans[2].duration_us(), 0u);  // ff_parse
  EXPECT_EQ(joined.spans[3].begin_us, 11'000u);
  EXPECT_EQ(joined.spans[3].end_us, 40'000u);  // delivery
}

TEST(JoinVantages, OutOfOrderBoundariesClamp) {
  // Server clock says ff_parsed after the client already had video bytes:
  // the partition stays monotone by clamping, same as obs::ffct_phases.
  ParsedQlog server = server_vantage();
  server.ff_parsed_us = 95'000;  // past first_frame_complete
  JoinedPhases joined;
  std::string error;
  ASSERT_TRUE(join_vantages(client_vantage(), server, &joined, &error));
  EXPECT_EQ(joined.spans[2].end_us, 90'000u);   // clamped to FFCT end
  EXPECT_EQ(joined.spans[3].duration_us(), 0u);
  EXPECT_EQ(joined.spans[4].duration_us(), 0u);
  EXPECT_EQ(joined.ffct_us, 89'000u);
}

TEST(JoinVantages, RejectsBadPairs) {
  JoinedPhases joined;
  std::string error;
  // Swapped vantages.
  EXPECT_FALSE(join_vantages(server_vantage(), client_vantage(), &joined,
                             &error));
  // group_id mismatch.
  EXPECT_FALSE(join_vantages(client_vantage("a"), server_vantage("b"),
                             &joined, &error));
  // Client without its anchor markers.
  ParsedQlog anchorless = client_vantage();
  anchorless.first_frame_complete_us = kNoTimeUs;
  EXPECT_FALSE(join_vantages(anchorless, server_vantage(), &joined, &error));
}

// ---------------------------------------------------------------------------
// End to end: the acceptance criterion.  Run a small sampled population,
// join every written pair, and require the joined split to equal the
// in-session PhaseTimeline exactly — serial and over 4 worker processes.

TEST(JoinEndToEnd, EverySampledPairMatchesInSessionPhases) {
  for (const size_t procs : {size_t{1}, size_t{4}}) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("wira_join_e2e_" + std::to_string(procs));
    std::filesystem::remove_all(dir);

    exp::PopulationConfig cfg;
    cfg.sessions = 6;
    cfg.seed = 17;
    cfg.processes = procs;
    cfg.trace_sample = 1;  // every session, every scheme
    cfg.trace_dir = dir.string();
    cfg.collect_metrics = true;  // populates SessionResult::phases
    const auto records = exp::run_population(cfg);
    ASSERT_EQ(records.size(), cfg.sessions);

    size_t joined_pairs = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(records[i].trace_open_failures, 0u);
      for (const auto& [scheme, res] : records[i].results) {
        const std::string base = dir.string() + "/session_" +
                                 std::to_string(i) + "_" +
                                 core::scheme_name(scheme);
        ParsedQlog client, server;
        std::string error;
        ASSERT_TRUE(parse_sqlog_file(base + ".client.sqlog", &client,
                                     &error))
            << error;
        ASSERT_TRUE(parse_sqlog_file(base + ".server.sqlog", &server,
                                     &error))
            << error;
        EXPECT_EQ(client.group_id, server.group_id);
        if (!res.first_frame_completed) continue;
        ASSERT_FALSE(res.phases.empty()) << base;
        JoinedPhases joined;
        ASSERT_TRUE(join_vantages(client, server, &joined, &error))
            << base << ": " << error;
        std::string why;
        EXPECT_TRUE(joined_matches_phases(joined, res.phases, &why))
            << base << ": " << why;
        joined_pairs++;
      }
    }
    // The population must actually exercise the contract.
    EXPECT_GT(joined_pairs, 0u) << procs << " procs";
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace wira::obs
