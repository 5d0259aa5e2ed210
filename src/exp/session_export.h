// Per-session JSONL export (--metrics-out): one JSON object per
// (session, scheme) pair, written after the population sweep completes so
// the file content is a pure function of the records — byte-identical at
// any --procs N.  Durations are integer nanoseconds; phase spans sum to
// exactly ffct_ns (see obs::ffct_phases).
#pragma once

#include <ostream>
#include <vector>

#include "exp/population_experiment.h"

namespace wira::exp {

/// Writes every (session, scheme) result as one JSONL line.  Sessions
/// appear in index order, schemes in enum order (the map's order).
/// `run` disambiguates multiple sweeps appended into one file (the
/// ablation binaries call run_population once per sweep point).
void write_records_jsonl(const std::vector<SessionRecord>& records,
                         std::ostream& os, int run = 0);

}  // namespace wira::exp
