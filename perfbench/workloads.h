// The benchmark's workloads (see README.md in this directory).
#pragma once

#include "common.h"

namespace perfbench {

/// sweep_flv and sweep_ts_sharded: closed-loop population sweeps.
void run_sweep(const RunArgs& args, RunResult& result);

/// proxyd_zap: open-loop zapping viewers against a fresh wira_proxyd.
void run_zap(const RunArgs& args, RunResult& result);

}  // namespace perfbench
