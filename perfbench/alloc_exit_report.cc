// Linked into the benchmark's build of wira_proxyd: prints the daemon's
// heap-allocation total when it exits normally (after SIGTERM), so the
// generator can report proxyd's allocations per served session.
#include <cstdio>

#include "shared_alloc_hook.h"

namespace {

struct ExitReport {
  ~ExitReport() {
    std::fprintf(stderr, "perfbench_proxyd: heap_allocs %llu\n",
                 static_cast<unsigned long long>(perfbench::heap_allocs()));
  }
};
const ExitReport g_exit_report;

}  // namespace
