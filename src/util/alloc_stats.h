// Process-wide heap allocation tally.
//
// The counters live in wira_util and are always linkable, but they only
// advance when the optional global operator-new hook (alloc_hook.cc) is
// compiled into the final binary.  Perf tooling (bench/perf_smoke) links
// the hook to report allocs_per_session; production targets do not, so
// the hot path carries no accounting overhead by default.
//
// Counting is relaxed-atomic: totals are exact, ordering against other
// memory operations is not guaranteed (irrelevant for a tally).
#pragma once

#include <cstdint>

namespace wira::util {

/// Number of operator-new calls since process start (0 if the hook is
/// not linked).
uint64_t heap_alloc_count();

/// True when alloc_hook.cc was compiled into this binary, i.e. the
/// counter above is live rather than frozen at zero.
bool heap_hook_linked();

/// Called by the operator-new hook.  Not for general use.
void add_heap_alloc();

/// Called once from the hook's static initializer.  Not for general use.
void mark_heap_hook_linked();

}  // namespace wira::util
