// Heap-allocation counter of shared_alloc_hook.cc.
#pragma once

#include <cstdint>

namespace perfbench {

/// operator-new calls made so far by this process and every process it
/// forked (they share the counter page).
uint64_t heap_allocs();

}  // namespace perfbench
