#include "util/alloc_stats.h"

#include <atomic>

namespace wira::util {
namespace {

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<bool> g_hook_linked{false};

}  // namespace

uint64_t heap_alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

bool heap_hook_linked() {
  return g_hook_linked.load(std::memory_order_relaxed);
}

void add_heap_alloc() {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}

void mark_heap_hook_linked() {
  g_hook_linked.store(true, std::memory_order_relaxed);
}

}  // namespace wira::util
