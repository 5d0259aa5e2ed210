// Global operator-new replacement that counts the heap allocations of this
// process *and of every process it forks*.
//
// util/alloc_hook.cc counts into process-private memory, so allocations
// made by forked shard workers (which leave through _Exit) never reach the
// parent's tally — the hole behind perf_smoke's "5.6 allocs/session" under
// --procs.  Here the counter lives in a MAP_SHARED anonymous page created
// at the first allocation, before any fork, so every descendant increments
// the same word.  Like alloc_hook.cc, all forms forward to malloc /
// posix_memalign so the deletes can uniformly free(), and the hook never
// allocates itself.
#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "shared_alloc_hook.h"

namespace {

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "the cross-process counter needs a lock-free atomic");

std::atomic<uint64_t>& counter() {
  static std::atomic<uint64_t>* const shared = [] {
    void* page = mmap(nullptr, sizeof(std::atomic<uint64_t>),
                      PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1,
                      0);
    if (page == MAP_FAILED) std::abort();
    return new (page) std::atomic<uint64_t>(0);
  }();
  return *shared;
}

void* counted_alloc(std::size_t n) {
  counter().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  counter().fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : 1) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

uint64_t heap_allocs() { return counter().load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  counter().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  counter().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
