// Global operator-new replacement that tallies every heap allocation into
// util::alloc_stats.  Compile this TU into a binary (see wira_alloc_hooked
// targets in bench/CMakeLists.txt) to make heap_alloc_count() live; leave
// it out everywhere else so the default build pays nothing.
//
// All replaceable forms forward to malloc/posix_memalign so the matching
// deletes can uniformly free().  The hook must not allocate (it would
// recurse), so it only touches the relaxed atomics in alloc_stats.
#include <cstdlib>
#include <new>

#include "util/alloc_stats.h"

namespace {

struct HookRegistrar {
  HookRegistrar() { wira::util::mark_heap_hook_linked(); }
};
const HookRegistrar g_registrar;

void* counted_alloc(std::size_t n) {
  wira::util::add_heap_alloc();
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  wira::util::add_heap_alloc();
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : 1) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  wira::util::add_heap_alloc();
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  wira::util::add_heap_alloc();
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
