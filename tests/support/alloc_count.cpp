#include "support/alloc_count.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

/// Counts one allocation and its usable bytes; passes `p` through.
void* counted(void* p) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

std::uint64_t tstorm::heap_allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

std::int64_t tstorm::heap_live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

// Every operator is out of line, so GCC does not pair an inlined malloc()
// or free() with the other side's operator (-Wmismatched-new-delete), and
// ASan sees one allocator on both sides.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = counted(std::malloc(n != 0 ? n : 1))) return p;
  throw std::bad_alloc{};
}
// Library code (std::stable_sort's buffer) may allocate through the
// nothrow form and free through the sized delete; all use malloc/free.
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  return counted(std::malloc(n != 0 ? n : 1));
}
[[gnu::noinline]] void operator delete(void* p) noexcept { release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  release(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  release(p);
}
