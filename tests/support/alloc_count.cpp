#include "support/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

std::uint64_t tstorm::heap_allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

// Every operator is out of line, so GCC does not pair an inlined malloc()
// or free() with the other side's operator (-Wmismatched-new-delete), and
// ASan sees one allocator on both sides.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
// Library code (std::stable_sort's buffer) may allocate through the
// nothrow form and free through the sized delete; all use malloc/free.
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
