// Replaces global operator new/delete to count heap allocations
// (topo.allocs_per_tree). In a translation unit of its own, so the
// replacements are never inlined into container code. Relaxed atomics:
// the simulation is single-threaded; the atomic only guards against
// library threads.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

std::uint64_t perfbench::allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
