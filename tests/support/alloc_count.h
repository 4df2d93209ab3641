// Heap-allocation counters for the test binaries that check allocation-free
// or bounded-allocation paths and bounded memory. Linking alloc_count.cpp
// into a test binary replaces the global operator new/delete with counting
// malloc/free wrappers.
#pragma once

#include <cstdint>

namespace tstorm {

/// Calls to any operator new in this binary so far.
std::uint64_t heap_allocations();

/// Bytes held by live operator new allocations, as malloc_usable_size
/// reports them (the allocator's rounding included).
std::int64_t heap_live_bytes();

}  // namespace tstorm
