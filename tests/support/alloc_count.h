// Heap-allocation counter for the test binaries that check allocation-free
// or bounded-allocation paths. Linking alloc_count.cpp into a test binary
// replaces the global operator new/delete with counting malloc/free
// wrappers.
#pragma once

#include <cstdint>

namespace tstorm {

/// Calls to any operator new in this binary so far.
std::uint64_t heap_allocations();

}  // namespace tstorm
