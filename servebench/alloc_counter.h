// Heap-allocation counter: this binary replaces the global operator new,
// and every allocation bumps a per-thread count. Reading the count
// around a call on one thread gives the exact number of allocations the
// call made on that thread.
#pragma once

#include <cstdint>

namespace servebench {

/// Allocations made so far by the calling thread.
uint64_t ThreadAllocations();

}  // namespace servebench
