// Process-wide allocation counter of the benchmark binary (process.allocs_per_invocation):
// alloc_counter.cc replaces the global operator new and counts every call. It lives in its own
// translation unit so the compiler never pairs the replaced new with an inlined delete.

#ifndef HALFMOON_E2EBENCH_ALLOC_COUNTER_H_
#define HALFMOON_E2EBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace halfmoon::e2ebench {

struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

// Allocations since the process started. Single-threaded binary: no synchronisation.
AllocCount Allocations();

}  // namespace halfmoon::e2ebench

#endif  // HALFMOON_E2EBENCH_ALLOC_COUNTER_H_
