// Process-wide allocation counters of alloc_test: counting_new.cc replaces the global operator
// new and delete. They live in their own translation unit so the compiler never pairs the
// replaced new with an inlined delete.

#ifndef HALFMOON_TESTS_ALLOC_COUNTING_NEW_H_
#define HALFMOON_TESTS_ALLOC_COUNTING_NEW_H_

#include <cstdint>

namespace halfmoon::testing {

// Calls to the global operator new since the process started. The test binary is
// single-threaded: no synchronisation.
uint64_t AllocationCalls();

// Allocations from the global operator new not yet deleted, and the bytes they requested:
// what a data structure holds, whatever temporaries it made and freed on the way.
int64_t LiveAllocations();
int64_t LiveBytes();

}  // namespace halfmoon::testing

#endif  // HALFMOON_TESTS_ALLOC_COUNTING_NEW_H_
