// Process-wide allocation counter of alloc_test: counting_new.cc replaces the global operator
// new and counts every call. It lives in its own translation unit so the compiler never pairs
// the replaced new with an inlined delete.

#ifndef HALFMOON_TESTS_ALLOC_COUNTING_NEW_H_
#define HALFMOON_TESTS_ALLOC_COUNTING_NEW_H_

#include <cstdint>

namespace halfmoon::testing {

// Calls to the global operator new since the process started. The test binary is
// single-threaded: no synchronisation.
uint64_t AllocationCalls();

}  // namespace halfmoon::testing

#endif  // HALFMOON_TESTS_ALLOC_COUNTING_NEW_H_
