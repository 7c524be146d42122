#include "tests/alloc/counting_new.h"

#include <cstdlib>
#include <new>

namespace {
uint64_t g_calls = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace halfmoon::testing {

uint64_t AllocationCalls() { return g_calls; }

}  // namespace halfmoon::testing
