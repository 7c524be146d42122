#include "e2ebench/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {
halfmoon::e2ebench::AllocCount g_count;
}  // namespace

void* operator new(std::size_t size) {
  ++g_count.calls;
  g_count.bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace halfmoon::e2ebench {

AllocCount Allocations() { return g_count; }

}  // namespace halfmoon::e2ebench
