#include "tests/alloc/counting_new.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
uint64_t g_calls = 0;
int64_t g_live = 0;
int64_t g_live_bytes = 0;

// Each block carries its requested size in a header ahead of the pointer handed out, so
// delete can take it back off the live total. The header keeps the fundamental alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

void* operator new(std::size_t size) {
  ++g_calls;
  auto* base = static_cast<unsigned char*>(std::malloc(kHeader + size));
  if (base == nullptr) throw std::bad_alloc();
  *reinterpret_cast<std::size_t*>(base) = size;
  ++g_live;
  g_live_bytes += static_cast<int64_t>(size);
  return base + kHeader;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(p) - kHeader;
  --g_live;
  g_live_bytes -= static_cast<int64_t>(*reinterpret_cast<std::size_t*>(base));
  std::free(base);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
// The array forms are replaced too: a sanitizer runtime that intercepts them would otherwise
// serve them without passing through the counting operator new.
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace halfmoon::testing {

uint64_t AllocationCalls() { return g_calls; }
int64_t LiveAllocations() { return g_live; }
int64_t LiveBytes() { return g_live_bytes; }

}  // namespace halfmoon::testing
