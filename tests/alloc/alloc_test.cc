// Allocation gates. The binary replaces the global operator new (counting_new.cc), so it
// counts every allocation the simulator makes, pool refills included.
//
// Travel: heap allocations per SSF invocation on a short, seeded, volatile travel load under
// Halfmoon-read. The budget is 65% of what the same load cost before coroutine frames were
// pooled and records built at their exact size (DESIGN.md §7.7). A regression back to a heap
// round-trip per frame or per record field lands far above it. scripts/check.sh requires the
// '| pooled' line this test prints.
//
// KV: the heap a KvState holds per LATEST slot and per stored version. Each must be one block
// (plus its share of the tables) requesting at most 80% of the bytes the store held before
// entries were sized by their bytes (DESIGN.md §7.8). A key or version id kept in its own
// string lands at two blocks. scripts/check.sh requires the '| exact-size' line.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/ssf_runtime.h"
#include "src/kvstore/kv_state.h"
#include "src/runtime/cluster.h"
#include "src/sim/task.h"
#include "src/workloads/applications.h"
#include "src/workloads/loadgen.h"
#include "tests/alloc/counting_new.h"

namespace halfmoon {
namespace {

// Allocations per invocation of this load before frames were pooled and records built at
// their exact size, measured with this test on that tree.
constexpr double kUnpooledAllocsPerInvocation = 236.7;
constexpr double kBudget = 0.65 * kUnpooledAllocsPerInvocation;

TEST(AllocGateTest, TravelInvocationsStayWithinTheAllocationBudget) {
  if (!sim::internal::FramePool::kEnabled) {
    GTEST_SKIP() << "frames use global new under AddressSanitizer; the gate measures the pool";
  }
  runtime::ClusterConfig ccfg;
  ccfg.seed = 1;
  runtime::Cluster cluster(ccfg);
  core::RuntimeConfig rcfg;
  rcfg.default_protocol = core::ProtocolKind::kHalfmoonRead;
  core::SsfRuntime runtime(&cluster, rcfg);
  workloads::AppDataset data;
  workloads::RegisterTravelApp(runtime, data);

  auto run = [&](SimDuration duration) {
    workloads::LoadGenConfig config;
    config.requests_per_second = 400;
    config.warmup = 0;
    config.duration = duration;
    workloads::LoadGenerator gen(&runtime, config, workloads::TravelRequestFactory(runtime, data));
    gen.RunToCompletion();
    return gen.completed();
  };
  // The first second fills the frame pool and the tables' steady-state capacity; the
  // measured window after it is what every further invocation costs.
  run(Seconds(1));
  const uint64_t before = testing::AllocationCalls();
  const int64_t completed = run(Seconds(4));
  const uint64_t allocations = testing::AllocationCalls() - before;
  ASSERT_GT(completed, 1000);

  const double per_invocation =
      static_cast<double>(allocations) / static_cast<double>(completed);
  const bool pooled = per_invocation <= kBudget;
  std::printf("[alloc] travel: budget %.1f allocations/invocation (0.65 x unpooled %.1f)\n",
              kBudget, kUnpooledAllocsPerInvocation);
  std::printf("[alloc] travel: %.1f allocations/invocation | %s\n", per_invocation,
              pooled ? "pooled" : "over-budget");
  EXPECT_TRUE(pooled) << per_invocation << " allocations/invocation exceed the budget of "
                      << kBudget;
}

// Live heap per entry the store held for the KV gate's entries before they were sized by their
// bytes, measured with this test on that tree: a slot was its 80-byte table entry plus a key
// and a value string on the heap, a version a std::map node plus its id and value strings.
constexpr double kUnsizedBytesPerSlot = 185.1;
constexpr double kUnsizedBytesPerVersion = 377.5;

// The store's live heap per entry after `insert` adds `entries` of them.
template <typename Insert>
std::pair<double, double> HeldPerEntry(int entries, Insert insert) {
  const int64_t allocations = testing::LiveAllocations();
  const int64_t bytes = testing::LiveBytes();
  insert();
  return {static_cast<double>(testing::LiveAllocations() - allocations) / entries,
          static_cast<double>(testing::LiveBytes() - bytes) / entries};
}

TEST(AllocGateTest, KvEntriesAreOneExactSizeBlockEach) {
  constexpr int kSlots = 10000;
  constexpr int kObjects = 1000;
  constexpr int kVersionsPerObject = 10;
  constexpr int kVersions = kObjects * kVersionsPerObject;
  kvstore::KvState kv;
  char key[32];
  // 24-byte keys and 64-byte values, each value a temporary the store may keep or copy.
  const auto [slot_allocations, slot_bytes] = HeldPerEntry(kSlots, [&] {
    for (int i = 0; i < kSlots; ++i) {
      std::snprintf(key, sizeof(key), "movie:%018d", i);
      kv.Put(0, key, std::string(64, static_cast<char>('a' + i % 26)));
    }
  });
  // 16-hex-char version ids and 256-byte values, ten versions per object.
  const auto [version_allocations, version_bytes] = HeldPerEntry(kVersions, [&] {
    for (int v = 0; v < kVersionsPerObject; ++v) {
      for (int object = 0; object < kObjects; ++object) {
        std::snprintf(key, sizeof(key), "%016llx",
                      static_cast<unsigned long long>(object * 7919 + v) * 0x9E3779B97F4A7C15ULL);
        kv.PutVersioned(0, static_cast<kvstore::ObjectId>(object), key,
                        std::string(256, static_cast<char>('a' + v)));
      }
    }
  });
  ASSERT_EQ(kv.key_count(), static_cast<size_t>(kSlots));
  ASSERT_EQ(kv.versioned_object_count(), static_cast<size_t>(kObjects));

  // One block per entry; the tables' amortized share keeps each count well below two.
  const bool exact_size = slot_allocations < 1.5 && version_allocations < 1.5 &&
                          slot_bytes <= 0.8 * kUnsizedBytesPerSlot &&
                          version_bytes <= 0.8 * kUnsizedBytesPerVersion;
  std::printf("[kv] budget per slot %.1f B, per version %.1f B (0.8 x unsized %.1f / %.1f)\n",
              0.8 * kUnsizedBytesPerSlot, 0.8 * kUnsizedBytesPerVersion, kUnsizedBytesPerSlot,
              kUnsizedBytesPerVersion);
  std::printf(
      "[kv] slot: %.2f allocations, %.1f B; version: %.2f allocations, %.1f B | %s\n",
      slot_allocations, slot_bytes, version_allocations, version_bytes,
      exact_size ? "exact-size" : "over-budget");
  EXPECT_TRUE(exact_size);
}

}  // namespace
}  // namespace halfmoon
