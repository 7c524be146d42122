// Property tests for the sliding-window count-min workload sketch (DESIGN.md §11):
// never-undercount, bounded overcount, two-epoch decay, merge additivity, and — the advisor's
// headline memory contract — a footprint that is a pure function of the configured geometry,
// independent of how many distinct objects the stream touches.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/metrics/workload_sketch.h"

namespace halfmoon::metrics {
namespace {

// Deterministic splitmix64 stream for key/count generation (fixed seeds; no global RNG).
uint64_t Next(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(WorkloadSketchTest, NeverUndercountsAndStaysWithinErrorBound) {
  WorkloadSketchConfig config;
  config.width = 1024;
  config.depth = 4;
  WorkloadSketch sketch(config);

  // 4096 distinct objects with skewed true counts, far more than the width — collisions are
  // guaranteed, so this exercises the min-over-rows estimate, not a collision-free fast path.
  const int kObjects = 4096;
  uint64_t state = 42;
  std::vector<uint64_t> ids(kObjects);
  std::vector<uint32_t> true_reads(kObjects);
  std::vector<uint32_t> true_writes(kObjects);
  int64_t total = 0;
  for (int i = 0; i < kObjects; ++i) {
    ids[i] = Next(state);
    true_reads[i] = static_cast<uint32_t>(Next(state) % 8);
    true_writes[i] = static_cast<uint32_t>(Next(state) % 4);
    total += true_reads[i] + true_writes[i];
    for (uint32_t r = 0; r < true_reads[i]; ++r) sketch.RecordRead(ids[i]);
    for (uint32_t w = 0; w < true_writes[i]; ++w) sketch.RecordWrite(ids[i]);
  }
  EXPECT_EQ(sketch.WindowReads() + sketch.WindowWrites(), total);

  // Count-min guarantee: estimate in [true, true + eps * N] with eps = e / width holding with
  // overwhelming probability across depth rows; for this fixed seed it must hold everywhere.
  const uint64_t budget =
      static_cast<uint64_t>(2.72 * static_cast<double>(total) / config.width) + 1;
  for (int i = 0; i < kObjects; ++i) {
    const uint64_t reads = sketch.EstimateReads(ids[i]);
    const uint64_t writes = sketch.EstimateWrites(ids[i]);
    ASSERT_GE(reads, true_reads[i]) << "undercount at object " << i;
    ASSERT_GE(writes, true_writes[i]) << "undercount at object " << i;
    ASSERT_LE(reads, true_reads[i] + budget) << "overcount beyond eps*N at object " << i;
    ASSERT_LE(writes, true_writes[i] + budget) << "overcount beyond eps*N at object " << i;
  }
}

TEST(WorkloadSketchTest, SlidingWindowDecaysAfterTwoEpochs) {
  WorkloadSketch sketch(WorkloadSketchConfig{});
  const uint64_t id = 0xdeadbeefull;
  for (int i = 0; i < 10; ++i) sketch.RecordRead(id);
  for (int i = 0; i < 4; ++i) sketch.RecordWrite(id);
  EXPECT_GE(sketch.EstimateReads(id), 10);
  EXPECT_GE(sketch.EstimateWrites(id), 4);

  // One rotation: the counts move to the previous epoch and stay visible (window = cur+prev).
  sketch.AdvanceEpoch();
  EXPECT_GE(sketch.EstimateReads(id), 10);
  EXPECT_EQ(sketch.WindowReads(), 10);

  // Second rotation: the old epoch ages out entirely.
  sketch.AdvanceEpoch();
  EXPECT_EQ(sketch.EstimateReads(id), 0);
  EXPECT_EQ(sketch.EstimateWrites(id), 0);
  EXPECT_EQ(sketch.WindowReads(), 0);
  EXPECT_EQ(sketch.WindowWrites(), 0);
  EXPECT_EQ(sketch.epochs_advanced(), 2u);
}

TEST(WorkloadSketchTest, MemoryIsIndependentOfLiveObjectCount) {
  WorkloadSketchConfig config;
  config.width = 512;
  config.depth = 4;
  WorkloadSketch sketch(config);
  const size_t before = sketch.MemoryBytes();
  EXPECT_GT(before, 0u);

  // A million-object stream must not grow the sketch: the footprint is fixed at
  // construction — 2 epochs x depth x width counters per direction plus the row seeds.
  uint64_t state = 99;
  for (int i = 0; i < 1'000'000; ++i) {
    sketch.RecordRead(Next(state));
  }
  EXPECT_EQ(sketch.MemoryBytes(), before);
  EXPECT_EQ(sketch.MemoryBytes(), WorkloadSketch(config).MemoryBytes());

  // The bound is the configured geometry exactly: 4 counter planes (reads/writes x cur/prev).
  const size_t counters = 4ull * config.depth * config.width * sizeof(uint32_t);
  EXPECT_EQ(before, counters + config.depth * sizeof(uint64_t));
}

TEST(WorkloadSketchTest, EpochRotationIsAllocationFree) {
  // AdvanceEpoch swaps and clears in place; geometry (and therefore MemoryBytes) is stable
  // across any number of rotations.
  WorkloadSketch sketch(WorkloadSketchConfig{});
  const size_t before = sketch.MemoryBytes();
  for (int i = 0; i < 100; ++i) {
    sketch.RecordWrite(static_cast<uint64_t>(i));
    sketch.AdvanceEpoch();
  }
  EXPECT_EQ(sketch.MemoryBytes(), before);
}

}  // namespace
}  // namespace halfmoon::metrics
