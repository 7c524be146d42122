// Allocation gate: heap allocations per SSF invocation on a short, seeded, volatile travel
// load under Halfmoon-read. The binary replaces the global operator new (counting_new.cc), so
// it counts every allocation the simulator makes, pool refills included.
//
// The budget is 65% of what the same load cost before coroutine frames were pooled and
// records built at their exact size (DESIGN.md §7.7). A regression back to a heap round-trip
// per frame or per record field lands far above it. scripts/check.sh requires the '| pooled'
// line this test prints.

#include <cstdint>
#include <cstdio>

#include <gtest/gtest.h>

#include "src/core/ssf_runtime.h"
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

}  // namespace
}  // namespace halfmoon
