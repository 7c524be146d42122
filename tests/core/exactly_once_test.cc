// Exactly-once property tests (§1, §2).
//
// Strategy: run a workload once with the failure injector in counting mode to enumerate every
// crash site it passes through, then re-run the *same* workload once per site with a scheduled
// crash exactly there. No matter where the SSF dies — between a DB write and its log record,
// after a callee returns but before the result is logged, ... — the retried execution must
// leave the external state exactly as a single crash-free execution would.
//
// The unsafe baseline is the negative control: the same sweep must produce at least one
// anomalous state, proving the harness can actually detect duplicate updates.

#include <array>
#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/core/env.h"
#include "tests/testing/test_world.h"

namespace halfmoon {
namespace {

using core::ProtocolKind;
using testing::TestWorld;
using testing::TestWorldOptions;

constexpr int kIncrements = 3;

void RegisterCounterWorkload(TestWorld& world) {
  world.runtime().PopulateObject("counter", EncodeInt64(0));
  world.Register("incr", [](core::SsfContext& ctx) -> sim::Task<Value> {
    Value v = co_await ctx.Read("counter");
    int64_t n = DecodeInt64(v);
    co_await ctx.Compute();
    co_await ctx.Write("counter", EncodeInt64(n + 1));
    co_return EncodeInt64(n + 1);
  });
  world.Register("read_counter", [](core::SsfContext& ctx) -> sim::Task<Value> {
    co_return co_await ctx.Read("counter");
  });
}

// Runs kIncrements serial increments, then reads the counter with injection disabled.
int64_t RunCounterWorkload(TestWorld& world, int64_t* sites_after_increments = nullptr) {
  for (int i = 0; i < kIncrements; ++i) {
    world.Call("incr");
  }
  if (sites_after_increments != nullptr) {
    *sites_after_increments = world.cluster().failure_injector().site_hits();
  }
  world.cluster().failure_injector().SetCrashProbability(0.0);
  world.cluster().failure_injector().CrashAtSiteHits({});
  return DecodeInt64(world.Call("read_counter"));
}

// Counts the crash sites a crash-free run of the increment phase passes through (the final
// verification read runs with injection disabled, so its sites are excluded).
int64_t CountCrashSites(ProtocolKind kind) {
  TestWorldOptions options;
  options.protocol = kind;
  TestWorld world(options);
  RegisterCounterWorkload(world);
  int64_t sites = 0;
  RunCounterWorkload(world, &sites);
  return sites;
}

class ExactlyOnceTest : public ::testing::TestWithParam<ProtocolKind> {};

INSTANTIATE_TEST_SUITE_P(FaultTolerantProtocols, ExactlyOnceTest,
                         ::testing::Values(ProtocolKind::kBoki, ProtocolKind::kHalfmoonRead,
                                           ProtocolKind::kHalfmoonWrite),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           std::string name = core::ProtocolName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(ExactlyOnceTest, CounterSurvivesCrashAtEverySite) {
  const int64_t sites = CountCrashSites(GetParam());
  ASSERT_GT(sites, 0);
  for (int64_t k = 0; k < sites; ++k) {
    TestWorldOptions options;
    options.protocol = GetParam();
    TestWorld world(options);
    RegisterCounterWorkload(world);
    world.cluster().failure_injector().CrashAtSiteHits({k});
    int64_t final_count = RunCounterWorkload(world);
    EXPECT_EQ(final_count, kIncrements)
        << "crash at site " << k << " of " << sites << " broke exactly-once";
    EXPECT_GE(world.runtime().stats().crashes, 1) << "site " << k << " never crashed";
  }
}

TEST_P(ExactlyOnceTest, CounterSurvivesCrashPairsAtEverySecondSite) {
  // Double faults: the retry itself crashes again at a later site.
  const int64_t sites = CountCrashSites(GetParam());
  for (int64_t k = 0; k < sites; k += 2) {
    TestWorldOptions options;
    options.protocol = GetParam();
    TestWorld world(options);
    RegisterCounterWorkload(world);
    world.cluster().failure_injector().CrashAtSiteHits({k, k + 3});
    int64_t final_count = RunCounterWorkload(world);
    EXPECT_EQ(final_count, kIncrements) << "crash pair {" << k << "," << k + 3 << "} broke "
                                        << "exactly-once";
  }
}

TEST_P(ExactlyOnceTest, CounterSurvivesRandomCrashStorms) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    TestWorldOptions options;
    options.protocol = GetParam();
    options.seed = seed;
    TestWorld world(options);
    RegisterCounterWorkload(world);
    world.cluster().failure_injector().SetCrashProbability(0.08);
    int64_t final_count = RunCounterWorkload(world);
    EXPECT_EQ(final_count, kIncrements) << "seed " << seed;
  }
}

TEST_P(ExactlyOnceTest, BranchingLogicReplaysDeterministically) {
  // Reads steer control flow (§2: "writes and the branching of SSF logic may arbitrarily
  // depend on read results"). After a crash the retry must take the same branch, not leave
  // effects on both branches.
  const ProtocolKind kind = GetParam();
  auto register_brancher = [](TestWorld& world) {
    world.runtime().PopulateObject("selector", "a");
    world.runtime().PopulateObject("out-a", EncodeInt64(0));
    world.runtime().PopulateObject("out-b", EncodeInt64(0));
    world.Register("branch", [](core::SsfContext& ctx) -> sim::Task<Value> {
      Value sel = co_await ctx.Read("selector");
      // Flip the selector, then bump the branch matching the *previous* value.
      co_await ctx.Write("selector", sel == "a" ? "b" : "a");
      std::string out = sel == "a" ? "out-a" : "out-b";
      Value v = co_await ctx.Read(out);
      co_await ctx.Write(out, EncodeInt64(DecodeInt64(v) + 1));
      co_return sel;
    });
    world.Register("read2", [](core::SsfContext& ctx) -> sim::Task<Value> {
      Value a = co_await ctx.Read("out-a");
      Value b = co_await ctx.Read("out-b");
      co_return a + "," + b;
    });
  };

  // Count sites.
  int64_t sites;
  {
    TestWorldOptions options;
    options.protocol = kind;
    TestWorld world(options);
    register_brancher(world);
    world.Call("branch");
    world.Call("branch");
    sites = world.cluster().failure_injector().site_hits();
  }
  for (int64_t k = 0; k < sites; ++k) {
    TestWorldOptions options;
    options.protocol = kind;
    TestWorld world(options);
    register_brancher(world);
    world.cluster().failure_injector().CrashAtSiteHits({k});
    world.Call("branch");
    world.Call("branch");
    world.cluster().failure_injector().CrashAtSiteHits({});
    // Two alternating invocations: each branch bumped exactly once.
    EXPECT_EQ(world.Call("read2"), "1,1") << "crash at site " << k;
  }
}

TEST_P(ExactlyOnceTest, WorkflowWithInvokeSurvivesCrashSweep) {
  // A two-level workflow: the parent invokes "add" twice. Crashes around the invoke logs
  // (after the callee ran, before the result was logged, ...) must not double-apply the
  // callee's effects.
  const ProtocolKind kind = GetParam();
  auto register_workflow = [](TestWorld& world) {
    world.runtime().PopulateObject("acc", EncodeInt64(0));
    world.Register("add", [](core::SsfContext& ctx) -> sim::Task<Value> {
      Value v = co_await ctx.Read("acc");
      int64_t n = DecodeInt64(v) + DecodeInt64(ctx.input());
      co_await ctx.Write("acc", EncodeInt64(n));
      co_return EncodeInt64(n);
    });
    world.Register("parent", [](core::SsfContext& ctx) -> sim::Task<Value> {
      co_await ctx.Invoke("add", EncodeInt64(1));
      Value r = co_await ctx.Invoke("add", EncodeInt64(10));
      co_return r;
    });
    world.Register("read_acc", [](core::SsfContext& ctx) -> sim::Task<Value> {
      co_return co_await ctx.Read("acc");
    });
  };

  int64_t sites;
  {
    TestWorldOptions options;
    options.protocol = kind;
    TestWorld world(options);
    register_workflow(world);
    world.Call("parent");
    sites = world.cluster().failure_injector().site_hits();
  }
  ASSERT_GT(sites, 0);
  for (int64_t k = 0; k < sites; ++k) {
    TestWorldOptions options;
    options.protocol = kind;
    TestWorld world(options);
    register_workflow(world);
    world.cluster().failure_injector().CrashAtSiteHits({k});
    Value result = world.Call("parent");
    world.cluster().failure_injector().CrashAtSiteHits({});
    EXPECT_EQ(DecodeInt64(result), 11) << "crash at site " << k;
    EXPECT_EQ(DecodeInt64(world.Call("read_acc")), 11) << "crash at site " << k;
  }
}

// ---- Byte attribution under replay ----

TEST(AppendClassTest, ReplayedStepLeavesNoClassOnTheNextControlAppend) {
  // Under Halfmoon-write a read is a logged step (its protocol's byte class). A crash at
  // "invoke.before" kills the parent after that record; the retry replays the read, which
  // appends nothing, then appends the invoke-pre control record. That record must land in
  // class 0: every class then holds exactly the bytes of a crash-free run.
  auto run = [](bool crash) {
    TestWorldOptions options;
    options.protocol = ProtocolKind::kHalfmoonWrite;
    TestWorld world(options);
    world.runtime().PopulateObject("x", "seed");
    world.Register("child", [](core::SsfContext&) -> sim::Task<Value> { co_return "c"; });
    world.Register("parent", [](core::SsfContext& ctx) -> sim::Task<Value> {
      Value v = co_await ctx.Read("x");
      Value c = co_await ctx.Invoke("child", "");
      co_return v + c;
    });
    if (crash) world.cluster().failure_injector().CrashAtSite("invoke.before", 0);
    EXPECT_EQ(world.Call("parent"), "seedc");
    EXPECT_EQ(world.runtime().stats().crashes, crash ? 1 : 0);
    std::array<int64_t, sharedlog::LogClientStats::kAppendClasses> bytes{};
    for (int cls = 0; cls < sharedlog::LogClientStats::kAppendClasses; ++cls) {
      bytes[cls] = world.cluster().TotalLoggedBytesByClass(cls);
    }
    return bytes;
  };
  const auto clean = run(false);
  const auto replayed = run(true);
  EXPECT_GT(clean[0], 0);
  EXPECT_GT(clean[core::LogAppendClass(ProtocolKind::kHalfmoonWrite)], 0);
  for (int cls = 0; cls < sharedlog::LogClientStats::kAppendClasses; ++cls) {
    EXPECT_EQ(replayed[cls], clean[cls]) << "append class " << cls;
  }
}

// ---- Negative control ----

TEST(UnsafeAnomalyTest, CrashSweepProducesDuplicateUpdates) {
  int64_t sites;
  {
    TestWorldOptions options;
    options.protocol = ProtocolKind::kUnsafe;
    TestWorld world(options);
    RegisterCounterWorkload(world);
    RunCounterWorkload(world);
    sites = world.cluster().failure_injector().site_hits();
  }
  ASSERT_GT(sites, 0);
  int anomalies = 0;
  for (int64_t k = 0; k < sites; ++k) {
    TestWorldOptions options;
    options.protocol = ProtocolKind::kUnsafe;
    TestWorld world(options);
    RegisterCounterWorkload(world);
    world.cluster().failure_injector().CrashAtSiteHits({k});
    if (RunCounterWorkload(world) != kIncrements) ++anomalies;
  }
  // Retrying after a crash that followed the DB write duplicates the increment: the harness
  // must observe that at least once, or it could not be trusted to validate the protocols.
  EXPECT_GT(anomalies, 0);
}

}  // namespace
}  // namespace halfmoon
