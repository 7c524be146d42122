// The second race condition of §4: duplicate (peer) instances of one invocation racing each
// other, resolved by logCondAppend (§5.1). Both instances must converge on identical state and
// the external effects must remain exactly-once.

#include <string>

#include <gtest/gtest.h>

#include "src/core/env.h"
#include "src/core/gc_service.h"
#include "tests/testing/test_world.h"

namespace halfmoon {
namespace {

using core::ProtocolKind;
using testing::TestWorld;
using testing::TestWorldOptions;

class PeerRaceTest : public ::testing::TestWithParam<ProtocolKind> {};

INSTANTIATE_TEST_SUITE_P(FaultTolerantProtocols, PeerRaceTest,
                         ::testing::Values(ProtocolKind::kBoki, ProtocolKind::kHalfmoonRead,
                                           ProtocolKind::kHalfmoonWrite),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           std::string name = core::ProtocolName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

void RegisterCounter(TestWorld& world) {
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

TEST_P(PeerRaceTest, DuplicateInstanceEveryInvocation) {
  TestWorldOptions options;
  options.protocol = GetParam();
  TestWorld world(options);
  RegisterCounter(world);
  world.cluster().failure_injector().SetDuplicateProbability(1.0);
  for (int i = 0; i < 4; ++i) world.Call("incr");
  world.cluster().failure_injector().SetDuplicateProbability(0.0);
  EXPECT_EQ(DecodeInt64(world.Call("read_counter")), 4);
  EXPECT_GE(world.runtime().stats().peer_instances, 4);
}

TEST_P(PeerRaceTest, PeersPlusCrashStorms) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    TestWorldOptions options;
    options.protocol = GetParam();
    options.seed = seed;
    TestWorld world(options);
    RegisterCounter(world);
    world.cluster().failure_injector().SetDuplicateProbability(0.7);
    world.cluster().failure_injector().SetCrashProbability(0.05);
    for (int i = 0; i < 4; ++i) world.Call("incr");
    world.cluster().failure_injector().SetDuplicateProbability(0.0);
    world.cluster().failure_injector().SetCrashProbability(0.0);
    EXPECT_EQ(DecodeInt64(world.Call("read_counter")), 4) << "seed " << seed;
  }
}

TEST_P(PeerRaceTest, RoundsLandingAfterTheirWorkflowDrainedAreRefused) {
  // A batch round departs, its submitter crashes at batch.depart, the retry finishes the
  // work and the workflow drains, retiring its step logs, while the round is still in
  // flight. When the round lands it names a retired tag: the log must refuse that request
  // (no seqnum, no frame) instead of aborting. GC scans every 20 µs of simulated time keep
  // the rest of the log collecting under the race.
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    TestWorldOptions options;
    options.protocol = GetParam();
    options.seed = seed;
    TestWorld world(options);
    RegisterCounter(world);
    core::GcService gc(&world.cluster(), Seconds(10));
    world.cluster().failure_injector().SetDuplicateProbability(0.7);
    world.cluster().failure_injector().SetCrashProbability(0.05);
    for (int i = 0; i < 4; ++i) {
      bool done = false;
      world.CallAsync("incr", Value{}, nullptr, &done);
      while (!world.scheduler().empty()) {
        world.scheduler().RunUntil(world.scheduler().Now() + Microseconds(20));
        gc.RunOnce();
      }
      ASSERT_TRUE(done) << "seed " << seed;
    }
    world.cluster().failure_injector().SetDuplicateProbability(0.0);
    world.cluster().failure_injector().SetCrashProbability(0.0);
    ASSERT_EQ(DecodeInt64(world.Call("read_counter")), 4) << "seed " << seed;
  }
}

TEST_P(PeerRaceTest, PeersAgreeOnInvokeResults) {
  // The invoke-pre record pins the callee instance ID: even when peers race, only one callee
  // instance (ID) may exist, and all peers must return the same workflow result.
  TestWorldOptions options;
  options.protocol = GetParam();
  TestWorld world(options);
  world.runtime().PopulateObject("acc", EncodeInt64(0));
  world.Register("add", [](core::SsfContext& ctx) -> sim::Task<Value> {
    Value v = co_await ctx.Read("acc");
    int64_t n = DecodeInt64(v) + 1;
    co_await ctx.Write("acc", EncodeInt64(n));
    co_return EncodeInt64(n);
  });
  world.Register("parent", [](core::SsfContext& ctx) -> sim::Task<Value> {
    Value a = co_await ctx.Invoke("add", "");
    Value b = co_await ctx.Invoke("add", "");
    co_return a + "," + b;
  });
  world.Register("read_acc", [](core::SsfContext& ctx) -> sim::Task<Value> {
    co_return co_await ctx.Read("acc");
  });
  world.cluster().failure_injector().SetDuplicateProbability(0.9);
  Value result = world.Call("parent");
  world.cluster().failure_injector().SetDuplicateProbability(0.0);
  EXPECT_EQ(result, "1,2");
  EXPECT_EQ(DecodeInt64(world.Call("read_acc")), 2);
}

TEST(CondAppendConflictTest, StatsRecordLostRaces) {
  TestWorldOptions options;
  options.protocol = ProtocolKind::kHalfmoonWrite;
  TestWorld world(options);
  RegisterCounter(world);
  world.cluster().failure_injector().SetDuplicateProbability(1.0);
  for (int i = 0; i < 8; ++i) world.Call("incr");
  int64_t conflicts = 0;
  for (int n = 0; n < world.cluster().node_count(); ++n) {
    conflicts += world.cluster().node(n).log().stats().cond_append_conflicts;
  }
  // With a peer per invocation racing through the same step log, at least one conditional
  // append must have lost.
  EXPECT_GT(conflicts, 0);
}

}  // namespace
}  // namespace halfmoon
