#include "src/runtime/cluster.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/sim/sync.h"

namespace halfmoon::runtime {
namespace {

// Built outside coroutine argument lists (GCC 12 miscompiles braced-init-list args there).
FieldMap OpFields(const std::string& op) {
  FieldMap f;
  f.SetStr("op", op);
  f.SetInt("step", 0);
  return f;
}

TEST(ClusterTest, BuildsConfiguredTopology) {
  ClusterConfig config;
  config.function_nodes = 8;
  Cluster cluster(config);
  EXPECT_EQ(cluster.node_count(), 8);
  EXPECT_EQ(cluster.scheduler().Now(), 0);
}

TEST(ClusterDeathTest, CheckpointWithoutDurableAborts) {
  // The checkpoint tier compacts the durable journal; asking for it without one is a
  // configuration error, not a silent downgrade to the volatile engine.
  ClusterConfig config;
  config.checkpoint = true;
  EXPECT_DEATH(Cluster cluster(config), "checkpoint = true needs durable = true");
}

TEST(ClusterDeathTest, NonPositiveAppendBatchMaxAborts) {
  // A zero cap would dispatch empty rounds forever; a negative one would wrap in the size_t
  // cast to an effectively unbounded cap.
  for (int max : {0, -1}) {
    ClusterConfig config;
    config.append_batch_max = max;
    EXPECT_DEATH(Cluster cluster(config), "append_batch_max must be >= 1") << max;
  }
}

TEST(ClusterDeathTest, NonPositiveAppendBatchPipelineAborts) {
  // Depth 0 or below would otherwise run silently at depth 1.
  for (int depth : {0, -1}) {
    ClusterConfig config;
    config.append_batch_pipeline = depth;
    EXPECT_DEATH(Cluster cluster(config), "append_batch_pipeline must be >= 1") << depth;
  }
}

TEST(ClusterDeathTest, NegativeAppendBatchWindowAborts) {
  // The batch controller doubles a widened window; a negative one would double until it
  // overflowed.
  ClusterConfig config;
  config.append_batch_pipeline = 4;
  config.append_batch_window = -1;
  EXPECT_DEATH(Cluster cluster(config), "append_batch_window must be >= 0");
}

TEST(ClusterDeathTest, LogShardsOutOfRangeAbortsNamingTheField) {
  // Checked before the log is built, whose own checks do not name the config field.
  for (int shards : {0, -1, 257}) {
    ClusterConfig config;
    config.log_shards = shards;
    EXPECT_DEATH(Cluster cluster(config), "log_shards must be in \\[1, 256\\]") << shards;
  }
}

TEST(ClusterDeathTest, NonPositiveCheckpointSliceAborts) {
  // A slice that walks nothing never finishes a checkpoint round: the daemon would livelock
  // writing empty slices and the scheduler would never drain.
  for (int64_t slice : {int64_t{0}, int64_t{-1}}) {
    ClusterConfig config;
    config.durable = true;
    config.checkpoint = true;
    config.checkpoint_slice = slice;
    EXPECT_DEATH(Cluster cluster(config), "checkpoint_slice must be >= 1") << slice;
  }
}

TEST(ClusterDeathTest, ZeroCapacityFieldsAbortNamingTheField) {
  // A station with no servers (or a node with no worker slots) never serves: without the
  // check the first invocation waits forever and the scheduler drains with it still pending.
  struct Case {
    const char* field;
    int ClusterConfig::*member;
  };
  for (const Case& c : {Case{"function_nodes", &ClusterConfig::function_nodes},
                        Case{"db_servers", &ClusterConfig::db_servers},
                        Case{"workers_per_node", &ClusterConfig::workers_per_node},
                        Case{"sequencer_servers", &ClusterConfig::sequencer_servers},
                        Case{"storage_servers", &ClusterConfig::storage_servers}}) {
    ClusterConfig config;
    config.*c.member = 0;
    EXPECT_DEATH(Cluster cluster(config), std::string(c.field) + " must be >= 1") << c.field;
  }
}

TEST(ClusterTest, PickNodeRoundRobins) {
  ClusterConfig config;
  config.function_nodes = 3;
  Cluster cluster(config);
  EXPECT_EQ(cluster.PickNode().id(), 0);
  EXPECT_EQ(cluster.PickNode().id(), 1);
  EXPECT_EQ(cluster.PickNode().id(), 2);
  EXPECT_EQ(cluster.PickNode().id(), 0);
}

TEST(ClusterTest, IndexPropagationReachesAllNodes) {
  ClusterConfig config;
  config.function_nodes = 4;
  Cluster cluster(config);
  cluster.scheduler().Spawn([](Cluster* c) -> sim::Task<void> {
    co_await c->node(0).log().Append(sharedlog::OneTag("t"), OpFields("x"));
  }(&cluster));
  cluster.scheduler().Run();
  sharedlog::SeqNum committed = cluster.log_space().next_seqnum() - 1;
  for (int i = 0; i < cluster.node_count(); ++i) {
    EXPECT_GE(cluster.node(i).log().indexed_upto(), committed) << "node " << i;
  }
}

TEST(ClusterTest, RunningFrontierTracksInitStream) {
  Cluster cluster(ClusterConfig{});
  // Empty init stream: the frontier is the next seqnum.
  EXPECT_EQ(cluster.RunningFrontier(), cluster.log_space().next_seqnum());

  FieldMap init1;
  init1.SetStr("op", "init");
  init1.SetInt("step", 0);
  init1.SetStr("instance", "A");
  sharedlog::SeqNum a = cluster.log_space().Append(
      0, sharedlog::TwoTags("A", sharedlog::InitLogTag()), std::move(init1));

  FieldMap init2;
  init2.SetStr("op", "init");
  init2.SetInt("step", 0);
  init2.SetStr("instance", "B");
  sharedlog::SeqNum b = cluster.log_space().Append(
      0, sharedlog::TwoTags("B", sharedlog::InitLogTag()), std::move(init2));

  // The frontier is maintained incrementally: the runtime reports each root's init seqnum
  // once its Init lands, so the cluster never rescans the init stream.
  cluster.AddRunningRoot(a);
  cluster.AddRunningRoot(b);

  // Both running: the frontier stops at A's init.
  EXPECT_EQ(cluster.RunningFrontier(), a);
  cluster.RemoveRunningRoot(a);
  // A finished, B still running: frontier moves to B's init.
  EXPECT_EQ(cluster.RunningFrontier(), b);
  cluster.RemoveRunningRoot(b);
  EXPECT_EQ(cluster.RunningFrontier(), cluster.log_space().next_seqnum());
}

TEST(ClusterTest, DeterministicForFixedSeed) {
  auto run = [](uint64_t seed) {
    ClusterConfig config;
    config.seed = seed;
    Cluster cluster(config);
    SimTime finish = 0;
    cluster.scheduler().Spawn([](Cluster* c, SimTime* out) -> sim::Task<void> {
      for (int i = 0; i < 20; ++i) {
        co_await c->node(0).log().Append(sharedlog::OneTag("t"), OpFields("x"));
      }
      *out = c->scheduler().Now();
    }(&cluster, &finish));
    cluster.scheduler().Run();
    return finish;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FailureInjectorTest, ScheduledHitsFireExactlyOnce) {
  FailureInjector injector;
  Rng rng(1);
  injector.CrashAtSiteHits({2});
  EXPECT_FALSE(injector.ShouldCrash(rng, "s0"));
  EXPECT_FALSE(injector.ShouldCrash(rng, "s1"));
  EXPECT_TRUE(injector.ShouldCrash(rng, "s2"));
  EXPECT_FALSE(injector.ShouldCrash(rng, "s3"));
  EXPECT_EQ(injector.site_hits(), 4);
}

TEST(FailureInjectorTest, ProbabilityZeroNeverCrashes) {
  FailureInjector injector;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.ShouldCrash(rng, "s"));
  }
}

TEST(FailureInjectorTest, ProbabilityOneAlwaysCrashes) {
  FailureInjector injector;
  injector.SetCrashProbability(1.0);
  Rng rng(1);
  EXPECT_TRUE(injector.ShouldCrash(rng, "s"));
}

TEST(FailureInjectorTest, DuplicateProbabilityIsIndependentOfCrashes) {
  FailureInjector injector;
  injector.SetDuplicateProbability(1.0);
  Rng rng(1);
  EXPECT_TRUE(injector.ShouldDuplicate(rng));
  EXPECT_FALSE(injector.ShouldCrash(rng, "s"));
}

}  // namespace
}  // namespace halfmoon::runtime
