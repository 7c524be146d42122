// Crash-restart recovery at the cluster grain (DESIGN.md §13): a node kill wipes every
// volatile structure, and journal replay must rebuild the shared log's tag indices and the
// KV store's version index to exactly the acknowledged state. Replay is also idempotent —
// replaying the same durable prefix twice yields bit-identical state (the recovery-
// idempotence satellite of this PR) — pinned here by an FNV-1a content checksum.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/value.h"
#include "src/core/gc_service.h"
#include "src/core/ssf_runtime.h"
#include "src/kvstore/kv_state.h"
#include "src/runtime/cluster.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/sharded_log.h"
#include "src/sim/task.h"
#include "tests/testing/state_checksum.h"

namespace halfmoon::runtime {
namespace {

using kvstore::VersionTuple;
using sharedlog::LogRecordPtr;
using sharedlog::SeqNum;
using sharedlog::TagId;
using halfmoon::testing::StateChecksum;

ClusterConfig DurableConfig() {
  ClusterConfig config;
  config.function_nodes = 2;
  config.workers_per_node = 4;
  config.durable = true;
  return config;
}

FieldMap Fields(const std::string& op, int64_t step) {
  FieldMap f;
  f.SetStr("op", op);
  f.SetInt("step", step);
  return f;
}

// Appends a few records under two tags and writes the KV store through the clients — the
// acknowledged state every recovery below must reproduce.
sim::Task<void> PopulateWorkload(Cluster* cluster) {
  sharedlog::LogClient& log = cluster->node(0).log();
  kvstore::KvClient& kv = cluster->node(0).kv();
  for (int i = 0; i < 4; ++i) {
    co_await log.Append(std::vector<std::string>(1, "k:a"), Fields("write", i));
    co_await log.Append(std::vector<std::string>(1, "k:b"), Fields("write", i));
  }
  co_await kv.Put("a", "va");
  co_await kv.CondPut("b", "vb", VersionTuple{3, 1});
  co_await kv.PutVersioned(1, "v1", "payload-1");
  co_await kv.PutVersioned(1, "v2", "payload-2");
  co_await kv.DeleteVersioned(1, "v1");
}

const std::vector<std::string> kKvKeys = {"a", "b"};
const std::vector<TagId> kObjects = {1};

TEST(RecoveryTest, StorageKillRebuildsLogAndKvExactly) {
  Cluster cluster(DurableConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster));
  cluster.scheduler().Run();

  ASSERT_NE(cluster.log_durability(), nullptr);
  ASSERT_NE(cluster.kv_durability(), nullptr);
  // At quiescence everything acknowledged has been flushed.
  EXPECT_EQ(cluster.log_durability()->durable_offset(),
            cluster.log_durability()->tail_offset());

  uint64_t before = StateChecksum(cluster, kKvKeys, kObjects);
  size_t live_before = cluster.log_space().live_records();
  cluster.KillRestartStorage();
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), before);
  EXPECT_EQ(cluster.log_space().live_records(), live_before);
  EXPECT_EQ(cluster.kv_state().Get("a"), std::optional<Value>("va"));
  EXPECT_EQ(cluster.kv_state().VersionCount(1), 1u);  // v1 deleted, v2 live.
  EXPECT_GT(cluster.log_durability()->stats().kills, 0);
}

TEST(RecoveryTest, ReplayIsIdempotent) {
  // The recovery-idempotence satellite: killing and replaying the same durable prefix twice
  // must land on bit-identical tag indices and KV version index.
  Cluster cluster(DurableConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster));
  cluster.scheduler().Run();

  cluster.KillRestartStorage();
  uint64_t first = StateChecksum(cluster, kKvKeys, kObjects);
  cluster.KillRestartStorage();
  uint64_t second = StateChecksum(cluster, kKvKeys, kObjects);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cluster.log_durability()->stats().kills, 2);
}

TEST(RecoveryTest, SequencerKillSparesTheKvJournal) {
  Cluster cluster(DurableConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster));
  cluster.scheduler().Run();

  uint64_t before = StateChecksum(cluster, kKvKeys, kObjects);
  cluster.KillRestartSequencer();
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), before);
  EXPECT_EQ(cluster.log_durability()->stats().kills, 1);
  EXPECT_EQ(cluster.kv_durability()->stats().kills, 0);  // Separate devices, separate fate.
}

TEST(RecoveryTest, ClusterKeepsWorkingAcrossAMidRunKill) {
  // Appends before and after a kill that lands between acknowledged operations: nothing
  // acknowledged is lost, the allocator resumes from the durable watermark, and the final
  // stream holds every record in order.
  Cluster cluster(DurableConfig());
  std::vector<SeqNum> acked;
  cluster.scheduler().Spawn([](Cluster* cluster, std::vector<SeqNum>* acked) -> sim::Task<void> {
    sharedlog::LogClient& log = cluster->node(0).log();
    for (int i = 0; i < 3; ++i) {
      acked->push_back(co_await log.Append(std::vector<std::string>(1, "k:a"), Fields("pre", i)));
    }
    cluster->KillRestartStorage();  // Quiescent instant: acks imply durability.
    for (int i = 0; i < 3; ++i) {
      acked->push_back(
          co_await log.Append(std::vector<std::string>(1, "k:a"), Fields("post", i)));
    }
  }(&cluster, &acked));
  cluster.scheduler().Run();

  ASSERT_EQ(acked.size(), 6u);
  std::vector<LogRecordPtr> stream =
      cluster.log_space().ReadStreamUpTo("k:a", sharedlog::kMaxSeqNum);
  ASSERT_EQ(stream.size(), 6u);
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i]->seqnum, acked[i]);
    EXPECT_EQ(stream[i]->fields.GetStr("op"), i < 3 ? "pre" : "post");
  }
}

TEST(RecoveryTest, FunctionNodeKillOnlyDropsSoftState) {
  Cluster cluster(DurableConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster));
  cluster.scheduler().Run();

  uint64_t before = StateChecksum(cluster, kKvKeys, kObjects);
  cluster.KillRestartFunctionNode(0);
  EXPECT_EQ(cluster.node(0).log().indexed_upto(), 0u);
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), before);
  // The index replica recovers by reading (sync-on-miss), so reads still work.
  LogRecordPtr latest;
  cluster.scheduler().Spawn(
      [](Cluster* cluster, LogRecordPtr* out) -> sim::Task<void> {
        *out = co_await cluster->node(0).log().ReadPrev("k:a", sharedlog::kMaxSeqNum);
      }(&cluster, &latest));
  cluster.scheduler().Run();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->fields.GetInt("step"), 3);
}

void RegisterWriter(core::SsfRuntime& runtime) {
  runtime.RegisterFunction("w", [](core::SsfContext& ctx) -> sim::Task<Value> {
    co_await ctx.Write("x", ctx.input());
    co_return "";
  });
}

// Runs HM-read roots "w#<first>".."w#<first+n-1>", each writing one object, to completion.
void RunWriters(Cluster& cluster, core::SsfRuntime& runtime, int first, int n) {
  for (int i = first; i < first + n; ++i) {
    cluster.scheduler().Spawn([](core::SsfRuntime* runtime, int i) -> sim::Task<void> {
      co_await runtime->InvokeSsf("w", "v" + std::to_string(i));
    }(&runtime, i));
    cluster.scheduler().Run();
  }
}

TEST(RecoveryTest, StepLogRetirementsLostToAStorageKillAreReissued) {
  // A workflow's step log retires the moment it drains, and a storage kill then destroys
  // the kRetire frame before it flushes. The records come back with the replayed journal;
  // recovery must retire them again rather than leave them live for good (the drain that
  // retired them never runs again).
  core::RuntimeConfig rcfg;
  rcfg.default_protocol = core::ProtocolKind::kHalfmoonRead;

  // Reference: the same run with no kill.
  Cluster reference(DurableConfig());
  core::SsfRuntime reference_runtime(&reference, rcfg);
  RegisterWriter(reference_runtime);
  RunWriters(reference, reference_runtime, 0, 4);
  core::GcService reference_gc(&reference, Seconds(10));
  reference_gc.RunOnce();
  reference.scheduler().Run();

  Cluster cluster(DurableConfig());
  core::SsfRuntime runtime(&cluster, rcfg);
  RegisterWriter(runtime);
  RunWriters(cluster, runtime, 0, 3);
  // The fourth root drains and, at that same instant, storage dies: its retirement's frame
  // is still in the journal's volatile tail.
  bool frame_in_tail = false;
  cluster.scheduler().Spawn(
      [](Cluster* cluster, core::SsfRuntime* runtime, bool* frame_in_tail) -> sim::Task<void> {
        co_await runtime->InvokeSsf("w", "v3");
        const storage::DurabilityService* journal = cluster->log_durability();
        *frame_in_tail = journal->tail_offset() > journal->durable_offset();
        cluster->KillRestartStorage();
      }(&cluster, &runtime, &frame_in_tail));
  cluster.scheduler().Run();
  ASSERT_TRUE(frame_in_tail);
  EXPECT_EQ(runtime.stats().step_logs_retired, 4);
  // Recovery re-issued the lost retirement: w#3 is closed again, its frame pending.
  EXPECT_EQ(cluster.log_space().pending_retirements(), 1u);
  EXPECT_TRUE(cluster.log_space().tags().Closed(cluster.log_space().tags().Find("w#3")));

  core::GcService gc(&cluster, Seconds(10));
  gc.RunOnce();
  cluster.scheduler().Run();
  gc.RunOnce();
  EXPECT_EQ(cluster.log_space().pending_retirements(), 0u);
  EXPECT_EQ(cluster.log_space().live_records(), reference.log_space().live_records());
  for (int i = 0; i < 4; ++i) {
    std::string instance = "w#" + std::to_string(i);
    EXPECT_EQ(cluster.log_space().tags().Find(instance), sharedlog::kInvalidTagId) << instance;
  }
}

TEST(RecoveryTest, VolatileModeHasNoDurabilityMachinery) {
  ClusterConfig config = DurableConfig();
  config.durable = false;
  Cluster cluster(config);
  EXPECT_EQ(cluster.log_durability(), nullptr);
  EXPECT_EQ(cluster.kv_durability(), nullptr);
  EXPECT_EQ(cluster.DurableTrimBound(), sharedlog::kMaxSeqNum);
}

}  // namespace
}  // namespace halfmoon::runtime
