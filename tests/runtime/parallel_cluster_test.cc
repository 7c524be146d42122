// Cross-mode and cross-run pins for the shard-parallel cluster (DESIGN.md §10).
//
// Contracts:
//   1. Content equivalence across modes: the same seed through parallel = false (one shared
//      single-threaded scheduler) and parallel = true (one OS thread per partition under the
//      conservative engine) commits the same records in the same per-tag order — pinned by
//      the FNV content checksum, and by equal event counts and virtual end times (both modes
//      run the same events at the same timestamps; only wall-clock interleaving differs).
//   2. Cross-run determinism in parallel mode: real threads race for real, so repeated runs
//      must agree bit-for-bit (checksum, events, end time) — the engine's determinism claim.
//   3. Degeneration: partitions=1 parallel mode runs today's scheduler loop exactly.
//
// The "[parallel]" lines are grepped by scripts/check.sh the same way the "[shards]" lines
// of sharded_equivalence_test are: any MISMATCH (or missing match) fails the smoke.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/value.h"
#include "src/runtime/parallel_cluster.h"
#include "src/sharedlog/log_record.h"
#include "src/sim/task.h"

namespace halfmoon::runtime {
namespace {

struct RunResult {
  uint64_t checksum = 0;
  uint64_t events = 0;
  SimTime end = 0;
  int64_t appends = 0;
  int64_t remote = 0;
  uint64_t windows = 0;
  uint64_t messages = 0;
  int64_t max_inflight = 0;
};

// One client's load: `ops` appends, every `remote_every`-th shipped to the next partition
// (cross-thread in parallel mode). Tag ids live in the OWNER's registry, pre-interned by
// BuildLoad so the coroutine never touches a foreign registry at run time.
sim::Task<void> ClientLoad(ParallelCluster* pc, int p, int client, int ops, int remote_every,
                           std::vector<std::vector<sharedlog::TagId>> tags) {
  for (int op = 0; op < ops; ++op) {
    int owner = p;
    if (pc->partitions() > 1 && op % remote_every == 0) {
      owner = (p + 1) % pc->partitions();
    }
    FieldMap fields;
    fields.SetStr("op", "bench-append");
    fields.SetInt("step", op);
    fields.SetInt("src", p * 100 + client);
    std::vector<sharedlog::TagId> record_tags = {
        tags[static_cast<size_t>(owner)][static_cast<size_t>(p)]};
    co_await pc->Append(p, client, owner, std::move(record_tags), std::move(fields));
  }
}

// Group-commit shape of a run. kDeepPipeline queues several appends per batcher in small
// rounds, so the adaptive controller opens pipeline slots and rounds overlap (DESIGN.md §12).
struct Pipelining {
  int depth = 1;
  int batch_max = 64;
  int loads_per_client = 1;
};
constexpr Pipelining kDeepPipeline{.depth = 4, .batch_max = 2, .loads_per_client = 4};

RunResult RunWorkload(int partitions, bool parallel, uint64_t seed, int ops_per_client = 40,
                      int remote_every = 4, bool durable = false, Pipelining pipelining = {}) {
  ParallelClusterConfig config;
  config.partitions = partitions;
  config.parallel = parallel;
  config.clients_per_partition = 2;
  config.seed = seed;
  config.durable = durable;
  config.append_batch_pipeline = pipelining.depth;
  config.append_batch_max = pipelining.batch_max;
  ParallelCluster pc(config);

  // tags[owner][src] = the stream on `owner` fed by partition `src`. Interned before Run, as
  // the threading contract requires.
  std::vector<std::vector<sharedlog::TagId>> tags(static_cast<size_t>(partitions));
  for (int owner = 0; owner < partitions; ++owner) {
    for (int src = 0; src < partitions; ++src) {
      tags[static_cast<size_t>(owner)].push_back(
          pc.InternTag(owner, "p" + std::to_string(owner) + "/from" + std::to_string(src)));
    }
  }
  for (int p = 0; p < partitions; ++p) {
    for (int c = 0; c < config.clients_per_partition; ++c) {
      for (int load = 0; load < pipelining.loads_per_client; ++load) {
        pc.Spawn(p, ClientLoad(&pc, p, c, ops_per_client, remote_every, tags));
      }
    }
  }

  RunResult result;
  result.end = pc.Run();
  result.checksum = pc.ContentChecksum();
  result.events = pc.TotalEventsProcessed();
  result.appends = pc.TotalLogAppends();
  result.remote = pc.remote_appends();
  result.windows = pc.windows();
  result.messages = pc.messages_routed();
  result.max_inflight = pc.AggregateClientStats().pipeline_max_inflight;

  // Sanity on the aggregation fold: every append recorded exactly one end-to-end latency.
  EXPECT_EQ(pc.MergedAppendLatency().count(), static_cast<size_t>(result.appends));
  return result;
}

TEST(ParallelClusterTest, ModesCommitIdenticalContent) {
  // The cross-mode pin: single-threaded and parallel mode with the same seed commit the same
  // records in the same per-tag order, run the same events, and end at the same virtual time.
  RunResult single = RunWorkload(/*partitions=*/4, /*parallel=*/false, /*seed=*/7);
  RunResult parallel = RunWorkload(/*partitions=*/4, /*parallel=*/true, /*seed=*/7);
  EXPECT_EQ(parallel.checksum, single.checksum);
  EXPECT_EQ(parallel.events, single.events);
  EXPECT_EQ(parallel.end, single.end);
  EXPECT_EQ(parallel.appends, single.appends);
  EXPECT_EQ(parallel.remote, single.remote);
  EXPECT_GT(parallel.remote, 0) << "the workload must actually cross partitions";
  EXPECT_GT(parallel.windows, 0u);
  EXPECT_EQ(parallel.messages, 2u * static_cast<uint64_t>(parallel.remote))
      << "each remote append is one request and one reply message";
  std::printf("[parallel] seed=7 parts=4 mode0=%016llx mode1=%016llx %s\n",
              static_cast<unsigned long long>(single.checksum),
              static_cast<unsigned long long>(parallel.checksum),
              single.checksum == parallel.checksum ? "match" : "MISMATCH");
}

TEST(ParallelClusterTest, ParallelRunsAreDeterministic) {
  // Cross-run: repeated parallel runs must agree bit-for-bit despite OS thread racing.
  RunResult reference = RunWorkload(4, true, /*seed=*/11);
  for (int run = 0; run < 3; ++run) {
    RunResult repeat = RunWorkload(4, true, /*seed=*/11);
    EXPECT_EQ(repeat.checksum, reference.checksum) << "run " << run;
    EXPECT_EQ(repeat.events, reference.events) << "run " << run;
    EXPECT_EQ(repeat.end, reference.end) << "run " << run;
    EXPECT_EQ(repeat.windows, reference.windows) << "run " << run;
  }
  std::printf("[parallel] seed=11 parts=4 cross-run checksum=%016llx match\n",
              static_cast<unsigned long long>(reference.checksum));
}

TEST(ParallelClusterTest, SeedsProduceDistinctContent) {
  // Negative control: the checksum is not a constant — different seeds, different content.
  EXPECT_NE(RunWorkload(2, true, 7).checksum, RunWorkload(2, true, 8).checksum);
}

TEST(ParallelClusterTest, SinglePartitionDegeneratesExactly) {
  // partitions=1: parallel mode spawns no threads and must be today's scheduler bit for bit.
  RunResult single = RunWorkload(1, false, /*seed=*/3);
  RunResult parallel = RunWorkload(1, false, /*seed=*/3);
  RunResult degenerate = RunWorkload(1, true, /*seed=*/3);
  EXPECT_EQ(single.checksum, parallel.checksum);  // Same-mode reproducibility first.
  EXPECT_EQ(degenerate.checksum, single.checksum);
  EXPECT_EQ(degenerate.events, single.events);
  EXPECT_EQ(degenerate.end, single.end);
  EXPECT_EQ(degenerate.windows, 0u) << "1 partition must not pay for barriers";
  EXPECT_EQ(degenerate.remote, 0);
}

TEST(ParallelClusterTest, TwoPartitionHandoff) {
  // Smallest cross-thread topology, heavier remote share (every 2nd append crosses): the
  // conservative handoff must neither deadlock nor reorder per-tag streams across modes.
  RunResult single = RunWorkload(2, false, /*seed=*/21, /*ops_per_client=*/30, /*remote_every=*/2);
  RunResult parallel = RunWorkload(2, true, /*seed=*/21, /*ops_per_client=*/30, /*remote_every=*/2);
  EXPECT_EQ(parallel.checksum, single.checksum);
  EXPECT_EQ(parallel.events, single.events);
  EXPECT_EQ(parallel.end, single.end);
  // 2 partitions x 2 clients x 15 remote ops each (every even op of 30 crosses).
  EXPECT_EQ(parallel.remote, 2 * 2 * 15);
}

TEST(ParallelClusterTest, DurableModesCommitIdenticalContent) {
  // The durable tier must not break the cross-mode pin: per-partition journals and their
  // flush events are partition-local timestamped events, identical under both engines.
  RunResult single = RunWorkload(4, /*parallel=*/false, /*seed=*/7, 40, 4, /*durable=*/true);
  RunResult parallel = RunWorkload(4, /*parallel=*/true, /*seed=*/7, 40, 4, /*durable=*/true);
  EXPECT_EQ(parallel.checksum, single.checksum);
  EXPECT_EQ(parallel.events, single.events);
  EXPECT_EQ(parallel.end, single.end);
  EXPECT_EQ(parallel.appends, single.appends);
  EXPECT_GT(parallel.remote, 0);
  std::printf("[parallel] seed=7 parts=4 durable mode0=%016llx mode1=%016llx %s\n",
              static_cast<unsigned long long>(single.checksum),
              static_cast<unsigned long long>(parallel.checksum),
              single.checksum == parallel.checksum ? "match" : "MISMATCH");
}

TEST(ParallelClusterTest, DurableParallelRunsAreDeterministic) {
  RunResult reference = RunWorkload(4, true, /*seed=*/11, 40, 4, /*durable=*/true);
  for (int run = 0; run < 2; ++run) {
    RunResult repeat = RunWorkload(4, true, /*seed=*/11, 40, 4, /*durable=*/true);
    EXPECT_EQ(repeat.checksum, reference.checksum) << "run " << run;
    EXPECT_EQ(repeat.events, reference.events) << "run " << run;
    EXPECT_EQ(repeat.end, reference.end) << "run " << run;
  }
}

TEST(ParallelClusterTest, PipelinedModesCommitIdenticalContent) {
  // Depth-4 group commit: overlapping sequencer rounds per batcher alongside the worker
  // threads. The cross-mode pin must hold exactly as at depth 1.
  RunResult single = RunWorkload(4, /*parallel=*/false, /*seed=*/7, 40, 4, false, kDeepPipeline);
  RunResult parallel = RunWorkload(4, /*parallel=*/true, /*seed=*/7, 40, 4, false, kDeepPipeline);
  EXPECT_EQ(parallel.checksum, single.checksum);
  EXPECT_EQ(parallel.events, single.events);
  EXPECT_EQ(parallel.end, single.end);
  EXPECT_GT(parallel.remote, 0);
  EXPECT_GT(parallel.max_inflight, 1) << "depth 4 must actually overlap rounds";
  std::printf("[parallel] seed=7 parts=4 pipeline=4 mode0=%016llx mode1=%016llx %s\n",
              static_cast<unsigned long long>(single.checksum),
              static_cast<unsigned long long>(parallel.checksum),
              single.checksum == parallel.checksum ? "match" : "MISMATCH");
}

TEST(ParallelClusterTest, PipelinedParallelRunsAreDeterministic) {
  RunResult reference = RunWorkload(2, true, /*seed=*/11, 40, 4, false, kDeepPipeline);
  EXPECT_GT(reference.max_inflight, 1);
  for (int run = 0; run < 3; ++run) {
    RunResult repeat = RunWorkload(2, true, /*seed=*/11, 40, 4, false, kDeepPipeline);
    EXPECT_EQ(repeat.checksum, reference.checksum) << "run " << run;
    EXPECT_EQ(repeat.events, reference.events) << "run " << run;
    EXPECT_EQ(repeat.end, reference.end) << "run " << run;
    EXPECT_EQ(repeat.windows, reference.windows) << "run " << run;
  }
  std::printf("[parallel] seed=11 parts=2 pipeline=4 cross-run checksum=%016llx match\n",
              static_cast<unsigned long long>(reference.checksum));
}

TEST(ParallelClusterTest, DurableGatingDelaysAcksButKeepsContent) {
  // Write-ahead acks cost time (flush-ordered before the reply leg) but never change what
  // commits; volatile mode constructs no storage machinery at all.
  ParallelClusterConfig config;
  config.partitions = 2;
  config.parallel = false;
  config.durable = false;
  ParallelCluster volatile_pc(config);
  EXPECT_EQ(volatile_pc.partition(0).durability(), nullptr);

  RunResult plain = RunWorkload(2, false, /*seed=*/5);
  RunResult durable = RunWorkload(2, false, /*seed=*/5, 40, 4, /*durable=*/true);
  EXPECT_EQ(durable.appends, plain.appends);
  EXPECT_GT(durable.end, plain.end);  // The flush gate is on the ack path.
}

TEST(ParallelClusterTest, EveryPartitionJournalsItsOwnShard) {
  ParallelClusterConfig config;
  config.partitions = 3;
  config.parallel = false;
  config.durable = true;
  config.seed = 9;
  ParallelCluster pc(config);
  std::vector<sharedlog::TagId> tags;
  for (int p = 0; p < 3; ++p) tags.push_back(pc.InternTag(p, "t" + std::to_string(p)));
  for (int p = 0; p < 3; ++p) {
    pc.Spawn(p, [](ParallelCluster* pc, int p, sharedlog::TagId tag) -> sim::Task<void> {
      FieldMap fields;
      fields.SetStr("op", "bench-append");
      fields.SetInt("step", 0);
      co_await pc->Append(p, 0, p, std::vector<sharedlog::TagId>(1, tag), std::move(fields));
    }(&pc, p, tags[static_cast<size_t>(p)]));
  }
  pc.Run();
  for (int p = 0; p < 3; ++p) {
    ASSERT_NE(pc.partition(p).durability(), nullptr);
    EXPECT_GT(pc.partition(p).durability()->stats().flushes, 0) << "partition " << p;
    EXPECT_EQ(pc.partition(p).durability()->durable_offset(),
              pc.partition(p).durability()->tail_offset())
        << "partition " << p;  // Quiescence: everything acked is flushed.
  }
}

TEST(ParallelClusterTest, CheckpointCompactsEveryPartitionAndRestartsFromTheImage) {
  // Per-partition checkpointing (DESIGN.md §14): each partition checkpoints its own shard
  // between drains, truncates its own journal, and a whole-node restart rebuilds identical
  // content from image + (empty) replay-suffix — the cut sits at the quiescent durable tail.
  ParallelClusterConfig config;
  config.partitions = 3;
  config.parallel = false;
  config.durable = true;
  config.checkpoint = true;
  config.seed = 13;
  ParallelCluster pc(config);
  std::vector<sharedlog::TagId> tags;
  for (int p = 0; p < 3; ++p) tags.push_back(pc.InternTag(p, "t" + std::to_string(p)));
  for (int p = 0; p < 3; ++p) {
    pc.Spawn(p, [](ParallelCluster* pc, int p, sharedlog::TagId tag) -> sim::Task<void> {
      for (int i = 0; i < 8; ++i) {
        FieldMap fields;
        fields.SetStr("op", "ckpt-append");
        fields.SetInt("step", i);
        co_await pc->Append(p, 0, p, std::vector<sharedlog::TagId>(1, tag), std::move(fields));
      }
    }(&pc, p, tags[static_cast<size_t>(p)]));
  }
  pc.Run();

  uint64_t before = pc.ContentChecksum();
  for (int p = 0; p < 3; ++p) {
    ASSERT_NE(pc.partition(p).checkpoint_store(), nullptr) << "partition " << p;
    pc.partition(p).CheckpointNow();
    EXPECT_GT(pc.partition(p).durability()->retained_offset(), 0u) << "partition " << p;
  }
  for (int p = 0; p < 3; ++p) {
    sharedlog::LogRecoveryStats stats = pc.partition(p).RestartFromJournal();
    EXPECT_TRUE(stats.used_checkpoint) << "partition " << p;
    EXPECT_GT(stats.image_frames, 0) << "partition " << p;
    EXPECT_EQ(stats.suffix_frames, 0) << "partition " << p;  // Cut == quiescent durable tail.
  }
  EXPECT_EQ(pc.ContentChecksum(), before);
}

TEST(ParallelClusterDeathTest, CheckpointWithoutDurableAborts) {
  // The checkpoint tier compacts the durable journal; asking for it without one is a
  // configuration error, not a silent downgrade to the volatile engine.
  ParallelClusterConfig config;
  config.partitions = 1;
  config.checkpoint = true;
  EXPECT_DEATH(ParallelCluster pc(config), "checkpoint = true needs durable = true");
}

TEST(ParallelClusterDeathTest, NonPositiveAppendBatchMaxAborts) {
  for (int max : {0, -1}) {
    ParallelClusterConfig config;
    config.partitions = 1;
    config.append_batch_max = max;
    EXPECT_DEATH(ParallelCluster pc(config), "append_batch_max must be >= 1") << max;
  }
}

TEST(ParallelClusterDeathTest, NonPositiveAppendBatchPipelineAborts) {
  // Depth 0 or below would otherwise run silently at depth 1.
  for (int depth : {0, -1}) {
    ParallelClusterConfig config;
    config.partitions = 1;
    config.append_batch_pipeline = depth;
    EXPECT_DEATH(ParallelCluster pc(config), "append_batch_pipeline must be >= 1") << depth;
  }
}

TEST(ParallelClusterDeathTest, ZeroCapacityFieldsAbortNamingTheField) {
  // A station with no servers never serves, and a partition without clients cannot proxy the
  // remote calls routed to it; either way the run would drain with work still pending.
  struct Case {
    const char* field;
    int ParallelClusterConfig::*member;
  };
  for (const Case& c :
       {Case{"sequencer_servers", &ParallelClusterConfig::sequencer_servers},
        Case{"storage_servers", &ParallelClusterConfig::storage_servers},
        Case{"clients_per_partition", &ParallelClusterConfig::clients_per_partition}}) {
    ParallelClusterConfig config;
    config.partitions = 1;
    config.*c.member = 0;
    EXPECT_DEATH(ParallelCluster pc(config), std::string(c.field) + " must be >= 1") << c.field;
  }
}

}  // namespace
}  // namespace halfmoon::runtime
