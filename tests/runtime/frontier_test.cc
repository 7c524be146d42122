// The incremental GC/switch frontier and coalesced index propagation: the O(1) frontier must
// agree with a from-scratch init-stream scan under arbitrary interleavings of init, finish,
// and trim, the running-root set must empty as roots finish, and propagation coalescing must
// be observably identical to the per-commit reference mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/runtime/cluster.h"

namespace halfmoon::runtime {
namespace {

using sharedlog::SeqNum;
using sharedlog::TagId;

FieldMap InitFields(const std::string& instance) {
  FieldMap f;
  f.SetStr("op", "init");
  f.SetInt("step", 0);
  f.SetStr("instance", instance);
  return f;
}

FieldMap OpFields(const std::string& op) {
  FieldMap f;
  f.SetStr("op", op);
  f.SetInt("step", 0);
  return f;
}

// Appends a root's init record the way InitSsf does — tagged with the instance's step log
// and the global init stream — then reports it to the frontier as the runtime does.
SeqNum StartInstance(Cluster& cluster, const std::string& instance) {
  TagId step_tag = cluster.log_space().tags().Intern(instance);
  SeqNum seqnum = cluster.log_space().Append(
      0, sharedlog::TwoTags(step_tag, sharedlog::kInitTagId), InitFields(instance));
  cluster.AddRunningRoot(seqnum);
  return seqnum;
}

// Reference implementation of the frontier: scan the live init stream and take the earliest
// init record whose instance has not finished (the pre-incremental definition).
SeqNum FrontierByScan(Cluster& cluster, const std::unordered_set<std::string>& finished) {
  for (const auto& record : cluster.log_space().ReadStream(sharedlog::kInitTagId)) {
    if (finished.count(std::string(record->fields.GetStr("instance"))) == 0) return record->seqnum;
  }
  return cluster.log_space().next_seqnum();
}

TEST(FrontierTest, RandomizedIncrementalFrontierMatchesInitStreamScan) {
  Cluster cluster(ClusterConfig{});
  Rng rng(20260806);
  std::vector<std::pair<std::string, SeqNum>> running;
  std::unordered_set<std::string> finished;
  int next_instance = 0;

  for (int step = 0; step < 2000; ++step) {
    int64_t op = rng.UniformInt(0, 9);
    if (op < 5 || running.empty()) {
      std::string instance = "inst-" + std::to_string(next_instance++);
      SeqNum seqnum = StartInstance(cluster, instance);
      // A repeated report (a recovering attempt re-reads the same init record) is a no-op.
      cluster.AddRunningRoot(seqnum);
      running.emplace_back(std::move(instance), seqnum);
    } else if (op < 9) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(running.size()) - 1));
      cluster.RemoveRunningRoot(running[pick].second);
      finished.insert(running[pick].first);
      running.erase(running.begin() + static_cast<long>(pick));
    } else {
      // A GC pass: trim the init stream below the frontier.
      SeqNum frontier = cluster.RunningFrontier();
      cluster.log_space().Trim(0, sharedlog::kInitTagId, frontier - 1);
    }
    ASSERT_EQ(cluster.RunningFrontier(), FrontierByScan(cluster, finished)) << "step " << step;
  }
}

TEST(FrontierTest, TrackingEntriesStayBoundedUnderChurn) {
  // The frontier tracks running roots only: each finish removes its entry at once, with no
  // GC pass in between — never one entry per instance ever finished.
  Cluster cluster(ClusterConfig{});
  int next_instance = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    std::vector<SeqNum> inits;
    for (int i = 0; i < 10; ++i) {
      inits.push_back(StartInstance(cluster, "inst-" + std::to_string(next_instance++)));
    }
    for (size_t i = 0; i < inits.size(); ++i) {
      EXPECT_EQ(cluster.live_tracking_entries(), inits.size() - i);
      cluster.RemoveRunningRoot(inits[i]);
    }
    EXPECT_EQ(cluster.live_tracking_entries(), 0u);
    EXPECT_EQ(cluster.RunningFrontier(), cluster.log_space().next_seqnum());
  }
}

struct PropagationResult {
  SimTime end_time = 0;
  SeqNum next_seqnum = 0;
  std::vector<SeqNum> indexed_upto;
  std::vector<std::pair<int, SeqNum>> trace;  // (node, seqnum) in completion order.
  int64_t ticks = 0;
  int64_t commits = 0;
};

PropagationResult RunConcurrentAppends(uint64_t seed, bool coalesce) {
  ClusterConfig config;
  config.seed = seed;
  config.function_nodes = 4;
  config.coalesce_index_propagation = coalesce;
  Cluster cluster(config);

  PropagationResult result;
  for (int n = 0; n < cluster.node_count(); ++n) {
    cluster.scheduler().Spawn(
        [](Cluster* c, int node, PropagationResult* out) -> sim::Task<void> {
          for (int i = 0; i < 25; ++i) {
            FieldMap fields = OpFields("w");
            sharedlog::SeqNum s = co_await c->node(node).log().Append(
                sharedlog::OneTag("t" + std::to_string(node)), std::move(fields));
            out->trace.emplace_back(node, s);
          }
        }(&cluster, n, &result));
  }
  cluster.scheduler().Run();

  result.end_time = cluster.scheduler().Now();
  result.next_seqnum = cluster.log_space().next_seqnum();
  for (int n = 0; n < cluster.node_count(); ++n) {
    result.indexed_upto.push_back(cluster.node(n).log().indexed_upto());
  }
  result.ticks = cluster.index_propagation_ticks();
  result.commits = cluster.index_propagation_commits();
  return result;
}

TEST(FrontierTest, CoalescedPropagationIsObservablyIdenticalToReferenceMode) {
  PropagationResult coalesced = RunConcurrentAppends(42, /*coalesce=*/true);
  PropagationResult reference = RunConcurrentAppends(42, /*coalesce=*/false);

  // Same seed, either mode: same seqnum trace, same final index replicas, same virtual time.
  EXPECT_EQ(coalesced.trace, reference.trace);
  EXPECT_EQ(coalesced.indexed_upto, reference.indexed_upto);
  EXPECT_EQ(coalesced.next_seqnum, reference.next_seqnum);
  EXPECT_EQ(coalesced.end_time, reference.end_time);
  EXPECT_EQ(coalesced.commits, reference.commits);

  // The reference mode schedules one advance event per commit; coalescing must strictly
  // reduce wake-ups under concurrent appends while covering every commit.
  EXPECT_EQ(reference.ticks, reference.commits);
  EXPECT_LT(coalesced.ticks, coalesced.commits);
  EXPECT_GT(coalesced.ticks, 0);
}

TEST(FrontierTest, SameSeedClustersProduceIdenticalSeqnumTraces) {
  PropagationResult a = RunConcurrentAppends(7, /*coalesce=*/true);
  PropagationResult b = RunConcurrentAppends(7, /*coalesce=*/true);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.indexed_upto, b.indexed_upto);
}

}  // namespace
}  // namespace halfmoon::runtime
