// Durability contracts of the append engine (DESIGN.md §7.5, §13) under whole-node kills.
//
// * Kill sweep: a storage kill at any instant of a workflow's life either lands between
//   acknowledged operations or loses appends still waiting for their journal frame. An
//   append lost that way from inside an SSF attempt — control records (init, invoke-pre,
//   invoke) included — must abort the attempt into the retry loop, so every instant ends
//   with the fault-free result. Swept for every fault-tolerant protocol, with group commit
//   on and off.
// * Replica watchdog: an appender's own index replica may only claim durable seqnums, even
//   when other nodes commit records while it waits for its frames (cluster.h's write-ahead
//   contract for index propagation).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/env.h"
#include "src/core/ssf_runtime.h"
#include "src/runtime/cluster.h"
#include "src/runtime/failure_injector.h"
#include "src/sharedlog/log_client.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/sharded_log.h"
#include "src/sim/task.h"

namespace halfmoon {
namespace {

using core::ProtocolKind;
using runtime::Cluster;
using runtime::ClusterConfig;

// Kill instants: every 25 µs from f's start until its fault-free run returns, and at least
// over the first 12 ms (481 instants).
constexpr SimDuration kKillStep = Microseconds(25);
constexpr SimDuration kMinKillHorizon = Milliseconds(12);

struct WorkflowOutcome {
  bool done = false;
  Value result;  // What the root returned.
  Value state;   // "x,y" as read back after the run.
  SimTime finished = 0;  // When f returned, relative to its start.
};

// Runs `name` to completion; sets *done and the completion time *finished.
sim::Task<void> CallInto(Cluster* cluster, core::SsfRuntime* runtime, std::string name,
                         Value* out, bool* done, SimTime* finished) {
  *out = co_await runtime->InvokeSsf(std::move(name), Value{});
  *done = true;
  *finished = cluster->scheduler().Now();
}

// Root `f` reads x, invokes `g` (which writes y), then writes x; returns g's result. With
// `kill_at` set, the storage tier is killed and restarted that long after `f` starts.
WorkflowOutcome RunWorkflow(ProtocolKind protocol, bool group_commit, const SimTime* kill_at) {
  ClusterConfig ccfg;
  ccfg.seed = 1;
  ccfg.function_nodes = 2;
  ccfg.durable = true;
  ccfg.group_commit_appends = group_commit;
  Cluster cluster(ccfg);
  core::RuntimeConfig rcfg;
  rcfg.default_protocol = protocol;
  core::SsfRuntime runtime(&cluster, rcfg);
  runtime.PopulateObject("x", "x0");
  runtime.PopulateObject("y", "y0");
  runtime.RegisterFunction("f", [](core::SsfContext& ctx) -> sim::Task<Value> {
    Value x = co_await ctx.Read("x");
    Value r = co_await ctx.Invoke("g", x);
    co_await ctx.Write("x", x + "+" + r);
    co_return r;
  });
  runtime.RegisterFunction("g", [](core::SsfContext& ctx) -> sim::Task<Value> {
    co_await ctx.Write("y", ctx.input() + "y");
    co_return "g(" + ctx.input() + ")";
  });
  runtime.RegisterFunction("read_xy", [](core::SsfContext& ctx) -> sim::Task<Value> {
    Value x = co_await ctx.Read("x");
    Value y = co_await ctx.Read("y");
    co_return x + "," + y;
  });

  // Let the seeded state reach the journals first: the sweep targets the workflow's appends.
  cluster.scheduler().Run();
  const SimTime start = cluster.scheduler().Now();

  WorkflowOutcome outcome;
  if (kill_at != nullptr) {
    cluster.scheduler().PostAt(start + *kill_at, [&cluster] { cluster.KillRestartStorage(); });
  }
  cluster.scheduler().Spawn(
      CallInto(&cluster, &runtime, "f", &outcome.result, &outcome.done, &outcome.finished));
  cluster.scheduler().Run();
  if (!outcome.done) return outcome;
  outcome.finished -= start;
  bool read_done = false;
  SimTime read_finished = 0;
  cluster.scheduler().Spawn(
      CallInto(&cluster, &runtime, "read_xy", &outcome.state, &read_done, &read_finished));
  cluster.scheduler().Run();
  if (!read_done) outcome.done = false;
  return outcome;
}

struct KillSweepCase {
  ProtocolKind protocol;
  bool group_commit;
};

class AppendKillSweepTest : public ::testing::TestWithParam<KillSweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    Protocols, AppendKillSweepTest,
    ::testing::Values(KillSweepCase{ProtocolKind::kBoki, true},
                      KillSweepCase{ProtocolKind::kBoki, false},
                      KillSweepCase{ProtocolKind::kHalfmoonRead, true},
                      KillSweepCase{ProtocolKind::kHalfmoonRead, false},
                      KillSweepCase{ProtocolKind::kHalfmoonWrite, true},
                      KillSweepCase{ProtocolKind::kHalfmoonWrite, false},
                      KillSweepCase{ProtocolKind::kTransitional, true},
                      KillSweepCase{ProtocolKind::kTransitional, false}),
    [](const ::testing::TestParamInfo<KillSweepCase>& info) {
      std::string name = core::ProtocolName(info.param.protocol);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (info.param.group_commit ? "_Batched" : "_Unbatched");
    });

TEST_P(AppendKillSweepTest, EveryKillInstantEndsWithTheFaultFreeResult) {
  const KillSweepCase param = GetParam();
  WorkflowOutcome reference = RunWorkflow(param.protocol, param.group_commit, nullptr);
  ASSERT_TRUE(reference.done);
  ASSERT_EQ(reference.result, "g(x0)");
  ASSERT_EQ(reference.state, "x0+g(x0),x0y");
  const SimTime horizon = std::max<SimTime>(kMinKillHorizon, reference.finished);
  int instants = 0;
  for (SimTime t = 0; t <= horizon; t += kKillStep) {
    WorkflowOutcome outcome = RunWorkflow(param.protocol, param.group_commit, &t);
    ++instants;
    ASSERT_TRUE(outcome.done) << "kill at " << t << " ns: the workflow never completed";
    EXPECT_EQ(outcome.result, reference.result) << "kill at " << t << " ns";
    EXPECT_EQ(outcome.state, reference.state) << "kill at " << t << " ns";
  }
  EXPECT_GE(instants, 481);
}

// ---- Fault scope of a lost append ----

struct LostAppendOutcome {
  bool threw = false;
  bool lost = false;  // Committed, then rolled back by the kill: ok with no record view.
};

sim::Task<void> StampedCondAppend(Cluster* cluster, bool in_attempt, LostAppendOutcome* out) {
  sharedlog::LogClient& log = cluster->node(0).log();
  FieldMap fields;
  fields.SetStr("op", "w");
  fields.SetInt("step", 0);
  const sharedlog::TagId tag = log.tags().Intern("s");
  try {
    if (in_attempt) log.set_append_in_attempt();
    sharedlog::CondAppendResult r =
        co_await log.CondAppend(sharedlog::OneTag(tag), std::move(fields), tag, 0);
    out->lost = r.ok && r.record == nullptr;
  } catch (const runtime::SsfCrashed& crash) {
    EXPECT_EQ(crash.site, "log.append.durability");
    out->threw = true;
  }
}

TEST(DurableAppendTest, LostAppendAbortsOnlyInsideAnAttempt) {
  // A storage kill at every 5 µs of one cond-append's life. An unstamped append (a detached
  // service) whose frame the kill lost resumes with no record view; the same append stamped
  // as in-attempt aborts through the crash thrower at exactly those instants. The class
  // stamp (0 here) plays no part.
  for (bool group_commit : {true, false}) {
    int lost_instants = 0;
    for (SimTime t = 0; t <= Milliseconds(3); t += Microseconds(5)) {
      LostAppendOutcome outcomes[2];
      for (bool in_attempt : {false, true}) {
        ClusterConfig config;
        config.function_nodes = 1;
        config.durable = true;
        config.group_commit_appends = group_commit;
        Cluster cluster(config);
        cluster.scheduler().PostAt(t, [&cluster] { cluster.KillRestartStorage(); });
        cluster.scheduler().Spawn(StampedCondAppend(&cluster, in_attempt, &outcomes[in_attempt]));
        cluster.scheduler().Run();
      }
      EXPECT_FALSE(outcomes[0].threw) << t;
      EXPECT_EQ(outcomes[1].threw, outcomes[0].lost) << t;
      EXPECT_FALSE(outcomes[1].lost) << t;
      if (outcomes[0].lost) ++lost_instants;
    }
    EXPECT_GT(lost_instants, 0) << "group_commit=" << group_commit;
  }
}

// ---- Replica watchdog ----

sim::Task<void> AppendPairThenSignal(Cluster* cluster, int* pending) {
  std::vector<sharedlog::ShardedLog::BatchEntry> batch(2);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].tags = sharedlog::OneTag(cluster->log_space().tags().Intern("w0"));
    batch[i].fields.SetStr("op", "w");
    batch[i].fields.SetInt("step", static_cast<int64_t>(i));
  }
  co_await cluster->node(0).log().AppendBatch(std::move(batch));
  --*pending;
}

sim::Task<void> AppendAfter(Cluster* cluster, SimDuration delay, int* pending) {
  co_await cluster->scheduler().Delay(delay);
  FieldMap fields;
  fields.SetStr("op", "w");
  fields.SetInt("step", 0);
  co_await cluster->node(1).log().Append(sharedlog::OneTag("w1"), std::move(fields));
  --*pending;
}

// Checks every 10 µs, until both appends returned, that no node's index replica claims a
// seqnum past the durable frontier; sets *fired on the first violation.
sim::Task<void> ReplicaWatchdog(Cluster* cluster, const int* pending, bool* fired) {
  while (*pending > 0) {
    for (int i = 0; i < cluster->node_count(); ++i) {
      if (cluster->node(i).log().indexed_upto() > cluster->log_durability()->durable_seq()) {
        *fired = true;
      }
    }
    co_await cluster->scheduler().Delay(Microseconds(10));
  }
}

TEST(DurableAppendTest, UnbatchedReplicaClaimsOnlyDurableSeqnums) {
  // Node 0 appends a two-entry batch; node 1 appends one record 0–3 ms later, so its record
  // can commit while node 0 waits for its frames. Node 0's replica must learn only its own
  // seqnums with the reply, never node 1's not-yet-durable one.
  int runs = 0;
  std::vector<std::string> fired_runs;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (SimDuration delay = 0; delay <= Milliseconds(3); delay += Microseconds(100)) {
      ClusterConfig config;
      config.seed = seed;
      config.function_nodes = 2;
      config.durable = true;
      config.group_commit_appends = false;
      Cluster cluster(config);
      int pending = 2;
      bool fired = false;
      cluster.scheduler().Spawn(AppendPairThenSignal(&cluster, &pending));
      cluster.scheduler().Spawn(AppendAfter(&cluster, delay, &pending));
      cluster.scheduler().Spawn(ReplicaWatchdog(&cluster, &pending, &fired));
      cluster.scheduler().Run();
      ASSERT_EQ(pending, 0);
      ++runs;
      if (fired) {
        fired_runs.push_back("seed " + std::to_string(seed) + " delay " +
                             std::to_string(delay) + " ns");
      }
    }
  }
  EXPECT_EQ(runs, 620);
  EXPECT_EQ(fired_runs.size(), 0u) << "first: " << (fired_runs.empty() ? "" : fired_runs[0]);
}

}  // namespace
}  // namespace halfmoon
