// Node-grain failure sweeps over the durable cluster (DESIGN.md §13): kill + restart a
// whole node — the storage tier ("store": log + KV journals), the sequencer tier ("seq":
// log journal only), or a function node's soft state ("fn<i>") — at traced hit positions,
// replay the journals, and require every remaining invocation plus the consistency oracle
// to behave exactly as a crash-free run. Smoke-bounded for tier-1; HM_FAULTCHECK_FULL=1
// sweeps every traced position.

#include <string>

#include <gtest/gtest.h>

#include "src/faultcheck/explorer.h"
#include "src/faultcheck/schedule.h"
#include "src/faultcheck/workload.h"
#include "tests/faultcheck/sweep_mode.h"

namespace halfmoon {
namespace {

using core::ProtocolKind;
using faultcheck::Bounded;
using faultcheck::Explorer;
using faultcheck::ExplorerOptions;
using faultcheck::ExplorerReport;
using faultcheck::FaultPoint;
using faultcheck::PrintReport;
using faultcheck::Schedule;
using faultcheck::Workload;

const ProtocolKind kFaultTolerant[] = {
    ProtocolKind::kBoki,
    ProtocolKind::kHalfmoonRead,
    ProtocolKind::kHalfmoonWrite,
    ProtocolKind::kTransitional,
};

// Node kills ride on the depth-1 sweep (Explorer::Run always explores single crashes too,
// which under durable re-checks every crash site against the write-ahead ack gating).
// Depth-2 families are covered by explorer_test.cc and would triple the runtime here.
ExplorerOptions DurableKillOptions(ProtocolKind protocol) {
  ExplorerOptions options;
  options.protocol = protocol;
  options.durable = true;
  options.node_kills = true;
  options.kill_domains = {"store", "seq", "fn0", "fn1"};
  options.crash_pairs = false;
  options.crash_plus_peer = false;
  options.crash_plus_gc = false;
  return options;
}

void ExpectKillSweepPasses(const Workload& workload, ExplorerOptions options) {
  Explorer explorer(workload, options);
  ExplorerReport report = explorer.Run();
  PrintReport(workload.name + "/" + core::ProtocolName(options.protocol) + "/kills", report);
  EXPECT_GT(report.baseline_sites, 0);
  EXPECT_GT(report.explored_single, 0);
  EXPECT_GT(report.explored_kill, 0);
  EXPECT_GT(report.explored_gc_kill, 0);
  if (!report.AllPassed()) {
    FAIL() << report.failures.size() << " failing schedules, first: "
           << report.failures[0].schedule.ToString() << " -> " << report.failures[0].reason;
  }
}

class NodeKillSweepTest : public ::testing::TestWithParam<ProtocolKind> {};

INSTANTIATE_TEST_SUITE_P(Protocols, NodeKillSweepTest, ::testing::ValuesIn(kFaultTolerant),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           std::string name = core::ProtocolName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(NodeKillSweepTest, CounterSurvivesNodeKills) {
  ExpectKillSweepPasses(faultcheck::CounterWorkload(),
                        Bounded(DurableKillOptions(GetParam())));
}

TEST_P(NodeKillSweepTest, TransferSurvivesNodeKills) {
  ExpectKillSweepPasses(faultcheck::TransferWorkload(),
                        Bounded(DurableKillOptions(GetParam()), 3, 4, 4));
}

TEST_P(NodeKillSweepTest, WorkflowSurvivesNodeKills) {
  // Nested Invoke/InvokeAll: a storage kill can land between a child's ack and the parent's
  // post-invoke log step; replay must keep both sides' beliefs consistent.
  ExpectKillSweepPasses(faultcheck::WorkflowWorkload(),
                        Bounded(DurableKillOptions(GetParam()), 6, 8, 3));
}

TEST(NodeKillDeterminismTest, PrintedKillScheduleReplaysIdentically) {
  ExplorerOptions options = DurableKillOptions(ProtocolKind::kHalfmoonRead);
  Explorer explorer(faultcheck::CounterWorkload(), options);

  Explorer::RunOutcome baseline = explorer.RunSchedule(Schedule{}, /*record_trace=*/true);
  ASSERT_GT(baseline.trace.size(), 4u);

  Schedule schedule;
  schedule.points.push_back(FaultPoint::NodeKill("store", 3));
  std::string printed = schedule.ToString();
  EXPECT_EQ(printed, "kill[store]@3");
  auto reparsed = Schedule::Parse(printed);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, schedule);

  Explorer::RunOutcome direct = explorer.RunSchedule(schedule, /*record_trace=*/true);
  Explorer::RunOutcome replayed = explorer.RunSchedule(*reparsed, /*record_trace=*/true);
  EXPECT_TRUE(direct.verdict.ok) << direct.verdict.failure;
  EXPECT_EQ(direct.verdict.ok, replayed.verdict.ok);
  EXPECT_EQ(direct.trace, replayed.trace);
}

TEST(NodeKillDeterminismTest, KillPlusCrashComposes) {
  // A storage kill during the victim's retry: the crash loses an attempt, the kill then
  // wipes volatile state mid-recovery. The composed schedule must still pass the oracle.
  ExplorerOptions options = DurableKillOptions(ProtocolKind::kHalfmoonWrite);
  Explorer explorer(faultcheck::CounterWorkload(), options);

  Explorer::RunOutcome baseline = explorer.RunSchedule(Schedule{}, /*record_trace=*/true);
  ASSERT_GT(baseline.trace.size(), 2u);

  Schedule schedule;
  schedule.points.push_back(
      FaultPoint::Crash(baseline.trace[1].site, baseline.trace[1].occurrence));
  schedule.points.push_back(FaultPoint::NodeKill("store", 4));
  Explorer::RunOutcome outcome = explorer.RunSchedule(schedule);
  EXPECT_GE(outcome.crashes, 1);
  EXPECT_TRUE(outcome.verdict.ok) << outcome.verdict.failure;
}

TEST(NodeKillScheduleCodecTest, RoundTripsAndRejectsMalformedKills) {
  Schedule schedule;
  schedule.points.push_back(FaultPoint::NodeKill("seq", 7));
  schedule.points.push_back(FaultPoint::NodeKill("fn3", 0));
  std::string printed = schedule.ToString();
  EXPECT_EQ(printed, "kill[seq]@7 kill[fn3]@0");
  auto parsed = Schedule::Parse(printed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, schedule);

  EXPECT_FALSE(Schedule::Parse("kill[]@3").has_value());
  EXPECT_FALSE(Schedule::Parse("kill[store]@x").has_value());
  EXPECT_FALSE(Schedule::Parse("kill[store]3").has_value());
}

TEST(NodeKillGuardDeathTest, KillsRequireDurableCluster) {
  // A kill against a volatile cluster has no journal to replay from — arming one must abort
  // loudly instead of silently losing state.
  ExplorerOptions options = DurableKillOptions(ProtocolKind::kHalfmoonRead);
  options.durable = false;
  Explorer explorer(faultcheck::CounterWorkload(), options);
  Schedule schedule;
  schedule.points.push_back(FaultPoint::NodeKill("store", 0));
  EXPECT_DEATH(explorer.RunSchedule(schedule), "durable storage tier");
}

}  // namespace
}  // namespace halfmoon
