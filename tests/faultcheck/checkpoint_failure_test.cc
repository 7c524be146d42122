// Checkpoint-round failure sweeps over the durable cluster (DESIGN.md §14): start a
// checkpoint round at traced hit positions and stress every way it can die — the daemon
// crashing inside the round (ckpt.write / ckpt.install / ckpt.truncate) and whole-node
// kills landing mid-round or right after it — then require every remaining invocation plus
// the consistency oracle to behave exactly as a fault-free run. Recovery comes up from a
// partial image, an untruncated manifest, or the freshly compacted journal; none of those
// may lose or duplicate acknowledged state. Smoke-bounded for tier-1; HM_FAULTCHECK_FULL=1
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

// The checkpoint family rides on the depth-1 sweep; depth-2 crash families are covered by
// explorer_test.cc and the node-kill compositions are part of the family itself (the
// explorer pairs every round trigger with kills at hit+1 and hit+2 per domain).
ExplorerOptions CheckpointSweepOptions(ProtocolKind protocol) {
  ExplorerOptions options;
  options.protocol = protocol;
  options.durable = true;
  options.checkpoints = true;
  options.kill_domains = {"store", "seq"};
  options.crash_pairs = false;
  options.crash_plus_peer = false;
  options.crash_plus_gc = false;
  return options;
}

void ExpectCheckpointSweepPasses(const Workload& workload, ExplorerOptions options) {
  Explorer explorer(workload, options);
  ExplorerReport report = explorer.Run();
  PrintReport(workload.name + "/" + core::ProtocolName(options.protocol) + "/ckpt", report);
  EXPECT_GT(report.baseline_sites, 0);
  EXPECT_GT(report.explored_ckpt, 0);
  if (!report.AllPassed()) {
    FAIL() << report.failures.size() << " failing schedules, first: "
           << report.failures[0].schedule.ToString() << " -> " << report.failures[0].reason;
  }
}

class CheckpointSweepTest : public ::testing::TestWithParam<ProtocolKind> {};

INSTANTIATE_TEST_SUITE_P(Protocols, CheckpointSweepTest, ::testing::ValuesIn(kFaultTolerant),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           std::string name = core::ProtocolName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(CheckpointSweepTest, CounterSurvivesCheckpointFaults) {
  ExpectCheckpointSweepPasses(faultcheck::CounterWorkload(),
                              Bounded(CheckpointSweepOptions(GetParam()), 3, 4, 4));
}

TEST_P(CheckpointSweepTest, TransferSurvivesCheckpointFaults) {
  ExpectCheckpointSweepPasses(faultcheck::TransferWorkload(),
                              Bounded(CheckpointSweepOptions(GetParam()), 4, 4, 4));
}

TEST_P(CheckpointSweepTest, WorkflowSurvivesCheckpointFaults) {
  // Nested Invoke/InvokeAll: a round can cut between a child's ack and the parent's
  // post-invoke log step, and a composed kill then restarts from image + replay-suffix with
  // the parent still mid-flight.
  ExpectCheckpointSweepPasses(faultcheck::WorkflowWorkload(),
                              Bounded(CheckpointSweepOptions(GetParam()), 8, 8, 3));
}

TEST(CheckpointDeterminismTest, PrintedCheckpointScheduleReplaysIdentically) {
  ExplorerOptions options = CheckpointSweepOptions(ProtocolKind::kHalfmoonRead);
  Explorer explorer(faultcheck::CounterWorkload(), options);

  Explorer::RunOutcome baseline = explorer.RunSchedule(Schedule{}, /*record_trace=*/true);
  ASSERT_GT(baseline.trace.size(), 4u);

  Schedule schedule;
  schedule.points.push_back(FaultPoint::Checkpoint(3));
  std::string printed = schedule.ToString();
  EXPECT_EQ(printed, "ckpt@3");
  auto reparsed = Schedule::Parse(printed);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, schedule);

  Explorer::RunOutcome direct = explorer.RunSchedule(schedule, /*record_trace=*/true);
  Explorer::RunOutcome replayed = explorer.RunSchedule(*reparsed, /*record_trace=*/true);
  EXPECT_TRUE(direct.verdict.ok) << direct.verdict.failure;
  EXPECT_EQ(direct.verdict.ok, replayed.verdict.ok);
  EXPECT_EQ(direct.trace, replayed.trace);
}

TEST(CheckpointDeterminismTest, RoundPlusDaemonCrashComposes) {
  // The daemon dies after stamping the manifest but before truncating the journal: the
  // superseded journal prefix and the fresh manifest coexist, and whatever recovery path a
  // later kill picks must agree with the acknowledged history.
  ExplorerOptions options = CheckpointSweepOptions(ProtocolKind::kHalfmoonWrite);
  Explorer explorer(faultcheck::CounterWorkload(), options);

  Schedule schedule;
  schedule.points.push_back(FaultPoint::Checkpoint(2));
  schedule.points.push_back(FaultPoint::Crash("ckpt.install", 0));
  schedule.points.push_back(FaultPoint::NodeKill("store", 6));
  Explorer::RunOutcome outcome = explorer.RunSchedule(schedule);
  EXPECT_TRUE(outcome.verdict.ok) << outcome.verdict.failure;
}

TEST(CheckpointScheduleCodecTest, RoundTripsAndRejectsMalformedPoints) {
  Schedule schedule;
  schedule.points.push_back(FaultPoint::Checkpoint(7));
  schedule.points.push_back(FaultPoint::Crash("ckpt.write", 0));
  std::string printed = schedule.ToString();
  EXPECT_EQ(printed, "ckpt@7 crash(ckpt.write#0)");
  auto parsed = Schedule::Parse(printed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, schedule);

  EXPECT_FALSE(Schedule::Parse("ckpt@x").has_value());
  EXPECT_FALSE(Schedule::Parse("ckpt7").has_value());
  EXPECT_FALSE(Schedule::Parse("ckpt@").has_value());
}

TEST(CheckpointGuardDeathTest, CheckpointPointsRequireTheCheckpointTier) {
  // A round trigger against a cluster without the checkpoint tier has no service to drive —
  // the explorer's own guard (not the Cluster constructor's) must abort the sweep loudly.
  ExplorerOptions options = CheckpointSweepOptions(ProtocolKind::kHalfmoonRead);
  options.durable = true;
  options.checkpoints = false;
  Explorer explorer(faultcheck::CounterWorkload(), options);
  Schedule schedule;
  schedule.points.push_back(FaultPoint::Checkpoint(0));
  EXPECT_DEATH(explorer.RunSchedule(schedule), "checkpoint tier");
}

}  // namespace
}  // namespace halfmoon
