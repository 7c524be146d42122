// Depth-2 schedule sweeps over the fault-tolerant protocols (§2, §4.2, §5.1): every explored
// schedule — crash pairs, crash + scheduled peer, crash + GC-scan timing — must pass the
// consistency oracle on every workload. Smoke-bounded for tier-1; HM_FAULTCHECK_FULL=1 runs
// the exhaustive sweep.

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

// The four logging protocols whose executions must be indistinguishable from crash-free runs.
const ProtocolKind kFaultTolerant[] = {
    ProtocolKind::kBoki,
    ProtocolKind::kHalfmoonRead,
    ProtocolKind::kHalfmoonWrite,
    ProtocolKind::kTransitional,
};

void ExpectSweepPasses(const Workload& workload, ExplorerOptions options) {
  Explorer explorer(workload, options);
  ExplorerReport report = explorer.Run();
  PrintReport(workload.name + "/" + core::ProtocolName(options.protocol), report);
  EXPECT_GT(report.baseline_sites, 0);
  EXPECT_GT(report.explored_single, 0);
  EXPECT_GT(report.explored_pairs, 0);
  EXPECT_GT(report.explored_peer, 0);
  EXPECT_GT(report.explored_gc, 0);
  if (!report.AllPassed()) {
    FAIL() << report.failures.size() << " failing schedules, first: "
           << report.failures[0].schedule.ToString() << " -> " << report.failures[0].reason;
  }
}

class ExplorerSweepTest : public ::testing::TestWithParam<ProtocolKind> {};

INSTANTIATE_TEST_SUITE_P(Protocols, ExplorerSweepTest, ::testing::ValuesIn(kFaultTolerant),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           std::string name = core::ProtocolName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(ExplorerSweepTest, CounterSurvivesDepth2Schedules) {
  ExplorerOptions options;
  options.protocol = GetParam();
  ExpectSweepPasses(faultcheck::CounterWorkload(), Bounded(options));
}

TEST_P(ExplorerSweepTest, TransferSurvivesDepth2Schedules) {
  ExplorerOptions options;
  options.protocol = GetParam();
  ExpectSweepPasses(faultcheck::TransferWorkload(), Bounded(options, 2, 4, 4));
}

TEST_P(ExplorerSweepTest, WorkflowSurvivesDepth2Schedules) {
  // Heavier workload (nested Invoke/InvokeAll): wider strides in smoke mode.
  ExplorerOptions options;
  options.protocol = GetParam();
  ExpectSweepPasses(faultcheck::WorkflowWorkload(), Bounded(options, 5, 7, 3));
}

TEST_P(ExplorerSweepTest, CounterSurvivesDepth2SchedulesWithTwoShards) {
  // The same sweep against a tag-partitioned log: every schedule must still pass the oracle
  // when records interleave across two per-shard sequencers.
  ExplorerOptions options;
  options.protocol = GetParam();
  options.log_shards = 2;
  ExpectSweepPasses(faultcheck::CounterWorkload(), Bounded(options));
}

TEST_P(ExplorerSweepTest, TransferSurvivesDepth2SchedulesWithFourShards) {
  // Four shards on the multi-object workload: cross-shard cond-appends and GC races.
  // Smoke-strided in tier-1; exhaustive under HM_FAULTCHECK_FULL=1 like the rest.
  ExplorerOptions options;
  options.protocol = GetParam();
  options.log_shards = 4;
  ExpectSweepPasses(faultcheck::TransferWorkload(), Bounded(options, 2, 4, 4));
}

TEST_P(ExplorerSweepTest, CounterSurvivesDepth2SchedulesWithPipelinedAppends) {
  // Pipelined group commit (depth 4): batch.depart crashes race the victim's retry against
  // a round still in flight, and crash pairs land across two concurrently in-flight rounds.
  // Every schedule must still pass the oracle.
  ExplorerOptions options;
  options.protocol = GetParam();
  options.pipeline_depth = 4;
  ExpectSweepPasses(faultcheck::CounterWorkload(), Bounded(options));
}

TEST_P(ExplorerSweepTest, TransferSurvivesDepth2SchedulesWithPipelinedAppends) {
  ExplorerOptions options;
  options.protocol = GetParam();
  options.pipeline_depth = 4;
  ExpectSweepPasses(faultcheck::TransferWorkload(), Bounded(options, 2, 4, 4));
}

TEST_P(ExplorerSweepTest, WorkflowSurvivesDepth2SchedulesWithPipelinedAppends) {
  ExplorerOptions options;
  options.protocol = GetParam();
  options.pipeline_depth = 4;
  ExpectSweepPasses(faultcheck::WorkflowWorkload(), Bounded(options, 5, 7, 3));
}

TEST(ExplorerDeterminismTest, BatchSitesAppearAndSurviveCrashesUnderPipelining) {
  // The group-commit crash sites registered for this PR must show up in pipelined traces,
  // and crashing at each must keep the oracle green (the depart-crash victim's record still
  // departs with the round, so its retry races the in-flight commit — the duplicate-append
  // hazard class).
  ExplorerOptions options;
  options.protocol = ProtocolKind::kHalfmoonRead;
  options.pipeline_depth = 4;
  Explorer explorer(faultcheck::CounterWorkload(), options);

  Explorer::RunOutcome baseline = explorer.RunSchedule(Schedule{}, /*record_trace=*/true);
  int64_t depart_hits = 0;
  int64_t reply_hits = 0;
  for (const auto& entry : baseline.trace) {
    if (entry.site == "batch.depart") ++depart_hits;
    if (entry.site == "batch.reply") ++reply_hits;
  }
  EXPECT_GT(depart_hits, 0);
  EXPECT_GT(reply_hits, 0);

  for (const char* site : {"batch.depart", "batch.reply"}) {
    Schedule schedule;
    schedule.points.push_back(FaultPoint::Crash(site, 0));
    Explorer::RunOutcome outcome = explorer.RunSchedule(schedule);
    EXPECT_GE(outcome.crashes, 1) << site;
    EXPECT_TRUE(outcome.verdict.ok) << site << ": " << outcome.verdict.failure;
  }
}

TEST(ExplorerDeterminismTest, SameScheduleSameSeedSameOutcome) {
  ExplorerOptions options;
  options.protocol = ProtocolKind::kHalfmoonRead;
  Explorer explorer(faultcheck::CounterWorkload(), options);

  Explorer::RunOutcome baseline = explorer.RunSchedule(Schedule{}, /*record_trace=*/true);
  ASSERT_FALSE(baseline.trace.empty());

  Schedule schedule;
  schedule.points.push_back(
      FaultPoint::Crash(baseline.trace[4].site, baseline.trace[4].occurrence));
  schedule.points.push_back(FaultPoint::GcScan(7));

  Explorer::RunOutcome first = explorer.RunSchedule(schedule, /*record_trace=*/true);
  Explorer::RunOutcome second = explorer.RunSchedule(schedule, /*record_trace=*/true);
  EXPECT_EQ(first.verdict.ok, second.verdict.ok);
  EXPECT_EQ(first.verdict.failure, second.verdict.failure);
  EXPECT_EQ(first.crashes, second.crashes);
  EXPECT_EQ(first.peers, second.peers);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_GE(first.crashes, 1);
}

TEST(ExplorerDeterminismTest, PrintedScheduleReplaysIdentically) {
  // The printed form is the reproducibility contract: ToString -> Parse -> RunSchedule must
  // reproduce the execution exactly.
  ExplorerOptions options;
  options.protocol = ProtocolKind::kBoki;
  Explorer explorer(faultcheck::CounterWorkload(), options);

  Explorer::RunOutcome baseline = explorer.RunSchedule(Schedule{}, /*record_trace=*/true);
  ASSERT_GT(baseline.trace.size(), 6u);

  Schedule schedule;
  schedule.points.push_back(
      FaultPoint::Crash(baseline.trace[2].site, baseline.trace[2].occurrence));
  schedule.points.push_back(
      FaultPoint::Crash(baseline.trace[6].site, baseline.trace[6].occurrence));
  schedule.points.push_back(FaultPoint::PeerSpawn(5));

  std::string printed = schedule.ToString();
  auto reparsed = Schedule::Parse(printed);
  ASSERT_TRUE(reparsed.has_value()) << printed;
  EXPECT_EQ(*reparsed, schedule);

  Explorer::RunOutcome direct = explorer.RunSchedule(schedule, /*record_trace=*/true);
  Explorer::RunOutcome replayed = explorer.RunSchedule(*reparsed, /*record_trace=*/true);
  EXPECT_EQ(direct.verdict.ok, replayed.verdict.ok);
  EXPECT_EQ(direct.trace, replayed.trace);
  EXPECT_EQ(direct.crashes, replayed.crashes);
}

TEST(ExplorerDeterminismTest, CrashPairsActuallyCrashTwice) {
  ExplorerOptions options;
  options.protocol = ProtocolKind::kHalfmoonWrite;
  Explorer explorer(faultcheck::CounterWorkload(), options);

  Explorer::RunOutcome baseline = explorer.RunSchedule(Schedule{}, /*record_trace=*/true);
  Schedule first;
  first.points.push_back(
      FaultPoint::Crash(baseline.trace[0].site, baseline.trace[0].occurrence));
  Explorer::RunOutcome faulted = explorer.RunSchedule(first, /*record_trace=*/true);
  ASSERT_GE(faulted.crashes, 1);
  ASSERT_GT(faulted.trace.size(), 1u);

  Schedule pair = first;
  pair.points.push_back(
      FaultPoint::Crash(faulted.trace[1].site, faulted.trace[1].occurrence));
  Explorer::RunOutcome outcome = explorer.RunSchedule(pair);
  EXPECT_GE(outcome.crashes, 2);
  EXPECT_TRUE(outcome.verdict.ok) << outcome.verdict.failure;
}

TEST(ScheduleCodecTest, RoundTripsEveryKind) {
  Schedule schedule;
  schedule.points.push_back(FaultPoint::Crash("hmr.write.after_db", 3));
  schedule.points.push_back(FaultPoint::PeerSpawn(-1));
  schedule.points.push_back(FaultPoint::GcScan(12));
  schedule.points.push_back(
      FaultPoint::SwitchBegin(ProtocolKind::kHalfmoonWrite, 9));
  std::string printed = schedule.ToString();
  EXPECT_EQ(printed,
            "crash(hmr.write.after_db#3) peer@-1 gc@12 switch[Halfmoon-write]@9");
  auto parsed = Schedule::Parse(printed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, schedule);

  EXPECT_EQ(Schedule{}.ToString(), "(no faults)");
  auto empty = Schedule::Parse("(no faults)");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());

  EXPECT_FALSE(Schedule::Parse("crash(nohash)").has_value());
  EXPECT_FALSE(Schedule::Parse("peer@x").has_value());
  EXPECT_FALSE(Schedule::Parse("switch[NotAProtocol]@3").has_value());
  EXPECT_FALSE(Schedule::Parse("bogus").has_value());
}

}  // namespace
}  // namespace halfmoon
