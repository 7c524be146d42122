// Protocol switching tests (§4.7, §5.2): pauseless, fault-tolerant, and correct across the
// BEGIN/transitional/END phases in both directions.
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/core/online_advisor.h"
#include "src/core/switch_manager.h"
#include "src/workloads/loadgen.h"
#include "src/workloads/synthetic.h"
#include "tests/testing/test_world.h"

namespace halfmoon {
namespace {

using core::ProtocolKind;
using core::SwitchManager;
using core::SwitchReport;
using testing::TestWorld;
using testing::TestWorldOptions;

TestWorldOptions SwitchingWorld(ProtocolKind initial) {
  TestWorldOptions options;
  options.protocol = initial;
  options.enable_switching = true;
  return options;
}

void RegisterCounter(TestWorld& world) {
  world.runtime().PopulateObject("counter", EncodeInt64(0));
  world.Register("incr", [](core::SsfContext& ctx) -> sim::Task<Value> {
    Value v = co_await ctx.Read("counter");
    co_await ctx.Write("counter", EncodeInt64(DecodeInt64(v) + 1));
    co_return "";
  });
  world.Register("read_counter", [](core::SsfContext& ctx) -> sim::Task<Value> {
    co_return co_await ctx.Read("counter");
  });
}

// Runs a switch to completion and returns the report.
SwitchReport DoSwitch(TestWorld& world, SwitchManager& manager, ProtocolKind target) {
  SwitchReport report;
  bool done = false;
  world.scheduler().Spawn([](SwitchManager* m, ProtocolKind t, SwitchReport* out,
                             bool* done) -> sim::Task<void> {
    *out = co_await m->SwitchTo(t);
    *done = true;
  }(&manager, target, &report, &done));
  world.scheduler().Run();
  HM_CHECK(done);
  return report;
}

TEST(SwitchingTest, WritesBeforeSwitchVisibleAfterSwitchToRead) {
  TestWorld world(SwitchingWorld(ProtocolKind::kHalfmoonWrite));
  RegisterCounter(world);
  for (int i = 0; i < 3; ++i) world.Call("incr");

  SwitchManager manager(&world.cluster(), world.runtime().config().switch_scope);
  SwitchReport report = DoSwitch(world, manager, ProtocolKind::kHalfmoonRead);
  EXPECT_GT(report.end_seqnum, report.begin_seqnum);

  // Post-switch SSFs resolve Halfmoon-read from the transition log; the value written under
  // Halfmoon-write (the LATEST slot) must be visible through the freshness comparison.
  EXPECT_EQ(DecodeInt64(world.Call("read_counter")), 3);
  for (int i = 0; i < 3; ++i) world.Call("incr");
  EXPECT_EQ(DecodeInt64(world.Call("read_counter")), 6);
}

TEST(SwitchingTest, WritesBeforeSwitchVisibleAfterSwitchToWrite) {
  TestWorld world(SwitchingWorld(ProtocolKind::kHalfmoonRead));
  RegisterCounter(world);
  for (int i = 0; i < 3; ++i) world.Call("incr");

  SwitchManager manager(&world.cluster(), world.runtime().config().switch_scope);
  DoSwitch(world, manager, ProtocolKind::kHalfmoonWrite);

  EXPECT_EQ(DecodeInt64(world.Call("read_counter")), 3);
  for (int i = 0; i < 3; ++i) world.Call("incr");
  EXPECT_EQ(DecodeInt64(world.Call("read_counter")), 6);
}

TEST(SwitchingTest, RoundTripSwitchPreservesState) {
  TestWorld world(SwitchingWorld(ProtocolKind::kHalfmoonWrite));
  RegisterCounter(world);
  SwitchManager manager(&world.cluster(), world.runtime().config().switch_scope);

  world.Call("incr");
  DoSwitch(world, manager, ProtocolKind::kHalfmoonRead);
  world.Call("incr");
  DoSwitch(world, manager, ProtocolKind::kHalfmoonWrite);
  world.Call("incr");
  DoSwitch(world, manager, ProtocolKind::kHalfmoonRead);
  EXPECT_EQ(DecodeInt64(world.Call("read_counter")), 3);
  EXPECT_EQ(manager.history().size(), 3u);
}

TEST(SwitchingTest, SwitchIsPauselessForInFlightSsfs) {
  // SSFs keep executing during the switch window; those overlapping BEGIN..END use the
  // transitional protocol (visible as write-log records AND LATEST updates).
  TestWorld world(SwitchingWorld(ProtocolKind::kHalfmoonWrite));
  RegisterCounter(world);

  // Launch a batch of increments and start the switch while they are in flight.
  int done_count = 0;
  std::array<bool, 8> done{};
  for (int i = 0; i < 8; ++i) {
    world.CallAsync("incr", "", nullptr, &done[i]);
  }
  world.scheduler().RunUntil(Milliseconds(2));  // Everything launched, none finished.

  SwitchManager manager(&world.cluster(), world.runtime().config().switch_scope);
  SwitchReport report;
  bool switch_done = false;
  world.scheduler().Spawn([](SwitchManager* m, SwitchReport* out, bool* flag)
                              -> sim::Task<void> {
    *out = co_await m->SwitchTo(ProtocolKind::kHalfmoonRead);
    *flag = true;
  }(&manager, &report, &switch_done));

  world.scheduler().Run();
  EXPECT_TRUE(switch_done);
  for (int i = 0; i < 8; ++i) done_count += done[i] ? 1 : 0;
  EXPECT_EQ(done_count, 8);

  // Serial increments can be lost to races between concurrent instances (no transactions),
  // but exactly-once still bounds the counter and post-switch reads must work.
  int64_t final = DecodeInt64(world.Call("read_counter"));
  EXPECT_GE(final, 1);
  EXPECT_LE(final, 8);
  for (int i = 0; i < 2; ++i) world.Call("incr");
  EXPECT_EQ(DecodeInt64(world.Call("read_counter")), final + 2);
}

TEST(SwitchingTest, ExactlyOnceHoldsAcrossSwitchUnderCrashSweep) {
  // Enumerate crash sites for a workload that spans a switch; exactly-once must hold at every
  // site, including crashes inside the transitional protocol.
  auto run = [](int64_t crash_site) -> int64_t {
    TestWorld world(SwitchingWorld(ProtocolKind::kHalfmoonWrite));
    RegisterCounter(world);
    if (crash_site >= 0) {
      world.cluster().failure_injector().CrashAtSiteHits({crash_site});
    }
    SwitchManager manager(&world.cluster(), world.runtime().config().switch_scope);
    world.Call("incr");
    world.Call("incr");
    DoSwitch(world, manager, ProtocolKind::kHalfmoonRead);
    world.Call("incr");
    world.Call("incr");
    int64_t sites = world.cluster().failure_injector().site_hits();
    world.cluster().failure_injector().CrashAtSiteHits({});
    int64_t count = DecodeInt64(world.Call("read_counter"));
    return crash_site < 0 ? sites : count;
  };

  int64_t sites = run(-1);
  ASSERT_GT(sites, 0);
  for (int64_t k = 0; k < sites; ++k) {
    EXPECT_EQ(run(k), 4) << "crash at site " << k;
  }
}

TEST(SwitchingTest, TransitionalPhaseAppliesWhileSwitchInProgress) {
  // Hold the switch open with a long-running SSF; a fresh SSF starting in the window must run
  // the transitional protocol: its write appears in BOTH versioning schemes.
  TestWorld world(SwitchingWorld(ProtocolKind::kHalfmoonWrite));
  world.Register("sleeper", [](core::SsfContext& ctx) -> sim::Task<Value> {
    for (int i = 0; i < 2000; ++i) co_await ctx.Compute();
    co_return "";
  });
  world.Register("write_x", [](core::SsfContext& ctx) -> sim::Task<Value> {
    co_await ctx.Write("x", "transitional-value");
    co_return "";
  });

  bool sleeper_done = false;
  world.CallAsync("sleeper", "", nullptr, &sleeper_done);
  world.scheduler().RunUntil(Milliseconds(5));

  SwitchManager manager(&world.cluster(), world.runtime().config().switch_scope);
  bool switch_done = false;
  SwitchReport report;
  world.scheduler().Spawn([](SwitchManager* m, SwitchReport* out, bool* flag)
                              -> sim::Task<void> {
    *out = co_await m->SwitchTo(ProtocolKind::kHalfmoonRead);
    *flag = true;
  }(&manager, &report, &switch_done));
  world.scheduler().RunUntil(Milliseconds(10));
  ASSERT_FALSE(switch_done);  // The sleeper holds the switch open.

  bool write_done = false;
  world.CallAsync("write_x", "", nullptr, &write_done);
  world.scheduler().RunUntil(Milliseconds(40));
  ASSERT_TRUE(write_done);
  ASSERT_FALSE(switch_done);

  // Transitional write: LATEST slot updated AND a version + write-log record created.
  EXPECT_EQ(world.cluster().kv_state().Get("x").value_or(""), "transitional-value");
  EXPECT_EQ(world.cluster().kv_state().VersionCount(world.ObjectIdFor("x")), 1u);
  EXPECT_GT(world.cluster().log_space().StreamLength(sharedlog::WriteLogTag("x")), 0u);

  world.scheduler().Run();
  EXPECT_TRUE(switch_done);
  EXPECT_GT(report.SwitchingDelay(), 0);
}

// ---------------------------------------------------------------------------
// One switch path: a scope and an object are both transition streams
// ---------------------------------------------------------------------------

TEST(SwitchingDeathTest, SecondConcurrentSwitchOfOneScopeAborts) {
  EXPECT_DEATH(
      {
        TestWorld world(SwitchingWorld(ProtocolKind::kHalfmoonWrite));
        SwitchManager manager(&world.cluster(), world.runtime().config().switch_scope);
        for (int i = 0; i < 2; ++i) {
          world.scheduler().Spawn([](SwitchManager* m) -> sim::Task<void> {
            co_await m->SwitchTo(ProtocolKind::kHalfmoonRead);
          }(&manager));
        }
        world.scheduler().Run();
      },
      "concurrent switches on one scope are not supported");
}

enum class Stream { kScope, kObject };

// The protocols that logged records of their own byte class while `step` ran. An "rw" SSF
// (read x, then write x) logs under each Halfmoon protocol differently — Halfmoon-write its
// read, Halfmoon-read its write, the transitional protocol both — so for the SSFs `step`
// drives this is the protocol they resolved to.
std::set<ProtocolKind> ProtocolsLoggedBy(TestWorld& world, const std::function<void()>& step) {
  constexpr std::array<ProtocolKind, 3> kKinds = {
      ProtocolKind::kHalfmoonRead, ProtocolKind::kHalfmoonWrite, ProtocolKind::kTransitional};
  std::array<int64_t, 3> before{};
  for (size_t i = 0; i < kKinds.size(); ++i) {
    before[i] = world.cluster().TotalLoggedBytesByClass(core::LogAppendClass(kKinds[i]));
  }
  step();
  std::set<ProtocolKind> logged;
  for (size_t i = 0; i < kKinds.size(); ++i) {
    if (world.cluster().TotalLoggedBytesByClass(core::LogAppendClass(kKinds[i])) > before[i]) {
      logged.insert(kKinds[i]);
    }
  }
  return logged;
}

class TransitionStreamTest : public ::testing::TestWithParam<Stream> {};

TEST_P(TransitionStreamTest, SsfsResolveByWhereTheyStartedRelativeToBeginAndEnd) {
  // The same §4.7 rule on the scope's stream (enable_switching) and on an object's (advisor
  // mode): an SSF that started before the BEGIN runs the default, one that started between
  // BEGIN and END the transitional protocol, one that started after END the target.
  const bool object = GetParam() == Stream::kObject;
  TestWorldOptions options = SwitchingWorld(ProtocolKind::kHalfmoonWrite);
  options.enable_switching = !object;
  options.advisor = object;
  TestWorld world(options);
  world.runtime().PopulateObject("x", "seed");
  world.Register("rw", [](core::SsfContext& ctx) -> sim::Task<Value> {
    Value v = co_await ctx.Read("x");
    co_await ctx.Write("x", v + "+");
    co_return v;
  });
  world.Register("slow_rw", [](core::SsfContext& ctx) -> sim::Task<Value> {
    for (int i = 0; i < 2000; ++i) co_await ctx.Compute();
    Value v = co_await ctx.Read("x");
    co_await ctx.Write("x", v + "+");
    co_return v;
  });
  const std::set<ProtocolKind> kDefault = {ProtocolKind::kHalfmoonWrite};
  const std::set<ProtocolKind> kTransitional = {ProtocolKind::kTransitional};
  const std::set<ProtocolKind> kTarget = {ProtocolKind::kHalfmoonRead};

  SwitchManager manager(&world.cluster(), world.runtime().config().switch_scope);
  sharedlog::ShardedLog& log = world.cluster().log_space();
  const sharedlog::TagId stream =
      object ? core::ObjectTransitionTag(log.tags(), "x")
             : core::ScopeTransitionTag(log.tags(), world.runtime().config().switch_scope);
  auto start_switch = [&](ProtocolKind target, SwitchReport* out, bool* done) {
    world.scheduler().Spawn([](SwitchManager* m, sharedlog::TagId tag, bool on_object,
                               ProtocolKind t, SwitchReport* report,
                               bool* flag) -> sim::Task<void> {
      if (on_object) {
        *report = co_await m->SwitchObject(tag, t);
      } else {
        *report = co_await m->SwitchTo(t);
      }
      *flag = true;
    }(&manager, stream, object, target, out, done));
  };
  auto latest = [&] {
    return core::ResolveTransition(log.ReadPrev(stream, sharedlog::kMaxSeqNum),
                                   ProtocolKind::kHalfmoonWrite)
        .kind;
  };

  bool slow_done = false;
  world.CallAsync("slow_rw", "", nullptr, &slow_done);
  world.scheduler().RunUntil(Milliseconds(5));
  SwitchReport report;
  bool switch_done = false;
  start_switch(ProtocolKind::kHalfmoonRead, &report, &switch_done);
  world.scheduler().RunUntil(Milliseconds(10));
  ASSERT_FALSE(switch_done);  // slow_rw started before the BEGIN and holds the switch open.
  EXPECT_TRUE(manager.InFlight(stream));
  EXPECT_EQ(latest(), ProtocolKind::kTransitional);

  EXPECT_EQ(ProtocolsLoggedBy(world,
                              [&] {
                                bool done = false;
                                world.CallAsync("rw", "", nullptr, &done);
                                world.scheduler().RunUntil(Milliseconds(40));
                                EXPECT_TRUE(done);
                              }),
            kTransitional);
  ASSERT_FALSE(slow_done);
  ASSERT_FALSE(switch_done);

  // slow_rw touches x inside the window, yet resolves at its initial cursorTS: the default.
  EXPECT_EQ(ProtocolsLoggedBy(world, [&] { world.scheduler().Run(); }), kDefault);
  ASSERT_TRUE(slow_done);
  ASSERT_TRUE(switch_done);
  EXPECT_TRUE(report.began);
  EXPECT_TRUE(report.completed);
  EXPECT_GT(report.end_seqnum, report.begin_seqnum);
  EXPECT_FALSE(manager.InFlight(stream));
  EXPECT_EQ(manager.switches_completed(), 1);
  EXPECT_EQ(manager.history().size(), object ? 0u : 1u);
  EXPECT_EQ(ProtocolsLoggedBy(world, [&] { world.Call("rw"); }), kTarget);

  // A switch abandoned between BEGIN and END — its switcher died — leaves the stream
  // BEGIN-terminated with nothing in flight: the advisor's "abandoned" reading. SSFs resolve
  // transitionally until a fresh switch completes it.
  if (object) {
    world.cluster().failure_injector().CrashAtSite("advisor.mid_switch", 0);
    start_switch(ProtocolKind::kHalfmoonWrite, &report, &switch_done);
    world.scheduler().Run();
    world.cluster().failure_injector().ClearCrashSchedule();
    EXPECT_TRUE(report.began);
    EXPECT_FALSE(report.completed);
  } else {
    // SwitchTo has no crash site; model the switcher dying with a bare BEGIN record.
    FieldMap begin;
    begin.SetStr("op", "BEGIN");
    begin.SetInt("step", 0);
    begin.SetInt("target", static_cast<int64_t>(ProtocolKind::kHalfmoonWrite));
    log.Append(world.scheduler().Now(), sharedlog::OneTag(stream), std::move(begin));
  }
  EXPECT_FALSE(manager.InFlight(stream));
  EXPECT_EQ(latest(), ProtocolKind::kTransitional);
  EXPECT_EQ(ProtocolsLoggedBy(world, [&] { world.Call("rw"); }), kTransitional);

  if (object) {
    // The advisor reads the abandoned stream as not busy and fires to complete it.
    core::OnlineAdvisorConfig config;
    config.min_ops = 8;
    config.dwell = 0;
    config.epoch = Seconds(1000000);
    core::OnlineAdvisor advisor(&world.runtime(), &manager, config);
    const sharedlog::TagId write_tag = log.tags().InternPrefixed(sharedlog::kWriteLogPrefix, "x");
    for (int i = 0; i < 20; ++i) world.runtime().RecordAccess(write_tag, /*is_read=*/false);
    advisor.RunOnce();
    world.scheduler().Run();
    EXPECT_EQ(advisor.stats().switches_fired, 1);
    EXPECT_EQ(advisor.stats().suppressed_busy, 0);
  } else {
    switch_done = false;
    start_switch(ProtocolKind::kHalfmoonWrite, &report, &switch_done);
    world.scheduler().Run();
    EXPECT_TRUE(switch_done);
  }
  EXPECT_EQ(manager.switches_completed(), 2);
  EXPECT_EQ(latest(), ProtocolKind::kHalfmoonWrite);
  EXPECT_EQ(ProtocolsLoggedBy(world, [&] { world.Call("rw"); }), kDefault);
}

INSTANTIATE_TEST_SUITE_P(ScopeAndObject, TransitionStreamTest,
                         ::testing::Values(Stream::kScope, Stream::kObject),
                         [](const ::testing::TestParamInfo<Stream>& info) {
                           return info.param == Stream::kScope ? "Scope" : "Object";
                         });

// ---------------------------------------------------------------------------
// Figure 14 at reduced scale
// ---------------------------------------------------------------------------

// Transitional-class bytes logged across one switch: from just before its BEGIN to its END.
struct SwitchWindow {
  int64_t transitional_before = 0;
  int64_t transitional_after = 0;
};

sim::Task<void> TimedSwitch(runtime::Cluster* cluster, SwitchManager* manager,
                            ProtocolKind target, SwitchWindow* window) {
  const int cls = core::LogAppendClass(ProtocolKind::kTransitional);
  window->transitional_before = cluster->TotalLoggedBytesByClass(cls);
  co_await manager->SwitchTo(target);
  window->transitional_after = cluster->TotalLoggedBytesByClass(cls);
}

TEST(SwitchingTest, Fig14ShapeSwitchesCompleteAndServeTheirTransitionalWindows) {
  // bench_fig14_switching's shape with 1 s phases at 300 req/s: write-intensive on
  // Halfmoon-write, read-intensive on Halfmoon-read, write-intensive on Halfmoon-write again,
  // switching the scope at each boundary while the load keeps running. Both switches must
  // complete within 1 s of simulated time, and SSFs must start inside each BEGIN..END window
  // (they log transitional records there). Which direction is slower is not asserted.
  constexpr SimDuration kPhase = Seconds(1);
  runtime::ClusterConfig ccfg;
  ccfg.seed = 1;
  ccfg.workers_per_node = 3;
  ccfg.sequencer_servers = 12;
  runtime::Cluster cluster(ccfg);
  core::RuntimeConfig rcfg;
  rcfg.default_protocol = ProtocolKind::kHalfmoonWrite;
  rcfg.enable_switching = true;
  core::SsfRuntime runtime(&cluster, rcfg);

  workloads::SyntheticConfig config;
  config.num_objects = 1000;
  config.read_ratio = 0.2;
  workloads::SyntheticWorkload synthetic(&runtime, config);
  synthetic.Setup();
  auto phase_ratio = std::make_shared<double>(0.2);
  Rng& rng = cluster.rng();
  workloads::LoadGenConfig load;
  load.requests_per_second = 300;
  load.warmup = 0;
  load.duration = 3 * kPhase;
  workloads::LoadGenerator generator(
      &runtime, load, [&synthetic, &rng, phase_ratio, config]() {
        Value ops;
        for (int i = 0; i < config.ops_per_request; ++i) {
          if (!ops.empty()) ops.push_back(';');
          ops.push_back(rng.Bernoulli(*phase_ratio) ? 'R' : 'W');
          ops.push_back(':');
          ops += synthetic.KeyFor(static_cast<int>(rng.UniformInt(0, config.num_objects - 1)));
        }
        return std::make_pair(workloads::SyntheticWorkload::FunctionName(), ops);
      });

  SwitchManager manager(&cluster, rcfg.switch_scope);
  std::array<SwitchWindow, 2> windows;
  cluster.scheduler().Post(kPhase, [&, phase_ratio] {
    *phase_ratio = 0.8;
    cluster.scheduler().Spawn(
        TimedSwitch(&cluster, &manager, ProtocolKind::kHalfmoonRead, &windows[0]));
  });
  cluster.scheduler().Post(2 * kPhase, [&, phase_ratio] {
    *phase_ratio = 0.2;
    cluster.scheduler().Spawn(
        TimedSwitch(&cluster, &manager, ProtocolKind::kHalfmoonWrite, &windows[1]));
  });
  generator.RunToCompletion();

  ASSERT_EQ(manager.history().size(), 2u);
  bool ok = true;
  std::string summary;
  for (size_t i = 0; i < windows.size(); ++i) {
    const SwitchReport& report = manager.history()[i];
    const int64_t transitional = windows[i].transitional_after - windows[i].transitional_before;
    EXPECT_LT(report.SwitchingDelay(), Seconds(1)) << "switch " << i;
    EXPECT_GT(transitional, 0) << "no SSF started inside switch " << i << "'s window";
    ok = ok && report.SwitchingDelay() < Seconds(1) && transitional > 0;
    char part[160];
    std::snprintf(part, sizeof(part), "%s to %s %.0f ms (transitional bytes %lld)",
                  i == 0 ? "" : ";", core::ProtocolName(report.target),
                  ToMillisDouble(report.SwitchingDelay()), static_cast<long long>(transitional));
    summary += part;
  }
  std::printf("[fig14] 300 req/s, %d s phases:%s | %s\n",
              static_cast<int>(ToSecondsDouble(kPhase)), summary.c_str(),
              ok ? "switched-pauselessly" : "STALLED");
}

}  // namespace
}  // namespace halfmoon
