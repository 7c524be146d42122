// Online advisor (DESIGN.md §11) end-to-end behaviour:
//   * drifting workloads: per-object switches fired by the advisor make the advisor-enabled
//     run log strictly fewer simulated bytes than BOTH static protocol choices;
//   * hysteresis: an oscillating object switches at most once per dwell window;
//   * the token bucket bounds the cluster-wide switch rate;
//   * advisor-off bit-identity: with advisor mode off, the runtime reproduces the
//     pre-advisor golden execution exactly (events, end time, seqnums, content checksum);
//   * abandoned transitions (daemon died between BEGIN and END) are completed by a later
//     advisor sweep;
//   * only a switch interns an object's transition stream: SSF accesses and advisor sweeps
//     find it, and a stream never interned resolves to the default at the same cost as an
//     interned, empty one;
//   * the hot-path sketch's memory never grows with the live keyspace.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/online_advisor.h"
#include "src/core/ssf_runtime.h"
#include "src/core/switch_manager.h"
#include "src/faultcheck/workload.h"
#include "src/runtime/cluster.h"
#include "src/sim/task.h"
#include "tests/testing/live_streams.h"

namespace halfmoon {
namespace {

using core::OnlineAdvisor;
using core::OnlineAdvisorConfig;
using core::ProtocolKind;

std::string Key(int i) { return "obj" + std::to_string(i); }

// Minimal advisor-aware harness (TestWorld predates per-runtime advisor control).
struct World {
  explicit World(bool advisor, ProtocolKind protocol, uint64_t seed = 1) {
    runtime::ClusterConfig ccfg;
    ccfg.seed = seed;
    cluster = std::make_unique<runtime::Cluster>(ccfg);
    core::RuntimeConfig rcfg;
    rcfg.default_protocol = protocol;
    rcfg.advisor = advisor;
    runtime = std::make_unique<core::SsfRuntime>(cluster.get(), rcfg);
    switcher = std::make_unique<core::SwitchManager>(cluster.get(), rcfg.switch_scope);

    // "mix" input: "<key>|<reads>|<writes>" — that many context reads then writes on one key.
    runtime->RegisterFunction("mix", [](core::SsfContext& ctx) -> sim::Task<Value> {
      const std::string& input = ctx.input();
      const size_t p1 = input.find('|');
      const size_t p2 = input.find('|', p1 + 1);
      const std::string key = input.substr(0, p1);
      const int reads = std::stoi(input.substr(p1 + 1, p2 - p1 - 1));
      const int writes = std::stoi(input.substr(p2 + 1));
      Value last;
      for (int i = 0; i < reads; ++i) last = co_await ctx.Read(key);
      for (int i = 0; i < writes; ++i) {
        co_await ctx.Write(key, key + "=" + std::to_string(i));
      }
      co_return last;
    });
  }

  Value Call(const std::string& function, Value input) {
    Value out;
    bool done = false;
    cluster->scheduler().Spawn(Drive(function, std::move(input), &out, &done));
    cluster->scheduler().Run();
    EXPECT_TRUE(done) << "invocation did not complete";
    return out;
  }

  sim::Task<void> Drive(std::string function, Value input, Value* out, bool* done) {
    *out = co_await runtime->InvokeSsf(std::move(function), std::move(input));
    *done = true;
  }

  std::unique_ptr<runtime::Cluster> cluster;
  std::unique_ptr<core::SsfRuntime> runtime;
  std::unique_ptr<core::SwitchManager> switcher;
};

// Tight deterministic advisor settings for tests: everything decided in one RunOnce, epochs
// rotated manually (epoch set beyond any test's simulated horizon).
OnlineAdvisorConfig TestAdvisorConfig() {
  OnlineAdvisorConfig config;
  config.min_ops = 8;
  config.margin = 0.05;
  config.dwell = 0;
  config.epoch = Seconds(1000000);
  config.switch_rate = 1e9;
  config.switch_burst = 1e9;
  return config;
}

// The drifting workload of the advisor gate, per object: a read-heavy phase (40r/2w), a
// drift phase during which the advisor reacts (2r/10w), and a write-heavy tail (2r/20w).
constexpr int kDriftObjects = 16;

void RunPhase(World& world, int reads, int writes) {
  for (int i = 0; i < kDriftObjects; ++i) {
    world.Call("mix", Key(i) + "|" + std::to_string(reads) + "|" + std::to_string(writes));
  }
}

int64_t RunDrift(bool advisor_on, ProtocolKind protocol, int64_t* switches_out = nullptr) {
  World world(advisor_on, protocol);
  for (int i = 0; i < kDriftObjects; ++i) world.runtime->PopulateObject(Key(i), "seed");
  std::unique_ptr<OnlineAdvisor> advisor;
  if (advisor_on) {
    advisor = std::make_unique<OnlineAdvisor>(world.runtime.get(), world.switcher.get(),
                                              TestAdvisorConfig());
  }

  RunPhase(world, /*reads=*/40, /*writes=*/2);
  if (advisor) {
    // Read-heavy mix on the read-optimal default: the advisor must leave everything alone.
    advisor->RunOnce();
    world.cluster->scheduler().Run();
    EXPECT_EQ(advisor->stats().switches_fired, 0);
    EXPECT_GT(advisor->stats().objects_evaluated, 0);
    // Age out the read-heavy history so the estimates track the drifted mix.
    world.runtime->sketch().AdvanceEpoch();
    world.runtime->sketch().AdvanceEpoch();
  }

  RunPhase(world, /*reads=*/2, /*writes=*/10);
  if (advisor) {
    advisor->RunOnce();
    world.cluster->scheduler().Run();  // Drain the fired switch coroutines.
    EXPECT_EQ(advisor->stats().switches_fired, kDriftObjects);
    EXPECT_EQ(world.switcher->switches_completed(), kDriftObjects);
  }

  RunPhase(world, /*reads=*/2, /*writes=*/20);
  if (switches_out != nullptr) {
    *switches_out = world.switcher->switches_completed();
  }
  return world.cluster->TotalLoggedBytes();
}

TEST(OnlineAdvisorTest, DriftingWorkloadBeatsBothStaticProtocols) {
  int64_t switches = 0;
  const int64_t advisor_bytes = RunDrift(/*advisor_on=*/true, ProtocolKind::kHalfmoonRead,
                                         &switches);
  const int64_t static_read = RunDrift(/*advisor_on=*/false, ProtocolKind::kHalfmoonRead);
  const int64_t static_write = RunDrift(/*advisor_on=*/false, ProtocolKind::kHalfmoonWrite);

  std::printf("[advisor] drift bytes: advisor=%lld static_hmread=%lld static_hmwrite=%lld "
              "switches=%lld objects=%d %s\n",
              static_cast<long long>(advisor_bytes), static_cast<long long>(static_read),
              static_cast<long long>(static_write), static_cast<long long>(switches),
              kDriftObjects,
              advisor_bytes < static_read && advisor_bytes < static_write ? "win" : "LOSS");

  // The acceptance gate: strictly fewer logged bytes than either static choice, with a
  // bounded number of transitions (one per object for this single drift).
  EXPECT_LT(advisor_bytes, static_read);
  EXPECT_LT(advisor_bytes, static_write);
  EXPECT_EQ(switches, kDriftObjects);
}

TEST(OnlineAdvisorTest, OscillatingObjectSwitchesAtMostOncePerDwellWindow) {
  World world(/*advisor=*/true, ProtocolKind::kHalfmoonRead);
  world.runtime->PopulateObject("osc", "seed");
  const sharedlog::TagId id =
      world.cluster->log_space().tags().InternPrefixed(sharedlog::kWriteLogPrefix, "osc");

  OnlineAdvisorConfig config = TestAdvisorConfig();
  config.dwell = Seconds(1000);  // Far beyond this test's simulated horizon.
  OnlineAdvisor advisor(world.runtime.get(), world.switcher.get(), config);

  // Write-heavy: the object flips from the HM-read default to HM-write.
  for (int i = 0; i < 20; ++i) world.runtime->RecordAccess(id, /*is_read=*/false);
  advisor.RunOnce();
  world.cluster->scheduler().Run();
  EXPECT_EQ(advisor.stats().switches_fired, 1);
  EXPECT_EQ(world.switcher->switches_completed(), 1);

  // Oscillate the observed mix each "period"; within the dwell window nothing may fire.
  for (int cycle = 0; cycle < 3; ++cycle) {
    world.runtime->sketch().AdvanceEpoch();
    world.runtime->sketch().AdvanceEpoch();
    const bool read_heavy = (cycle % 2) == 0;
    for (int i = 0; i < 20; ++i) world.runtime->RecordAccess(id, read_heavy);
    advisor.RunOnce();
    world.cluster->scheduler().Run();
  }
  EXPECT_EQ(advisor.stats().switches_fired, 1);
  EXPECT_GE(advisor.stats().suppressed_dwell, 1);
  EXPECT_EQ(world.switcher->switches_completed(), 1);
  std::printf("[advisor] hysteresis: fired=%lld dwell_suppressed=%lld\n",
              static_cast<long long>(advisor.stats().switches_fired),
              static_cast<long long>(advisor.stats().suppressed_dwell));
}

TEST(OnlineAdvisorTest, TokenBucketBoundsSwitchRate) {
  World world(/*advisor=*/true, ProtocolKind::kHalfmoonRead);
  for (int i = 0; i < kDriftObjects; ++i) world.runtime->PopulateObject(Key(i), "seed");
  OnlineAdvisorConfig config = TestAdvisorConfig();
  config.switch_rate = 1e-9;  // No refill within the test.
  config.switch_burst = 3.0;
  OnlineAdvisor advisor(world.runtime.get(), world.switcher.get(), config);

  for (int i = 0; i < kDriftObjects; ++i) {
    const sharedlog::TagId id =
        world.cluster->log_space().tags().InternPrefixed(sharedlog::kWriteLogPrefix, Key(i));
    for (int j = 0; j < 20; ++j) world.runtime->RecordAccess(id, /*is_read=*/false);
  }
  advisor.RunOnce();
  world.cluster->scheduler().Run();
  EXPECT_EQ(advisor.stats().switches_fired, 3);
  EXPECT_EQ(advisor.stats().suppressed_tokens, kDriftObjects - 3);
}

TEST(OnlineAdvisorTest, AbandonedMidSwitchTransitionIsCompletedLater) {
  World world(/*advisor=*/true, ProtocolKind::kHalfmoonRead);
  world.runtime->PopulateObject("a", "seed");
  const sharedlog::TagId id =
      world.cluster->log_space().tags().InternPrefixed(sharedlog::kWriteLogPrefix, "a");
  OnlineAdvisor advisor(world.runtime.get(), world.switcher.get(), TestAdvisorConfig());

  // The advisor daemon "dies" between BEGIN and END: the object is left transitional.
  world.cluster->failure_injector().CrashAtSite("advisor.mid_switch", 0);
  for (int i = 0; i < 20; ++i) world.runtime->RecordAccess(id, /*is_read=*/false);
  advisor.RunOnce();
  world.cluster->scheduler().Run();
  EXPECT_EQ(advisor.stats().switches_fired, 1);
  EXPECT_EQ(world.switcher->switches_completed(), 0);

  // Mid-transition the object still serves (transitional protocol), and the next sweep
  // completes the abandoned switch.
  world.cluster->failure_injector().ClearCrashSchedule();
  EXPECT_EQ(world.Call("mix", "a|1|1"), "seed");
  advisor.RunOnce();
  world.cluster->scheduler().Run();
  EXPECT_EQ(world.switcher->switches_completed(), 1);
  EXPECT_EQ(world.Call("mix", "a|1|0"), "a=0");
}

TEST(OnlineAdvisorTest, ReadersInternNoStreamUntilTheAdvisorFires) {
  // An object's transition stream has one writer, the switch (DESIGN.md §11). SSFs reading
  // and writing the object, and advisor sweeps that leave it alone, only look the stream up:
  // it stays absent and the object resolves to the default. Once the advisor fires, an SSF
  // that starts after the END resolves to the target.
  World world(/*advisor=*/true, ProtocolKind::kHalfmoonRead);
  world.runtime->PopulateObject("a", "seed");
  sharedlog::TagRegistry& tags = world.cluster->log_space().tags();
  auto stream = [&] { return tags.FindPrefixed(sharedlog::kObjectTransitionPrefix, "a"); };
  auto logged = [&](ProtocolKind kind) {
    return world.cluster->TotalLoggedBytesByClass(core::LogAppendClass(kind));
  };
  OnlineAdvisor advisor(world.runtime.get(), world.switcher.get(), TestAdvisorConfig());

  EXPECT_EQ(world.Call("mix", "a|3|3"), "seed");
  EXPECT_GT(logged(ProtocolKind::kHalfmoonRead), 0);  // Halfmoon-read logs its writes.
  EXPECT_EQ(logged(ProtocolKind::kHalfmoonWrite), 0);
  EXPECT_EQ(logged(ProtocolKind::kTransitional), 0);
  advisor.RunOnce();  // Six accesses: below min_ops, so the sweep leaves "a" alone.
  world.cluster->scheduler().Run();
  EXPECT_EQ(advisor.stats().objects_evaluated, 1);
  EXPECT_EQ(advisor.stats().switches_fired, 0);
  EXPECT_EQ(stream(), sharedlog::kInvalidTagId);

  const sharedlog::TagId write_tag = tags.FindPrefixed(sharedlog::kWriteLogPrefix, "a");
  for (int i = 0; i < 20; ++i) world.runtime->RecordAccess(write_tag, /*is_read=*/false);
  advisor.RunOnce();
  world.cluster->scheduler().Run();
  EXPECT_EQ(advisor.stats().switches_fired, 1);
  EXPECT_EQ(world.switcher->switches_completed(), 1);
  EXPECT_NE(stream(), sharedlog::kInvalidTagId);

  // After the END: Halfmoon-write logs the read, and nothing logs as Halfmoon-read.
  const int64_t hm_read = logged(ProtocolKind::kHalfmoonRead);
  const int64_t hm_write = logged(ProtocolKind::kHalfmoonWrite);
  EXPECT_EQ(world.Call("mix", "a|1|1"), "a=2");
  EXPECT_GT(logged(ProtocolKind::kHalfmoonWrite), hm_write);
  EXPECT_EQ(logged(ProtocolKind::kHalfmoonRead), hm_read);
  EXPECT_EQ(logged(ProtocolKind::kTransitional), 0);
}

TEST(OnlineAdvisorTest, SketchMemoryIndependentOfLiveObjects) {
  World world(/*advisor=*/true, ProtocolKind::kHalfmoonRead);
  const size_t before = world.runtime->sketch().MemoryBytes();
  for (int i = 0; i < 5000; ++i) {
    const sharedlog::TagId id = world.cluster->log_space().tags().InternPrefixed(
        sharedlog::kWriteLogPrefix, "wide" + std::to_string(i));
    world.runtime->RecordAccess(id, (i % 3) != 0);
  }
  EXPECT_EQ(world.runtime->sketch().MemoryBytes(), before);
  std::printf("[advisor] sketch bytes=%zu across 5000 live objects (constant)\n", before);
}

// ---------------------------------------------------------------------------
// Advisor-off bit-identity
// ---------------------------------------------------------------------------

uint64_t HashBytes(uint64_t h, std::string_view s) {
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

uint64_t HashInt(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
  return h;
}

struct PinnedRun {
  uint64_t events = 0;
  uint64_t end_now = 0;
  uint64_t next_seqnum = 0;
  uint64_t content_fnv = 0;
};

// Runs `workload` on a Halfmoon-read runtime. `intern_streams` interns every object's
// transition stream up front, as readers did before only switches interned them.
PinnedRun RunWithAdvisorFlag(faultcheck::Workload workload, bool advisor,
                             bool intern_streams = false) {
  runtime::ClusterConfig ccfg;  // Defaults: seed 1 — matches the PR 4 golden capture.
  runtime::Cluster cluster(ccfg);
  core::RuntimeConfig rcfg;
  rcfg.default_protocol = ProtocolKind::kHalfmoonRead;
  rcfg.advisor = advisor;
  core::SsfRuntime runtime(&cluster, rcfg);
  workload.Install(runtime);
  if (intern_streams) {
    for (const std::string& key : workload.keys) {
      core::ObjectTransitionTag(cluster.log_space().tags(), key);
    }
  }

  for (const auto& [function, input] : workload.invocations) {
    Value out;
    bool done = false;
    auto drive = [](core::SsfRuntime* rt, std::string fn, Value in, Value* o,
                    bool* d) -> sim::Task<void> {
      *o = co_await rt->InvokeSsf(std::move(fn), std::move(in));
      *d = true;
    };
    cluster.scheduler().Spawn(drive(&runtime, function, input, &out, &done));
    cluster.scheduler().Run();
    EXPECT_TRUE(done);
  }

  PinnedRun r;
  r.events = static_cast<uint64_t>(cluster.scheduler().events_processed());
  r.end_now = static_cast<uint64_t>(cluster.scheduler().Now());
  r.next_seqnum = static_cast<uint64_t>(cluster.log_space().next_seqnum());
  uint64_t h = 14695981039346656037ull;
  auto& log = cluster.log_space();
  for (const std::string& name : halfmoon::testing::LiveStreamNames(log, "")) {
    h = HashBytes(h, name);
    for (const auto& rec : log.ReadStream(name)) {
      h = HashInt(h, rec->tags.size());
      for (const auto& [key, field] : rec->fields) {
        h = HashBytes(h, key);
        if (const int64_t* i = std::get_if<int64_t>(&field)) {
          h = HashInt(h, static_cast<uint64_t>(*i));
        } else {
          h = HashBytes(h, std::get<std::string>(field));
        }
      }
    }
  }
  r.content_fnv = h;
  return r;
}

TEST(OnlineAdvisorTest, AdvisorOffIsBitIdenticalToStaticRuntime) {
  // The same golden tuple sharded_equivalence_test pins for Halfmoon-read/counter (captured
  // at the PR 4 head): with advisor mode off the runtime must still reproduce it exactly —
  // no extra events, no sketch, no resolution reads, identical committed content (the
  // content pin moved with that golden when step logs began retiring at workflow drain, when
  // drains began trimming the init stream, and when they began releasing superseded
  // write-log records).
  PinnedRun r = RunWithAdvisorFlag(faultcheck::CounterWorkload(), /*advisor=*/false);
  EXPECT_EQ(r.events, 88ull);
  EXPECT_EQ(r.end_now, 23700364ull);
  EXPECT_EQ(r.next_seqnum, 11ull);
  EXPECT_EQ(r.content_fnv, 0xe3e7cf21b28c1209ull);
  std::printf("[advisor] advisor-off content checksum 0x%llx (pinned)\n",
              static_cast<unsigned long long>(r.content_fnv));

  // Advisor mode with no advisor service running appends the same records — resolution is a
  // pure read. (Byte content is NOT compared: the resolution reads draw latency samples from
  // the shared rng, which shifts the random instance IDs embedded in record fields.)
  PinnedRun with_advisor = RunWithAdvisorFlag(faultcheck::CounterWorkload(), /*advisor=*/true);
  EXPECT_EQ(with_advisor.next_seqnum, r.next_seqnum);
}

TEST(OnlineAdvisorTest, AnUninternedStreamCostsWhatAnEmptyOneDoes) {
  // Whether an object's stream was ever interned must not show in the simulation: the
  // resolution read and its latency draw happen either way. A transfer SSF touches two
  // never-switched objects, so two absent streams sharing one cache entry would skip a read.
  for (const faultcheck::Workload& workload : faultcheck::AllWorkloads()) {
    SCOPED_TRACE(workload.name);
    PinnedRun found = RunWithAdvisorFlag(workload, /*advisor=*/true);
    PinnedRun interned = RunWithAdvisorFlag(workload, /*advisor=*/true, /*intern_streams=*/true);
    EXPECT_EQ(found.events, interned.events);
    EXPECT_EQ(found.end_now, interned.end_now);
    EXPECT_EQ(found.next_seqnum, interned.next_seqnum);
    EXPECT_EQ(found.content_fnv, interned.content_fnv);
  }
}

}  // namespace
}  // namespace halfmoon
