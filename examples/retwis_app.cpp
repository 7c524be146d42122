// Retwis on Halfmoon: runs the simplified-Twitter workload (§6.2) against both Halfmoon
// protocols and the Boki baseline under a mixed load, with duplicate-instance injection, and
// reports latency plus logging footprint. Shows how an application picks the right protocol
// for a read-intensive workload.
//
//   $ ./build/examples/retwis_app

#include <cstdio>

#include "src/core/advisor.h"
#include "src/core/gc_service.h"
#include "src/core/ssf_runtime.h"
#include "src/metrics/table_printer.h"
#include "src/runtime/cluster.h"
#include "src/workloads/applications.h"
#include "src/workloads/loadgen.h"

using namespace halfmoon;

namespace {

struct RunSummary {
  double median_ms;
  double p99_ms;
  int64_t log_appends;
  int64_t peers;
};

RunSummary RunRetwis(core::ProtocolKind protocol) {
  runtime::ClusterConfig cluster_config;
  cluster_config.seed = 7;
  runtime::Cluster cluster(cluster_config);

  core::RuntimeConfig runtime_config;
  runtime_config.default_protocol = protocol;
  core::SsfRuntime runtime(&cluster, runtime_config);

  workloads::AppDataset data;
  workloads::RegisterRetwisApp(runtime, data);

  core::GcService gc(&cluster, Seconds(10));
  gc.Start();

  // Make life hard: every ~20th invocation gets a racing duplicate instance.
  cluster.failure_injector().SetDuplicateProbability(0.05);

  workloads::LoadGenConfig load;
  load.requests_per_second = 500;
  load.warmup = Seconds(1);
  load.duration = Seconds(8);
  workloads::LoadGenerator generator(&runtime, load,
                                     workloads::RetwisRequestFactory(runtime, data));
  generator.RunToCompletion();
  gc.Stop();

  return RunSummary{generator.latency().MedianMs(), generator.latency().P99Ms(),
                    cluster.TotalLogAppends(), runtime.stats().peer_instances};
}

}  // namespace

int main() {
  std::printf("Retwis (post/follow/timeline/profile) at 500 req/s, 5%% duplicate instances\n\n");

  metrics::TablePrinter table({"protocol", "median_ms", "p99_ms", "log_appends", "peers"});
  for (core::ProtocolKind protocol :
       {core::ProtocolKind::kBoki, core::ProtocolKind::kHalfmoonWrite,
        core::ProtocolKind::kHalfmoonRead}) {
    RunSummary s = RunRetwis(protocol);
    table.AddRow({core::ProtocolName(protocol), metrics::TablePrinter::FormatDouble(s.median_ms),
                  metrics::TablePrinter::FormatDouble(s.p99_ms), std::to_string(s.log_appends),
                  std::to_string(s.peers)});
  }
  table.Print();

  // What would the §4.6 advisor have said? Retwis is read-dominated.
  core::WorkloadProfile profile;
  profile.read_probability = 0.85;
  profile.write_probability = 0.15;
  core::AdvisorReport report = core::AnalyzeWorkload(profile);
  std::printf("\nadvisor recommendation for this mix: %s\n",
              core::ProtocolName(report.recommendation));
  return 0;
}
