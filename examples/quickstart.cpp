// Quickstart: define two stateful serverless functions, run them on the simulated cluster
// under the Halfmoon-read protocol, and watch exactly-once semantics survive an injected
// crash.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "src/core/gc_service.h"
#include "src/core/ssf_runtime.h"
#include "src/runtime/cluster.h"

using namespace halfmoon;

int main() {
  // 1. A simulated cluster: 8 function nodes, a Boki-like shared log, a DynamoDB-like store.
  runtime::ClusterConfig cluster_config;
  cluster_config.seed = 2026;
  runtime::Cluster cluster(cluster_config);

  // 2. The Halfmoon runtime, using the log-free-read protocol.
  core::RuntimeConfig runtime_config;
  runtime_config.default_protocol = core::ProtocolKind::kHalfmoonRead;
  core::SsfRuntime runtime(&cluster, runtime_config);

  // 3. State: a bank account with an initial balance.
  runtime.PopulateObject("account:alice", EncodeInt64(100));

  // 4. Functions. `deposit` is the classic crash-sensitive read-modify-write; `audit` invokes
  //    `deposit` twice as a workflow.
  runtime.RegisterFunction("deposit", [](core::SsfContext& ctx) -> sim::Task<Value> {
    Value balance = co_await ctx.Read("account:alice");
    int64_t updated = DecodeInt64(balance) + DecodeInt64(ctx.input());
    co_await ctx.Compute();
    co_await ctx.Write("account:alice", EncodeInt64(updated));
    co_return EncodeInt64(updated);
  });
  runtime.RegisterFunction("audit", [](core::SsfContext& ctx) -> sim::Task<Value> {
    co_await ctx.Invoke("deposit", EncodeInt64(10));
    Value after = co_await ctx.Invoke("deposit", EncodeInt64(5));
    co_return after;
  });

  // 5. Inject a crash: the 7th crash site this run passes is right between the DB write and
  //    its commit log — the nastiest window. The runtime detects the failure and re-executes;
  //    the replayed SSF recovers its progress from the step log.
  cluster.failure_injector().CrashAtSiteHits({7});

  Value result;
  cluster.scheduler().Spawn([](core::SsfRuntime* rt, Value* out) -> sim::Task<void> {
    *out = co_await rt->InvokeSsf("audit", Value{});
  }(&runtime, &result));
  cluster.scheduler().Run();

  std::printf("workflow result:      %s (expected 115)\n", result.c_str());
  std::printf("crashes injected:     %lld\n",
              static_cast<long long>(runtime.stats().crashes));
  std::printf("attempts executed:    %lld (for %lld invocations)\n",
              static_cast<long long>(runtime.stats().attempts),
              static_cast<long long>(runtime.stats().invocations));
  std::printf("simulated time:       %.2f ms\n",
              ToMillisDouble(cluster.scheduler().Now()));
  std::printf("log records appended: %lld (reads were log-free!)\n",
              static_cast<long long>(cluster.TotalLogAppends()));

  // 6. Garbage-collect finished workflows.
  core::GcService gc(&cluster, Seconds(10));
  gc.RunOnce();
  std::printf("GC: trimmed %lld step logs, deleted %lld stale versions\n",
              static_cast<long long>(gc.stats().step_logs_trimmed),
              static_cast<long long>(gc.stats().versions_deleted));
  return 0;
}
