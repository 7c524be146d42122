// Fault-tolerance audit: exhaustively crash a transfer workflow at every crash point under
// every protocol and count the anomalies. The fault-tolerant protocols must come out clean;
// the unsafe baseline demonstrates why logging exists (§1's duplicated-write anomaly).
//
//   $ ./build/examples/fault_audit

#include <cstdio>

#include "src/core/ssf_runtime.h"
#include "src/metrics/table_printer.h"
#include "src/runtime/cluster.h"

using namespace halfmoon;

namespace {

// A transfer between two accounts: the invariant is conservation of the total balance, and
// the transfer must happen exactly once.
void RegisterTransfer(core::SsfRuntime& runtime) {
  runtime.PopulateObject("acct:a", EncodeInt64(100));
  runtime.PopulateObject("acct:b", EncodeInt64(100));
  runtime.RegisterFunction("transfer", [](core::SsfContext& ctx) -> sim::Task<Value> {
    int64_t amount = DecodeInt64(ctx.input());
    Value a = co_await ctx.Read("acct:a");
    Value b = co_await ctx.Read("acct:b");
    co_await ctx.Write("acct:a", EncodeInt64(DecodeInt64(a) - amount));
    co_await ctx.Write("acct:b", EncodeInt64(DecodeInt64(b) + amount));
    co_return "ok";
  });
  runtime.RegisterFunction("check", [](core::SsfContext& ctx) -> sim::Task<Value> {
    Value a = co_await ctx.Read("acct:a");
    Value b = co_await ctx.Read("acct:b");
    co_return a + "," + b;
  });
}

struct AuditResult {
  int64_t crash_sites = 0;
  int anomalies = 0;
};

// Runs the workflow once per crash site; an anomaly is any final state other than the
// exactly-once outcome (90, 110).
AuditResult Audit(core::ProtocolKind protocol) {
  AuditResult audit;
  runtime::ClusterConfig cluster_config;
  core::RuntimeConfig config;
  config.default_protocol = protocol;
  // Count the crash sites of a clean run.
  {
    runtime::Cluster cluster(cluster_config);
    core::SsfRuntime runtime(&cluster, config);
    RegisterTransfer(runtime);
    cluster.scheduler().Spawn([](core::SsfRuntime* rt) -> sim::Task<void> {
      co_await rt->InvokeSsf("transfer", EncodeInt64(10));
    }(&runtime));
    cluster.scheduler().Run();
    audit.crash_sites = cluster.failure_injector().site_hits();
  }

  for (int64_t site = 0; site < audit.crash_sites; ++site) {
    runtime::Cluster cluster(cluster_config);
    core::SsfRuntime runtime(&cluster, config);
    RegisterTransfer(runtime);
    cluster.failure_injector().CrashAtSiteHits({site});
    Value balances;
    cluster.scheduler().Spawn([](core::SsfRuntime* rt, Value* out) -> sim::Task<void> {
      co_await rt->InvokeSsf("transfer", EncodeInt64(10));
      *out = co_await rt->InvokeSsf("check", Value{});
    }(&runtime, &balances));
    cluster.scheduler().Run();
    if (balances != "90,110") ++audit.anomalies;
  }
  return audit;
}

}  // namespace

int main() {
  std::printf("Crash-at-every-site audit of a money transfer (exactly-once => 90,110)\n\n");
  metrics::TablePrinter table({"protocol", "crash_sites_tested", "anomalies"});
  for (core::ProtocolKind protocol :
       {core::ProtocolKind::kBoki, core::ProtocolKind::kHalfmoonRead,
        core::ProtocolKind::kHalfmoonWrite, core::ProtocolKind::kUnsafe}) {
    AuditResult audit = Audit(protocol);
    table.AddRow({core::ProtocolName(protocol), std::to_string(audit.crash_sites),
                  std::to_string(audit.anomalies)});
  }
  table.Print();
  std::printf("\nthe unsafe baseline shows the §1 anomaly: retrying a crashed function\n");
  std::printf("duplicates writes that already reached the external state\n");
  return 0;
}
