// Shared test harness: a small simulated cluster + runtime, and synchronous drivers that run
// the scheduler to completion.

#ifndef HALFMOON_TESTS_TESTING_TEST_WORLD_H_
#define HALFMOON_TESTS_TESTING_TEST_WORLD_H_

#include <memory>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/core/ssf_runtime.h"
#include "src/runtime/cluster.h"

namespace halfmoon::testing {

// Interned write-log tag id for `key` — the handle versioned-KV assertions address objects
// by since the tag-interning change. Interns on miss so seeding helpers can use it too.
inline kvstore::ObjectId ObjectIdFor(runtime::Cluster& cluster, const std::string& key) {
  return cluster.log_space().tags().InternPrefixed(sharedlog::kWriteLogPrefix, key);
}

struct TestWorldOptions {
  core::ProtocolKind protocol = core::ProtocolKind::kHalfmoonRead;
  uint64_t seed = 1;
  bool enable_switching = false;
  bool advisor = false;  // RuntimeConfig::advisor: per-object transition streams.
  int function_nodes = 4;
  int workers_per_node = 8;
  int log_shards = 1;  // Shared-log shard count.
};

class TestWorld {
 public:
  explicit TestWorld(const TestWorldOptions& options = TestWorldOptions{}) {
    runtime::ClusterConfig ccfg;
    ccfg.seed = options.seed;
    ccfg.function_nodes = options.function_nodes;
    ccfg.workers_per_node = options.workers_per_node;
    ccfg.log_shards = options.log_shards;
    cluster_ = std::make_unique<runtime::Cluster>(ccfg);

    core::RuntimeConfig rcfg;
    rcfg.default_protocol = options.protocol;
    rcfg.enable_switching = options.enable_switching;
    rcfg.advisor = options.advisor;
    runtime_ = std::make_unique<core::SsfRuntime>(cluster_.get(), rcfg);
  }

  runtime::Cluster& cluster() { return *cluster_; }
  kvstore::ObjectId ObjectIdFor(const std::string& key) {
    return testing::ObjectIdFor(*cluster_, key);
  }
  core::SsfRuntime& runtime() { return *runtime_; }
  sim::Scheduler& scheduler() { return cluster_->scheduler(); }

  void Register(std::string name, core::SsfBody body) {
    runtime_->RegisterFunction(std::move(name), std::move(body));
  }

  // Invokes `name` and drains the scheduler; returns the SSF result.
  Value Call(const std::string& name, Value input = Value{}) {
    Value out;
    bool done = false;
    scheduler().Spawn(CallTask(name, std::move(input), &out, &done));
    scheduler().Run();
    HM_CHECK_MSG(done, "TestWorld::Call: invocation did not complete");
    return out;
  }

  // Spawns an invocation without waiting (for concurrency tests); pair with scheduler().Run().
  void CallAsync(const std::string& name, Value input = Value{}, Value* out = nullptr,
                 bool* done = nullptr) {
    scheduler().Spawn(CallTask(name, std::move(input), out, done));
  }

 private:
  sim::Task<void> CallTask(std::string name, Value input, Value* out, bool* done) {
    Value result = co_await runtime_->InvokeSsf(std::move(name), std::move(input));
    if (out != nullptr) *out = std::move(result);
    if (done != nullptr) *done = true;
  }

  std::unique_ptr<runtime::Cluster> cluster_;
  std::unique_ptr<core::SsfRuntime> runtime_;
};

}  // namespace halfmoon::testing

#endif  // HALFMOON_TESTS_TESTING_TEST_WORLD_H_
