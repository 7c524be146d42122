// The serverless runtime: function registry, gateway dispatch, crash detection and retry,
// duplicate-instance injection, and the protocol-uniform Init/Invoke machinery.

#ifndef HALFMOON_CORE_SSF_RUNTIME_H_
#define HALFMOON_CORE_SSF_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/env.h"
#include "src/core/gc_service.h"
#include "src/core/ssf_context.h"
#include "src/metrics/workload_sketch.h"
#include "src/runtime/cluster.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace halfmoon::core {

struct RuntimeConfig {
  ProtocolKind default_protocol = ProtocolKind::kHalfmoonRead;

  // When true, the first state access of every SSF resolves its protocol through the
  // transition log (§4.7); when false, `default_protocol` applies unconditionally and the
  // lookup is skipped.
  bool enable_switching = false;
  std::string switch_scope = "global";

  // Crash handling: how quickly the platform detects a dead function and re-executes it, and
  // how many re-executions it attempts before giving up.
  SimDuration retry_delay = Milliseconds(1);
  int max_attempts = 200;

  // Delay after which a duplicate (peer) instance launches when the injector asks for one.
  SimDuration duplicate_delay = Milliseconds(5);

  // §4.3 remark: child SSFs may inherit their initial cursorTS from the parent's invoke-pre
  // record instead of appending an init record of their own. Disable for ablation.
  bool inherit_child_cursor = true;

  // §4.4 ordered-writes extension: insert a sync record between consecutive Halfmoon-write
  // writes to different objects, so dependent pairs cannot commute. Log-free in the best
  // case; off by default (most workloads make dependencies explicit through invocations).
  bool preserve_write_order = false;

  // Faultcheck negative control: Halfmoon-read writes silently skip the commit append, so
  // updates never become visible on the write log. Exists to prove the consistency oracle
  // detects a broken protocol; must never be set outside tests.
  bool drop_commit_append = false;

  // Advisor mode (DESIGN.md §11): every state access is counted in a space-bounded workload
  // sketch, and protocol resolution is per OBJECT — each object's "switch:k:<key>" stream
  // overrides default_protocol, so the background OnlineAdvisor can move individual objects
  // between HM-read and HM-write as their read ratio drifts. Off (the default) leaves
  // resolution, interning order, and committed content exactly as in the static runtime —
  // pinned by online_advisor_test's golden checksum.
  bool advisor = false;

  // Sketch geometry for advisor mode; the memory bound is a function of this alone.
  metrics::WorkloadSketchConfig sketch;
};

struct RuntimeStats : FrontierRelease {
  int64_t invocations = 0;
  int64_t attempts = 0;
  int64_t crashes = 0;
  int64_t peer_instances = 0;
  int64_t step_logs_retired = 0;  // Member step-log tags retired as their workflows drained.
};

class SsfRuntime {
 public:
  SsfRuntime(runtime::Cluster* cluster, RuntimeConfig config);

  void RegisterFunction(std::string name, SsfBody body);

  // Top-level entry point (the gateway): runs `name` as a new root invocation and returns its
  // result after any retries. Tracks the whole workflow for garbage collection.
  sim::Task<Value> InvokeSsf(std::string name, Value input);

  // Installs an object so that it is readable under every protocol: the LATEST slot, one
  // multi-version copy, and a write-log commit record. No latency (test/bench setup).
  void PopulateObject(const std::string& key, const Value& value);

  runtime::Cluster& cluster() { return *cluster_; }
  const RuntimeConfig& config() const { return config_; }

  // The transition stream an SSF resolves its protocol through (§4.7), as the id that keys
  // it in the per-attempt cache (Env::resolutions). In advisor mode (DESIGN.md §11) an access
  // to `object` (its interned write-log tag) resolves through the object's own stream, keyed
  // by `object` itself: the stream is interned only by a switch, so it may have no id yet.
  // Otherwise the scope's stream under enable_switching, keyed by its tag (interned on first
  // use). kInvalidTagId when none applies — a static run, an object-less step in advisor
  // mode, or a baseline default protocol, which never switches: the default holds.
  sharedlog::TagId TransitionStream(sharedlog::TagId object = sharedlog::kInvalidTagId);

  const RuntimeStats& stats() const { return stats_; }

  // ---- Advisor mode (DESIGN.md §11) ----
  bool advisor_enabled() const { return config_.advisor; }

  // The hot-path workload sketch (valid only in advisor mode). Single-owner, like every
  // other per-cluster metric: the full-protocol runtime lives on one scheduler.
  metrics::WorkloadSketch& sketch() { return *sketch_; }

  // O(depth) sketch bump for one state access. `object` is the interned write-log TagId —
  // the same id the advisor's keyspace walk and the KV version index use.
  void RecordAccess(sharedlog::TagId object, bool is_read) {
    if (is_read) {
      sketch_->RecordRead(object);
    } else {
      sketch_->RecordWrite(object);
    }
  }

  // Outstanding top-level invocations; benchmarks drain this before reading metrics.
  sim::WaitGroup& inflight() { return inflight_; }

 private:
  friend class ContextImpl;
  friend struct SsfRuntimeTestPeer;  // Drives RunAttempt directly in death tests.

  // The one record of SSF completion: a root invocation and every instance it transitively
  // calls. The root's init seqnum holds the GC/switch frontier until the *entire* workflow —
  // including lingering duplicate instances of its children — has drained; only then may
  // versions its members might read be collected. Every member and attempt shares it, so a
  // delayed peer can never outlive it.
  struct Workflow {
    std::string root_id;
    // Every member's step-log tag, once each (re-invocations and peers share an instance
    // id), recorded when an attempt's Init has interned it.
    std::vector<sharedlog::TagId> step_tags;
    int live_attempts = 0;
    bool root_done = false;
    // Set once the workflow has drained and its members' step-log tags were retired. No
    // attempt may start afterwards: interning a retired instance id would open a fresh,
    // empty step log and re-execute finished work.
    bool drained = false;
    sharedlog::SeqNum root_init = sharedlog::kInvalidSeqNum;  // Reported to the frontier.
  };

  struct InvocationState {
    bool done = false;
    Value result;
  };

  // Runs an invocation with a fixed instance ID (the root, callee invocations and
  // re-invocations) as a member of `workflow`. Child SSFs pass `inherited_cursor` — the
  // seqnum of the parent's invoke-pre record — and skip the init append entirely: per the
  // §4.3 remark, the initial cursorTS only needs to be deterministic, and can be inherited
  // from the parent SSF.
  sim::Task<Value> RunInvocation(std::string instance_id, std::shared_ptr<Workflow> workflow,
                                 std::string name, Value input,
                                 sharedlog::SeqNum inherited_cursor = sharedlog::kInvalidSeqNum);

  sim::Task<Value> RunAttempt(const std::shared_ptr<Workflow>& workflow,
                              const std::string& instance_id, const std::string& name,
                              const Value& input, int attempt,
                              sharedlog::SeqNum inherited_cursor);

  // Spawned when the platform suspects a timeout: races the primary attempt (§5.1).
  sim::Task<void> RunPeer(std::shared_ptr<InvocationState> state, std::string instance_id,
                          std::shared_ptr<Workflow> workflow, std::string name, Value input,
                          int attempt, sharedlog::SeqNum inherited_cursor);

  void MaybeFinishWorkflow(Workflow& workflow);

  runtime::Cluster* cluster_;
  RuntimeConfig config_;
  std::unordered_map<std::string, SsfBody> functions_;
  RuntimeStats stats_;
  sim::WaitGroup inflight_;
  uint64_t next_invocation_ = 0;
  sharedlog::TagId scope_transition_tag_ = sharedlog::kInvalidTagId;  // See TransitionStream.
  std::unique_ptr<metrics::WorkloadSketch> sketch_;  // Non-null iff advisor mode.
};

}  // namespace halfmoon::core

#endif  // HALFMOON_CORE_SSF_RUNTIME_H_
