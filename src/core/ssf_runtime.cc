#include "src/core/ssf_runtime.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/core/log_steps.h"
#include "src/core/protocols.h"
#include "src/core/switch_manager.h"
#include "src/sharedlog/log_record.h"

namespace halfmoon::core {

using sharedlog::LogRecord;
using sharedlog::LogRecordPtr;
using sharedlog::SeqNum;

// ---------------------------------------------------------------------------
// ContextImpl: protocol dispatch for one attempt
// ---------------------------------------------------------------------------

class ContextImpl final : public SsfContext {
 public:
  ContextImpl(SsfRuntime* runtime, Env* env, const Value* input,
              std::shared_ptr<SsfRuntime::Workflow> workflow)
      : runtime_(runtime), env_(env), input_(input), workflow_(std::move(workflow)) {}

  sim::Task<Value> Read(std::string key) override {
    ProtocolResolution res = co_await ResolveFor(key, /*is_read=*/true);
    switch (res.kind) {
      case ProtocolKind::kUnsafe:
        co_return co_await protocols::UnsafeRead(*env_, key);
      case ProtocolKind::kBoki:
        co_return co_await protocols::BokiRead(*env_, key);
      case ProtocolKind::kHalfmoonRead:
        co_return co_await protocols::HalfmoonReadRead(*env_, key, res.post_switch);
      case ProtocolKind::kHalfmoonWrite:
        co_return co_await protocols::HalfmoonWriteRead(*env_, key, res.post_switch);
      case ProtocolKind::kTransitional:
        co_return co_await protocols::TransitionalRead(*env_, key);
    }
    HM_CHECK_MSG(false, "unreachable");
  }

  sim::Task<void> Write(std::string key, Value value) override {
    ProtocolResolution res = co_await ResolveFor(key, /*is_read=*/false);
    switch (res.kind) {
      case ProtocolKind::kUnsafe:
        co_return co_await protocols::UnsafeWrite(*env_, key, std::move(value));
      case ProtocolKind::kBoki:
        co_return co_await protocols::BokiWrite(*env_, key, std::move(value));
      case ProtocolKind::kHalfmoonRead:
        co_return co_await protocols::HalfmoonReadWrite(*env_, key, std::move(value));
      case ProtocolKind::kHalfmoonWrite:
        co_return co_await protocols::HalfmoonWriteWrite(*env_, key, std::move(value));
      case ProtocolKind::kTransitional:
        co_return co_await protocols::TransitionalWrite(*env_, key, std::move(value));
    }
    HM_CHECK_MSG(false, "unreachable");
  }

  sim::Task<Value> Invoke(std::string function, Value input) override {
    ProtocolKind kind = runtime_->config().default_protocol;
    if (kind == ProtocolKind::kUnsafe) {
      // No logging: a retried parent re-invokes under a fresh instance ID and the callee
      // re-executes in full — the §1 duplication anomaly, kept as the negative control.
      std::string callee = env_->instance_id + "/" + env_->RandomId();
      co_return co_await CallChild(std::move(callee), std::move(function), std::move(input),
                                   sharedlog::kInvalidSeqNum);
    }
    if (kind == ProtocolKind::kBoki) {
      co_return co_await InvokeBoki(std::move(function), std::move(input));
    }
    co_return co_await InvokeLogged(std::move(function), std::move(input));
  }

  sim::Task<std::vector<Value>> InvokeAll(
      std::vector<std::pair<std::string, Value>> calls) override {
    HM_CHECK(!calls.empty());
    ProtocolKind kind = runtime_->config().default_protocol;
    if (kind == ProtocolKind::kUnsafe) {
      std::vector<SeqNum> cursors(calls.size(), sharedlog::kInvalidSeqNum);
      co_return co_await RunChildrenConcurrently(MakeRandomCallees(calls.size()),
                                                 std::move(calls), std::move(cursors));
    }
    if (kind == ProtocolKind::kBoki) {
      co_return co_await InvokeAllBoki(std::move(calls));
    }
    co_return co_await InvokeAllLogged(std::move(calls));
  }

  sim::Task<void> Compute() override {
    co_await env_->cluster->scheduler().Delay(
        env_->cluster->models().compute_step.Sample(env_->cluster->rng()));
  }

  sim::Task<void> Sync() override {
    ProtocolResolution res = co_await Resolve(runtime_->TransitionStream());
    if (res.kind == ProtocolKind::kUnsafe || res.kind == ProtocolKind::kBoki) {
      co_return;  // Already real-time (Boki) or no guarantees at all (unsafe).
    }
    // Append a sync record to acquire an up-to-date seqnum (§4.4): subsequent reads observe
    // every operation that finished before this point in real time.
    env_->step += 1;
    FieldMap fields;
    fields.Reserve(2);
    fields.SetStr(kFieldOp, "sync");
    fields.SetInt(kFieldStep, env_->step);
    co_await LogStep(*env_, sharedlog::NoTags(), std::move(fields));
  }

  const Value& input() const override { return *input_; }
  const std::string& instance_id() const override { return env_->instance_id; }

 private:
  // Runs a child invocation with the parent's worker slot released for the duration: a
  // function blocked on a synchronous sub-invocation consumes no executor, and holding the
  // slot would deadlock the pool once every worker hosts a waiting parent.
  sim::Task<Value> CallChild(std::string callee, std::string function, Value input,
                             SeqNum inherited_cursor) {
    env_->node->workers().Release();
    Value result = co_await runtime_->RunInvocation(std::move(callee), workflow_,
                                                    std::move(function), std::move(input),
                                                    inherited_cursor);
    co_await env_->node->workers().Acquire();
    co_return result;
  }

  std::vector<std::string> MakeRandomCallees(size_t n) {
    std::vector<std::string> callees;
    callees.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      callees.push_back(env_->instance_id + "/" + env_->RandomId());
    }
    return callees;
  }

  // Runs the child invocations concurrently with the parent's worker slot released once for
  // the whole group (the parent is blocked; the children need their own slots).
  sim::Task<std::vector<Value>> RunChildrenConcurrently(
      std::vector<std::string> callees, std::vector<std::pair<std::string, Value>> calls,
      std::vector<SeqNum> cursors) {
    HM_CHECK(cursors.size() == calls.size());
    env_->node->workers().Release();
    std::vector<sim::JoinHandle<Value>> handles;
    handles.reserve(calls.size());
    for (size_t i = 0; i < calls.size(); ++i) {
      handles.push_back(sim::SpawnJoinable(
          env_->cluster->scheduler(),
          runtime_->RunInvocation(callees[i], workflow_, std::move(calls[i].first),
                                  std::move(calls[i].second), cursors[i])));
    }
    std::vector<Value> results;
    results.reserve(handles.size());
    for (sim::JoinHandle<Value>& handle : handles) {
      results.push_back(co_await handle);
    }
    co_await env_->node->workers().Acquire();
    co_return results;
  }

  // Scatter-gather invoke for the Halfmoon protocols: one batched round pins all callee IDs,
  // the callees run concurrently, one batched round pins all results.
  sim::Task<std::vector<Value>> InvokeAllLogged(
      std::vector<std::pair<std::string, Value>> calls) {
    Env& env = *env_;
    const size_t n = calls.size();

    env.MaybeCrash("invoke_all.before");
    std::vector<FieldMap> pre_fields(n);
    for (size_t i = 0; i < n; ++i) {
      env.step += 1;
      pre_fields[i].Reserve(3);
      pre_fields[i].SetStr(kFieldOp, "invoke-pre");
      pre_fields[i].SetInt(kFieldStep, env.step);
      pre_fields[i].SetStr(kFieldCallee, env.instance_id + "/" + env.RandomId());
    }
    BatchLogResult pres = co_await LogStepBatch(env, std::move(pre_fields));
    std::vector<std::string> callees;
    std::vector<SeqNum> cursors;
    callees.reserve(n);
    cursors.reserve(n);
    for (const LogRecordPtr& record : pres.records) {
      callees.emplace_back(record->fields.GetStr(kFieldCallee));
      cursors.push_back(record->seqnum);
    }

    // If the post batch is already in the step log, skip the calls entirely.
    std::vector<Value> results;
    if (const LogRecord* cached = PeekNextLog(env);
        cached != nullptr && cached->op == sharedlog::kOpInvoke) {
      std::vector<FieldMap> post_fields(n);
      for (size_t i = 0; i < n; ++i) {
        post_fields[i].SetStr(kFieldOp, "invoke");
      }
      BatchLogResult posts = co_await LogStepBatch(env, std::move(post_fields));
      for (const LogRecordPtr& record : posts.records) {
        results.emplace_back(record->fields.GetStr(kFieldResult));
      }
      co_return results;
    }

    env.MaybeCrash("invoke_all.after_prelog");
    results = co_await RunChildrenConcurrently(callees, std::move(calls), cursors);
    env.MaybeCrash("invoke_all.after_calls");

    std::vector<FieldMap> post_fields(n);
    for (size_t i = 0; i < n; ++i) {
      post_fields[i].Reserve(3);
      post_fields[i].SetStr(kFieldOp, "invoke");
      post_fields[i].SetInt(kFieldStep, pres.records[i]->fields.GetInt(kFieldStep));
      post_fields[i].SetStr(kFieldResult, results[i]);
    }
    BatchLogResult posts = co_await LogStepBatch(env, std::move(post_fields));
    if (posts.recovered) {
      results.clear();
      for (const LogRecordPtr& record : posts.records) {
        results.emplace_back(record->fields.GetStr(kFieldResult));
      }
    }
    env.MaybeCrash("invoke_all.after_postlog");
    co_return results;
  }

  // Boki's scatter-gather: step-keyed records, appended concurrently (its recovery does not
  // depend on stream positions).
  sim::Task<std::vector<Value>> InvokeAllBoki(
      std::vector<std::pair<std::string, Value>> calls) {
    Env& env = *env_;
    const size_t n = calls.size();
    const sharedlog::TagId step_tag = env.step_tag;

    env.MaybeCrash("invoke_all.before");
    std::vector<int64_t> steps(n);
    std::vector<std::string> callees(n);
    std::vector<SeqNum> pre_seqs(n, sharedlog::kInvalidSeqNum);
    std::vector<bool> have_result(n, false);
    std::vector<Value> results(n);
    for (size_t i = 0; i < n; ++i) {
      env.step += 1;
      steps[i] = env.step;
      for (const LogRecordPtr& record : env.step_logs) {
        if (record->fields.GetInt(kFieldStep) != steps[i]) continue;
        if (record->op == sharedlog::kOpInvokePre) {
          callees[i] = record->fields.GetStr(kFieldCallee);
          pre_seqs[i] = record->seqnum;
        } else if (record->op == sharedlog::kOpInvoke) {
          results[i] = record->fields.GetStr(kFieldResult);
          have_result[i] = true;
        }
      }
    }

    // Log missing pre records (one batched append round, as Boki clients batch).
    std::vector<sharedlog::ShardedLog::BatchEntry> pre_batch;
    for (size_t i = 0; i < n; ++i) {
      if (!callees[i].empty()) continue;
      callees[i] = env.instance_id + "/" + env.RandomId();
      sharedlog::ShardedLog::BatchEntry entry;
      entry.tags = sharedlog::OneTag(step_tag);
      entry.fields.Reserve(3);
      entry.fields.SetStr(kFieldOp, "invoke-pre");
      entry.fields.SetInt(kFieldStep, steps[i]);
      entry.fields.SetStr(kFieldCallee, callees[i]);
      pre_batch.push_back(std::move(entry));
    }
    if (!pre_batch.empty()) {
      co_await env.attempt_log().AppendBatch(std::move(pre_batch));
      for (size_t i = 0; i < n; ++i) {
        LogRecordPtr first = env.cluster->log_space().FindFirstByStep(
            step_tag, sharedlog::kOpInvokePre, steps[i]);
        if (first != nullptr) {
          callees[i] = first->fields.GetStr(kFieldCallee);
          pre_seqs[i] = first->seqnum;
        }
      }
    }

    env.MaybeCrash("invoke_all.after_prelog");
    std::vector<std::pair<std::string, Value>> pending;
    std::vector<size_t> pending_index;
    for (size_t i = 0; i < n; ++i) {
      if (!have_result[i]) {
        pending.push_back(std::move(calls[i]));
        pending_index.push_back(i);
      }
    }
    if (!pending.empty()) {
      std::vector<std::string> pending_callees;
      std::vector<SeqNum> pending_cursors;
      for (size_t idx : pending_index) {
        pending_callees.push_back(callees[idx]);
        pending_cursors.push_back(pre_seqs[idx]);
      }
      std::vector<Value> fresh = co_await RunChildrenConcurrently(
          std::move(pending_callees), std::move(pending), std::move(pending_cursors));
      std::vector<sharedlog::ShardedLog::BatchEntry> post_batch;
      for (size_t j = 0; j < pending_index.size(); ++j) {
        results[pending_index[j]] = fresh[j];
        sharedlog::ShardedLog::BatchEntry entry;
        entry.tags = sharedlog::OneTag(step_tag);
        entry.fields.Reserve(3);
        entry.fields.SetStr(kFieldOp, "invoke");
        entry.fields.SetInt(kFieldStep, steps[pending_index[j]]);
        entry.fields.SetStr(kFieldResult, fresh[j]);
        post_batch.push_back(std::move(entry));
      }
      co_await env.attempt_log().AppendBatch(std::move(post_batch));
      for (size_t i = 0; i < n; ++i) {
        LogRecordPtr first =
            env.cluster->log_space().FindFirstByStep(step_tag, sharedlog::kOpInvoke, steps[i]);
        if (first != nullptr) results[i] = first->fields.GetStr(kFieldResult);
      }
    }
    co_return results;
  }

  // The protocol of an access to `key`. In advisor mode the access is first counted in the
  // workload sketch and resolves through the object's own stream.
  sim::Task<ProtocolResolution> ResolveFor(const std::string& key, bool is_read) {
    if (!runtime_->config().advisor) return Resolve(runtime_->TransitionStream());
    const sharedlog::TagId object = env_->WriteTag(key);
    runtime_->RecordAccess(object, is_read);
    return Resolve(runtime_->TransitionStream(object), &key);
  }

  // §4.7: resolves the protocol from a transition stream at the initial cursorTS, so that
  // re-executions resolve identically; cached per attempt under `stream` (see
  // SsfRuntime::TransitionStream). No stream (kInvalidTagId) means the configured default,
  // with no lookup at all. With `object` set, the stream is that object's, found by name: a
  // stream no switch has interned reads as empty, at the same cost as one that exists.
  sim::Task<ProtocolResolution> Resolve(sharedlog::TagId stream,
                                        const std::string* object = nullptr) {
    ProtocolResolution res;
    res.kind = runtime_->config().default_protocol;
    if (stream == sharedlog::kInvalidTagId) co_return res;
    for (const auto& [cached_stream, cached] : env_->resolutions) {
      if (cached_stream == stream) co_return cached;
    }
    const sharedlog::TagId transition_tag =
        object == nullptr ? stream : FindObjectTransitionTag(env_->log().tags(), *object);
    LogRecordPtr record = co_await env_->log().ReadPrev(transition_tag, env_->init_cursor_ts);
    res = ResolveTransition(record, res.kind);
    env_->resolutions.emplace_back(stream, res);
    co_return res;
  }

  // Invoke for the Halfmoon protocols (Figure 5, lines 31-44): a synchronous pre record pins
  // the callee's instance ID; a synchronous post record pins the result and advances cursorTS
  // monotonically across the workflow.
  sim::Task<Value> InvokeLogged(std::string function, Value input) {
    Env& env = *env_;
    env.step += 1;

    FieldMap pre_fields;
    pre_fields.Reserve(3);
    pre_fields.SetStr(kFieldOp, "invoke-pre");
    pre_fields.SetInt(kFieldStep, env.step);
    pre_fields.SetStr(kFieldCallee, env.instance_id + "/" + env.RandomId());
    env.MaybeCrash("invoke.before");
    StepLogResult pre = co_await LogStep(env, sharedlog::NoTags(), std::move(pre_fields));
    std::string callee(pre.record->fields.GetStr(kFieldCallee));

    // Skip the call entirely if the result was already logged (Figure 5, lines 33-36).
    if (const LogRecord* cached = PeekNextLog(env);
        cached != nullptr && cached->op == sharedlog::kOpInvoke) {
      FieldMap post_fields;
      post_fields.Reserve(2);
      post_fields.SetStr(kFieldOp, "invoke");
      post_fields.SetInt(kFieldStep, env.step);
      StepLogResult post = co_await LogStep(env, sharedlog::NoTags(), std::move(post_fields));
      co_return Value(post.record->fields.GetStr(kFieldResult));
    }

    env.MaybeCrash("invoke.after_prelog");
    Value result = co_await CallChild(callee, std::move(function), std::move(input),
                                      pre.record->seqnum);
    env.MaybeCrash("invoke.after_call");

    FieldMap post_fields;
    post_fields.Reserve(3);
    post_fields.SetStr(kFieldOp, "invoke");
    post_fields.SetInt(kFieldStep, env.step);
    post_fields.SetStr(kFieldResult, result);
    StepLogResult post = co_await LogStep(env, sharedlog::NoTags(), std::move(post_fields));
    if (post.recovered) {
      result = post.record->fields.GetStr(kFieldResult);
    }
    env.MaybeCrash("invoke.after_postlog");
    co_return result;
  }

  // Boki's invoke uses step-keyed recovery (its asynchronous write markers make stream
  // positions non-deterministic) with first-record-wins conflict resolution.
  sim::Task<Value> InvokeBoki(std::string function, Value input) {
    Env& env = *env_;
    env.step += 1;
    const sharedlog::TagId step_tag = env.step_tag;

    std::string callee;
    SeqNum pre_seq = sharedlog::kInvalidSeqNum;
    for (const LogRecordPtr& record : env.step_logs) {
      if (record->fields.GetInt(kFieldStep) == env.step) {
        if (record->op == sharedlog::kOpInvokePre) {
          callee = record->fields.GetStr(kFieldCallee);
          pre_seq = record->seqnum;
        } else if (record->op == sharedlog::kOpInvoke) {
          co_return Value(record->fields.GetStr(kFieldResult));
        }
      }
    }
    if (callee.empty()) {
      env.MaybeCrash("invoke.before");
      FieldMap pre_fields;
      pre_fields.Reserve(3);
      pre_fields.SetStr(kFieldOp, "invoke-pre");
      pre_fields.SetInt(kFieldStep, env.step);
      pre_fields.SetStr(kFieldCallee, env.instance_id + "/" + env.RandomId());
      co_await env.attempt_log().Append(sharedlog::OneTag(step_tag),
                                        std::move(pre_fields));
      LogRecordPtr first =
          env.cluster->log_space().FindFirstByStep(step_tag, sharedlog::kOpInvokePre, env.step);
      HM_CHECK(first != nullptr);
      callee = first->fields.GetStr(kFieldCallee);
      pre_seq = first->seqnum;
    }

    env.MaybeCrash("invoke.after_prelog");
    Value result = co_await CallChild(callee, std::move(function), std::move(input), pre_seq);
    env.MaybeCrash("invoke.after_call");

    FieldMap post_fields;
    post_fields.Reserve(3);
    post_fields.SetStr(kFieldOp, "invoke");
    post_fields.SetInt(kFieldStep, env.step);
    post_fields.SetStr(kFieldResult, result);
    co_await env.attempt_log().Append(sharedlog::OneTag(step_tag), std::move(post_fields));
    LogRecordPtr first =
        env.cluster->log_space().FindFirstByStep(step_tag, sharedlog::kOpInvoke, env.step);
    if (first != nullptr) result = first->fields.GetStr(kFieldResult);
    co_return result;
  }

  SsfRuntime* runtime_;
  Env* env_;
  const Value* input_;
  std::shared_ptr<SsfRuntime::Workflow> workflow_;
};

// ---------------------------------------------------------------------------
// SsfRuntime
// ---------------------------------------------------------------------------

SsfRuntime::SsfRuntime(runtime::Cluster* cluster, RuntimeConfig config)
    : cluster_(cluster), config_(config), inflight_(&cluster->scheduler()) {
  if (config_.advisor) {
    sketch_ = std::make_unique<metrics::WorkloadSketch>(config_.sketch);
  }
}

sharedlog::TagId SsfRuntime::TransitionStream(sharedlog::TagId object) {
  if (config_.default_protocol == ProtocolKind::kUnsafe ||
      config_.default_protocol == ProtocolKind::kBoki) {
    return sharedlog::kInvalidTagId;
  }
  if (config_.advisor && object != sharedlog::kInvalidTagId) return object;
  if (!config_.enable_switching) return sharedlog::kInvalidTagId;
  if (scope_transition_tag_ == sharedlog::kInvalidTagId) {
    scope_transition_tag_ = ScopeTransitionTag(cluster_->log_space().tags(), config_.switch_scope);
  }
  return scope_transition_tag_;
}

void SsfRuntime::RegisterFunction(std::string name, SsfBody body) {
  functions_[std::move(name)] = std::move(body);
}

sim::Task<Value> SsfRuntime::InvokeSsf(std::string name, Value input) {
  auto workflow = std::make_shared<Workflow>();
  workflow->root_id = name + "#" + std::to_string(next_invocation_++);
  inflight_.Add();
  ++stats_.invocations;
  Value result;
  try {
    result = co_await RunInvocation(workflow->root_id, workflow, std::move(name),
                                    std::move(input));
  } catch (...) {
    inflight_.Done();
    throw;
  }
  inflight_.Done();
  co_return result;
}

sim::Task<Value> SsfRuntime::RunInvocation(std::string instance_id,
                                           std::shared_ptr<Workflow> workflow,
                                           std::string name, Value input,
                                           sharedlog::SeqNum inherited_cursor) {
  auto state = std::make_shared<InvocationState>();

  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (state->done) break;  // A peer instance completed the work.

    // The platform may suspect a timeout and race a duplicate instance (§5.1).
    if (cluster_->failure_injector().ShouldDuplicate(cluster_->rng())) {
      ++stats_.peer_instances;
      cluster_->scheduler().Spawn(RunPeer(state, instance_id, workflow, name, input,
                                          attempt + 1000, inherited_cursor));
    }

    ++stats_.attempts;
    ++workflow->live_attempts;
    bool crashed = false;
    try {
      Value result =
          co_await RunAttempt(workflow, instance_id, name, input, attempt, inherited_cursor);
      if (!state->done) {
        state->done = true;
        state->result = std::move(result);
      }
    } catch (const runtime::SsfCrashed&) {
      ++stats_.crashes;
      crashed = true;
    }
    --workflow->live_attempts;
    if (!crashed) break;
    // Crash detected: the platform re-executes after the detection delay.
    co_await cluster_->scheduler().Delay(config_.retry_delay);
  }

  HM_CHECK_MSG(state->done, "invocation exhausted its retry budget");
  Value result = state->result;
  if (instance_id == workflow->root_id) {
    workflow->root_done = true;
  }
  MaybeFinishWorkflow(*workflow);
  co_return result;
}

sim::Task<Value> SsfRuntime::RunAttempt(const std::shared_ptr<Workflow>& workflow,
                                        const std::string& instance_id, const std::string& name,
                                        const Value& input, int attempt,
                                        sharedlog::SeqNum inherited_cursor) {
  HM_CHECK_MSG(!workflow->drained, "SsfRuntime: attempt started on a drained workflow");
  auto it = functions_.find(name);
  HM_CHECK_MSG(it != functions_.end(), "unknown function");

  // Gateway dispatch hop, then wait for a worker slot on the chosen node.
  co_await cluster_->scheduler().Delay(
      cluster_->models().invoke_dispatch.Sample(cluster_->rng()));
  runtime::FunctionNode& node = cluster_->PickNode();
  co_await node.workers().Acquire();
  sim::SemaphoreGuard guard(&node.workers());

  Env env;
  env.instance_id = instance_id;
  env.attempt = attempt;
  env.cluster = cluster_;
  env.node = &node;
  env.preserve_write_order = config_.preserve_write_order;
  env.drop_commit_append = config_.drop_commit_append;

  ContextImpl context(this, &env, &input, workflow);
  if (config_.default_protocol != ProtocolKind::kUnsafe) {
    if (inherited_cursor == sharedlog::kInvalidSeqNum || !config_.inherit_child_cursor) {
      co_await InitSsf(env, input);
      // Only the root's init record feeds the GC/switch frontier: it is older than every
      // member's and holds the frontier until the whole workflow drains. Every attempt
      // recovers the same record, so the first report wins.
      if (workflow->root_init == sharedlog::kInvalidSeqNum && instance_id == workflow->root_id) {
        workflow->root_init = env.init_cursor_ts;
        cluster_->AddRunningRoot(workflow->root_init);
      }
    } else {
      co_await InitChildSsf(env, inherited_cursor);
    }
    std::vector<sharedlog::TagId>& tags = workflow->step_tags;
    if (std::ranges::find(tags, env.step_tag) == tags.end()) tags.push_back(env.step_tag);
  }
  co_return co_await it->second(context);
}

sim::Task<void> SsfRuntime::RunPeer(std::shared_ptr<InvocationState> state,
                                    std::string instance_id, std::shared_ptr<Workflow> workflow,
                                    std::string name, Value input, int attempt,
                                    sharedlog::SeqNum inherited_cursor) {
  co_await cluster_->scheduler().Delay(config_.duplicate_delay);
  if (state->done) co_return;  // The primary finished before the peer launched.
  ++stats_.attempts;
  ++workflow->live_attempts;
  try {
    Value result =
        co_await RunAttempt(workflow, instance_id, name, input, attempt, inherited_cursor);
    if (!state->done) {
      state->done = true;
      state->result = std::move(result);
    }
  } catch (const runtime::SsfCrashed&) {
    // Peers are not retried; the primary's retry loop drives progress.
    ++stats_.crashes;
  }
  --workflow->live_attempts;
  MaybeFinishWorkflow(*workflow);
}

void SsfRuntime::MaybeFinishWorkflow(Workflow& workflow) {
  if (!workflow.root_done || workflow.live_attempts > 0 || workflow.drained) return;
  // The whole workflow has drained: the root's init record may now release the GC/switch
  // frontier, the init and superseded write-log records the frontier passes and every
  // member's step log are garbage (§4.5): all of them go now, not at the next GC scan.
  // Nothing runs in the workflow afterwards: each member invocation is awaited by some
  // attempt, so all have completed, and a delayed peer wakes to a done invocation and never
  // starts an attempt (RunAttempt enforces it). A round a crashed attempt left in flight
  // may still land; the log refuses it.
  workflow.drained = true;
  if (workflow.root_init != sharedlog::kInvalidSeqNum) {
    cluster_->RemoveRunningRoot(workflow.root_init);
  }
  ReleaseBelowFrontier(*cluster_, &stats_);
  sharedlog::ShardedLog& log = cluster_->log_space();
  for (sharedlog::TagId tag : workflow.step_tags) log.Retire(cluster_->scheduler().Now(), tag);
  stats_.step_logs_retired += static_cast<int64_t>(workflow.step_tags.size());
  log.ReleaseRetired();
}

void SsfRuntime::PopulateObject(const std::string& key, const Value& value) {
  SimTime now = cluster_->scheduler().Now();
  // Seed only the representation the configured protocol actually reads, so storage
  // accounting reflects each protocol's §4.6 model: a single LATEST version under
  // Halfmoon-write/Boki/unsafe, versions + write-log records under Halfmoon-read. With
  // switching enabled both schemes coexist (§5.2) and both are seeded.
  bool single_version = config_.default_protocol != ProtocolKind::kHalfmoonRead;
  bool multi_version = config_.default_protocol == ProtocolKind::kHalfmoonRead;
  if (config_.enable_switching || config_.advisor) {
    // Objects may end up on either protocol at runtime, so both representations coexist
    // (§5.2) and both are seeded.
    single_version = true;
    multi_version = true;
  }
  if (single_version) {
    cluster_->kv_state().Put(now, key, value);
  }
  if (!multi_version) return;
  // One multi-version copy plus its write-log commit record (Halfmoon-read path).
  std::string version = "seed:" + key;
  sharedlog::TagId write_tag =
      cluster_->log_space().tags().InternPrefixed(sharedlog::kWriteLogPrefix, key);
  cluster_->kv_state().PutVersioned(now, write_tag, version, value);
  FieldMap fields;
  fields.Reserve(3);
  fields.SetStr(kFieldOp, "write");
  fields.SetInt(kFieldStep, 0);
  fields.SetStr(kFieldVersion, version);
  cluster_->log_space().Append(now, sharedlog::OneTag(write_tag), std::move(fields));
}

}  // namespace halfmoon::core
