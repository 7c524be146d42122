#include "src/core/protocols.h"

#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/core/log_steps.h"
#include "src/kvstore/kv_state.h"
#include "src/sim/sync.h"

namespace halfmoon::core::protocols {

using kvstore::VersionTuple;
using sharedlog::LogRecord;
using sharedlog::LogRecordPtr;
using sharedlog::SeqNum;
using sharedlog::TagId;

namespace {

// The byte classes of each protocol's own records (LogClientStats::appended_bytes_by_class).
constexpr int kHmReadClass = LogAppendClass(ProtocolKind::kHalfmoonRead);
constexpr int kHmWriteClass = LogAppendClass(ProtocolKind::kHalfmoonWrite);
constexpr int kBokiClass = LogAppendClass(ProtocolKind::kBoki);
constexpr int kTransitionalClass = LogAppendClass(ProtocolKind::kTransitional);

// Scans the step log fetched at Init for a record with the given op/step, Boki's recovery
// lookup (keyed by step, not by position, because Boki's commit markers are asynchronous and
// may interleave arbitrarily with other records in the stream). Compares interned op ids.
const LogRecord* FindBokiStep(const Env& env, sharedlog::OpId op, int64_t step) {
  for (const sharedlog::LogRecordPtr& record : env.step_logs) {
    if (record->op == op && record->fields.GetInt(kFieldStep) == step) {
      return record.get();
    }
  }
  return nullptr;
}

// Queues a write's object for the release of what its commit supersedes (DESIGN.md §7.1).
// A commit whose attempt crashed before seeing it is queued by the retry that replays it.
void QueueSuperseded(Env& env, TagId write_tag, const StepLogResult& commit) {
  env.cluster->QueueWriteLog(write_tag, commit.record->seqnum);
}

}  // namespace

// ---------------------------------------------------------------------------
// Halfmoon-read (Figure 5)
// ---------------------------------------------------------------------------

sim::Task<Value> HalfmoonReadRead(Env& env, const std::string& key, bool post_switch) {
  env.MaybeCrash("hmr.read.before");
  if (post_switch) {
    Value value = co_await DualRead(env, key);
    env.MaybeCrash("hmr.read.after");
    co_return value;
  }
  // Log-free read: locate the latest write at or before this SSF's cursorTS (Figure 5,
  // line 28). No log record is ever created here.
  TagId write_tag = env.WriteTag(key);
  LogRecordPtr write_log = co_await env.log().ReadPrev(write_tag, env.cursor_ts);
  if (write_log == nullptr) {
    // No committed write precedes the cursor: fall back to the LATEST slot (§5.2 treats it as
    // one more version); for objects never written at all this returns empty.
    std::optional<Value> latest = co_await env.kv().Get(key);
    env.MaybeCrash("hmr.read.after");
    co_return latest.value_or(Value{});
  }
  std::optional<Value> value =
      co_await env.kv().GetVersioned(write_tag, write_log->fields.GetStr(kFieldVersion));
  // Commit records are only visible after the version exists, and GC keeps every version a
  // running SSF might still read (§4.5) — a miss here is a protocol bug.
  HM_CHECK_MSG(value.has_value(), "Halfmoon-read: committed version missing from the store");
  env.MaybeCrash("hmr.read.after");
  co_return std::move(*value);
}

sim::Task<void> HalfmoonReadWrite(Env& env, const std::string& key, Value value) {
  // The prototype "logs before and after DBWrite" (§4.1): the pre record turns the random
  // version number into a deterministic one, and the post record is the commit point where
  // the write becomes visible in the object's write log (log-after-write, never write-ahead).
  env.step += 1;
  env.MaybeCrash("hmr.write.before");

  FieldMap pre_fields;
  pre_fields.Reserve(3);
  pre_fields.SetStr(kFieldOp, "write-pre");
  pre_fields.SetInt(kFieldStep, env.step);
  pre_fields.SetStr(kFieldVersion, env.RandomId());
  StepLogResult pre =
      co_await LogStep(env, sharedlog::NoTags(), std::move(pre_fields), kHmReadClass);
  // Views the pre record, which `pre` keeps alive for the rest of this frame.
  const std::string_view version = pre.record->fields.GetStr(kFieldVersion);

  // If the commit record already exists the write fully applied in a previous attempt
  // (Figure 5, lines 16-18): adopt it and skip the store update.
  FieldMap post_fields;
  post_fields.Reserve(3);
  post_fields.SetStr(kFieldOp, "write");
  post_fields.SetInt(kFieldStep, env.step);
  post_fields.SetStr(kFieldVersion, std::string(version));
  TagId write_tag = env.WriteTag(key);
  if (const LogRecord* cached = PeekNextLog(env);
      cached != nullptr && cached->op == sharedlog::kOpWrite) {
    QueueSuperseded(env, write_tag, co_await LogStep(env, sharedlog::OneTag(write_tag),
                                                     std::move(post_fields), kHmReadClass));
    co_return;
  }

  env.MaybeCrash("hmr.write.after_prelog");
  // Install (or idempotently re-install) the version pinned by the pre record.
  co_await env.kv().PutVersioned(write_tag, version, std::move(value));
  env.MaybeCrash("hmr.write.after_db");
  // Commit: the record appears in the step log and in the object's write log.
  if (!env.drop_commit_append) {  // Faultcheck negative control: lose the commit.
    QueueSuperseded(env, write_tag, co_await LogStep(env, sharedlog::OneTag(write_tag),
                                                     std::move(post_fields), kHmReadClass));
  }
  env.MaybeCrash("hmr.write.after_log");
}

// ---------------------------------------------------------------------------
// Halfmoon-write (Figure 7)
// ---------------------------------------------------------------------------

sim::Task<Value> HalfmoonWriteRead(Env& env, const std::string& key, bool post_switch) {
  env.step += 1;
  env.consecutive_writes = 0;  // Figure 7, line 9.
  env.last_write_key.clear();  // A logged read already pins the order of surrounding writes.

  FieldMap fields;
  fields.Reserve(3);
  fields.SetStr(kFieldOp, "read");
  fields.SetInt(kFieldStep, env.step);

  if (const LogRecord* cached = PeekNextLog(env); cached != nullptr) {
    // Replay: recover the previous result from the step log (Figure 7, lines 10-12).
    StepLogResult replayed =
        co_await LogStep(env, sharedlog::NoTags(), std::move(fields), kHmWriteClass);
    co_return Value(replayed.record->fields.GetStr(kFieldData));
  }

  env.MaybeCrash("hmw.read.before");
  Value value;
  if (post_switch) {
    value = co_await DualRead(env, key);
  } else {
    std::optional<Value> latest = co_await env.kv().Get(key);
    value = latest.value_or(Value{});
  }
  env.MaybeCrash("hmw.read.after_db");

  fields.SetStr(kFieldData, value);
  StepLogResult logged =
      co_await LogStep(env, sharedlog::NoTags(), std::move(fields), kHmWriteClass);
  if (logged.recovered) {
    // A peer logged this read first; adopt its result so all instances agree (§5.1).
    value = logged.record->fields.GetStr(kFieldData);
  }
  env.MaybeCrash("hmw.read.after_log");
  co_return value;
}

sim::Task<void> HalfmoonWriteWrite(Env& env, const std::string& key, Value value) {
  // §4.4 ordered-writes extension: consecutive log-free writes to *different* objects may
  // commute under plain Halfmoon-write. When the application demands program order, the
  // runtime performs "extra logging between the writes such that every dependent pair cannot
  // be reordered" — a sync record that refreshes cursorTS, pinning the second write after the
  // first. Still log-free in the best case (non-consecutive writes cost nothing extra).
  if (env.preserve_write_order && !env.last_write_key.empty() && env.last_write_key != key) {
    env.step += 1;
    FieldMap sync_fields;
    sync_fields.Reserve(2);
    sync_fields.SetStr(kFieldOp, "sync");
    sync_fields.SetInt(kFieldStep, env.step);
    co_await LogStep(env, sharedlog::NoTags(), std::move(sync_fields), kHmWriteClass);
    env.consecutive_writes = 0;
  }

  // Log-free write (Figure 7, lines 1-5): the deterministic version tuple pins the write's
  // place in the event stream; the conditional update applies it only if the stored version
  // is older, which makes retries and stale peers no-ops.
  env.consecutive_writes += 1;
  VersionTuple version{env.cursor_ts, static_cast<uint64_t>(env.consecutive_writes)};
  env.MaybeCrash("hmw.write.before");
  co_await env.kv().CondPut(key, std::move(value), version);
  env.MaybeCrash("hmw.write.after_db");
  env.last_write_key = key;
}

// ---------------------------------------------------------------------------
// Boki (symmetric baseline)
// ---------------------------------------------------------------------------

sim::Task<Value> BokiRead(Env& env, const std::string& key) {
  env.step += 1;
  if (const LogRecord* prev = FindBokiStep(env, sharedlog::kOpRead, env.step); prev != nullptr) {
    co_return Value(prev->fields.GetStr(kFieldData));
  }
  env.MaybeCrash("boki.read.before");
  std::optional<Value> latest = co_await env.kv().Get(key);
  Value value = latest.value_or(Value{});
  env.MaybeCrash("boki.read.after_db");

  FieldMap fields;
  fields.Reserve(3);
  fields.SetStr(kFieldOp, "read");
  fields.SetInt(kFieldStep, env.step);
  fields.SetStr(kFieldData, value);
  SeqNum seqnum =
      co_await env.attempt_log(kBokiClass).Append(sharedlog::OneTag(env.step_tag),
                                                  std::move(fields));
  // Boki's peer-race resolution: honor the first record logged for this step (§5.1). The
  // check rides on the append reply (auxiliary data), so it costs no extra round.
  LogRecordPtr first =
      env.cluster->log_space().FindFirstByStep(env.step_tag, sharedlog::kOpRead, env.step);
  if (first != nullptr && first->seqnum != seqnum) {
    value = first->fields.GetStr(kFieldData);
  }
  env.MaybeCrash("boki.read.after_log");
  co_return value;
}

sim::Task<void> BokiWrite(Env& env, const std::string& key, Value value) {
  env.step += 1;
  // Step 1: the synchronous version log. Its seqnum doubles as the write's version, making
  // the otherwise non-deterministic conditional update recoverable.
  SeqNum version_seq;
  if (const LogRecord* pre = FindBokiStep(env, sharedlog::kOpWritePre, env.step); pre != nullptr) {
    version_seq = pre->seqnum;
  } else {
    env.MaybeCrash("boki.write.before");
    FieldMap pre_fields;
    pre_fields.Reserve(2);
    pre_fields.SetStr(kFieldOp, "write-pre");
    pre_fields.SetInt(kFieldStep, env.step);
    version_seq = co_await env.attempt_log(kBokiClass).Append(
        sharedlog::OneTag(env.step_tag), std::move(pre_fields));
    LogRecordPtr first =
        env.cluster->log_space().FindFirstByStep(env.step_tag, sharedlog::kOpWritePre, env.step);
    if (first != nullptr) version_seq = first->seqnum;
  }

  if (FindBokiStep(env, sharedlog::kOpWrite, env.step) != nullptr) {
    co_return;  // Commit marker present: the write already applied.
  }

  env.MaybeCrash("boki.write.after_prelog");
  co_await env.kv().CondPut(key, std::move(value), VersionTuple{version_seq, 0});
  env.MaybeCrash("boki.write.after_db");

  // Step 2: the commit marker that lets replay skip the write. Boki logs twice per write
  // (§4.1), both on the critical path — Halfmoon-read's write logging is aligned with this.
  FieldMap post_fields;
  post_fields.Reserve(2);
  post_fields.SetStr(kFieldOp, "write");
  post_fields.SetInt(kFieldStep, env.step);
  co_await env.attempt_log(kBokiClass).Append(sharedlog::OneTag(env.step_tag),
                                              std::move(post_fields));
  env.MaybeCrash("boki.write.after_log");
}

// ---------------------------------------------------------------------------
// Unsafe baseline
// ---------------------------------------------------------------------------

sim::Task<Value> UnsafeRead(Env& env, const std::string& key) {
  env.MaybeCrash("unsafe.read.before");
  std::optional<Value> latest = co_await env.kv().Get(key);
  co_return latest.value_or(Value{});
}

sim::Task<void> UnsafeWrite(Env& env, const std::string& key, Value value) {
  env.MaybeCrash("unsafe.write.before");
  co_await env.kv().Put(key, std::move(value));
  env.MaybeCrash("unsafe.write.after_db");
}

// ---------------------------------------------------------------------------
// Transitional protocol (§5.2) and dual reads
// ---------------------------------------------------------------------------

sim::Task<Value> DualRead(Env& env, const std::string& key) {
  // Both paths proceed in parallel: the LATEST slot (Halfmoon-write's world) and the freshest
  // logged version at or before cursorTS (Halfmoon-read's world).
  auto latest_handle =
      sim::SpawnJoinable(env.cluster->scheduler(), env.kv().GetWithVersion(key));

  TagId write_tag = env.WriteTag(key);
  LogRecordPtr write_log = co_await env.log().ReadPrev(write_tag, env.cursor_ts);
  std::optional<Value> versioned;
  SeqNum write_seq = 0;
  if (write_log != nullptr) {
    versioned = co_await env.kv().GetVersioned(write_tag, write_log->fields.GetStr(kFieldVersion));
    HM_CHECK_MSG(versioned.has_value(), "DualRead: committed version missing from the store");
    write_seq = write_log->seqnum;
  }

  std::optional<std::pair<Value, VersionTuple>> latest = co_await latest_handle;

  // Freshness comparison (§5.2): the LATEST slot's version carries the cursorTS of the write
  // that installed it; the versioned path's freshness is its commit record's seqnum. Both are
  // positions in the same event stream.
  if (latest.has_value() && (!versioned.has_value() || latest->second.cursor_ts > write_seq)) {
    co_return std::move(latest->first);
  }
  if (versioned.has_value()) co_return std::move(*versioned);
  co_return Value{};
}

sim::Task<Value> TransitionalRead(Env& env, const std::string& key) {
  env.step += 1;
  env.consecutive_writes = 0;

  FieldMap fields;
  fields.Reserve(3);
  fields.SetStr(kFieldOp, "read");
  fields.SetInt(kFieldStep, env.step);

  if (const LogRecord* cached = PeekNextLog(env); cached != nullptr) {
    StepLogResult replayed =
        co_await LogStep(env, sharedlog::NoTags(), std::move(fields), kTransitionalClass);
    co_return Value(replayed.record->fields.GetStr(kFieldData));
  }

  env.MaybeCrash("trans.read.before");
  Value value = co_await DualRead(env, key);
  env.MaybeCrash("trans.read.after_db");

  fields.SetStr(kFieldData, value);
  StepLogResult logged =
      co_await LogStep(env, sharedlog::NoTags(), std::move(fields), kTransitionalClass);
  if (logged.recovered) {
    value = logged.record->fields.GetStr(kFieldData);
  }
  co_return value;
}

sim::Task<void> TransitionalWrite(Env& env, const std::string& key, Value value) {
  env.step += 1;
  // Deterministic version ID (instance + step, §4.1's first alternative), so a re-execution
  // recreates exactly the same version instead of orphaning one.
  std::string version = env.instance_id + "#" + std::to_string(env.step);
  env.consecutive_writes += 1;
  VersionTuple latest_version{env.cursor_ts, static_cast<uint64_t>(env.consecutive_writes)};

  FieldMap pre_fields;
  pre_fields.Reserve(3);
  pre_fields.SetStr(kFieldOp, "write-pre");
  pre_fields.SetInt(kFieldStep, env.step);
  pre_fields.SetStr(kFieldVersion, version);
  FieldMap post_fields;
  post_fields.Reserve(3);
  post_fields.SetStr(kFieldOp, "write");
  post_fields.SetInt(kFieldStep, env.step);
  post_fields.SetStr(kFieldVersion, version);

  env.MaybeCrash("trans.write.before");
  co_await LogStep(env, sharedlog::NoTags(), std::move(pre_fields), kTransitionalClass);

  TagId write_tag = env.WriteTag(key);
  if (const LogRecord* cached = PeekNextLog(env);
      cached != nullptr && cached->op == sharedlog::kOpWrite) {
    // Replay: both external effects (the version and the LATEST slot) already applied.
    QueueSuperseded(env, write_tag, co_await LogStep(env, sharedlog::OneTag(write_tag),
                                                     std::move(post_fields), kTransitionalClass));
    co_return;
  }

  // The write must be visible to SSFs on either protocol (§5.2, Figure 9): install the
  // multi-version copy and update the LATEST slot.
  co_await env.kv().PutVersioned(write_tag, version, value);
  env.MaybeCrash("trans.write.after_version");
  co_await env.kv().CondPut(key, std::move(value), latest_version);
  env.MaybeCrash("trans.write.after_latest");
  QueueSuperseded(env, write_tag, co_await LogStep(env, sharedlog::OneTag(write_tag),
                                                   std::move(post_fields), kTransitionalClass));
  env.MaybeCrash("trans.write.after_log");
}

}  // namespace halfmoon::core::protocols
