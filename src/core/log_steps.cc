#include "src/core/log_steps.h"

#include <string>
#include <utility>

#include "src/common/check.h"

namespace halfmoon::core {

using sharedlog::CondAppendResult;
using sharedlog::LogRecord;
using sharedlog::LogRecordPtr;
using sharedlog::ShardedLog;
using sharedlog::SeqNum;
using sharedlog::TagId;

const LogRecord* PeekNextLog(Env& env) {
  if (env.log_pos < env.step_logs.size()) {
    return env.step_logs[env.log_pos].get();
  }
  return nullptr;
}

sim::Task<LogRecordPtr> FetchExisting(Env& env, SeqNum seqnum) {
  LogRecordPtr record = co_await env.log().ReadPrev(env.step_tag, seqnum);
  HM_CHECK_MSG(record != nullptr && record->seqnum == seqnum,
               "lost-race record vanished from the step log");
  co_return record;
}

namespace {

// Consumes the record at the current position: caches the shared view (if fetched), advances
// the position pointer and the cursor.
void AdoptRecord(Env& env, LogRecordPtr record) {
  if (env.log_pos == env.step_logs.size()) {
    env.step_logs.push_back(std::move(record));
  }
  HM_CHECK(env.log_pos < env.step_logs.size());
  env.cursor_ts = env.step_logs[env.log_pos]->seqnum;
  ++env.log_pos;
}

}  // namespace

sim::Task<StepLogResult> LogStep(Env& env, std::vector<TagId> extra_tags, FieldMap fields,
                                 int append_class) {
  size_t pos = env.log_pos;
  if (const LogRecord* cached = PeekNextLog(env)) {
    HM_CHECK_MSG(cached->fields.GetStr(kFieldOp) == fields.GetStr(kFieldOp),
                 "replayed a different operation at this log position (non-determinism?)");
    LogRecordPtr record = env.step_logs[env.log_pos];
    AdoptRecord(env, record);
    co_return StepLogResult{std::move(record), /*recovered=*/true};
  }

  std::vector<TagId> tags;
  tags.reserve(1 + extra_tags.size());
  tags.push_back(env.step_tag);
  for (TagId tag : extra_tags) tags.push_back(tag);

  // Only the op name survives the move below; it is all the lost-race check needs.
  std::string op = fields.GetStr(kFieldOp);
  CondAppendResult result = co_await env.attempt_log(append_class).CondAppend(
      std::move(tags), std::move(fields), env.step_tag, pos);
  if (result.ok) {
    AdoptRecord(env, result.record);
    co_return StepLogResult{std::move(result.record), /*recovered=*/false};
  }

  // A peer instance logged this step first: adopt its record and treat the step as done.
  LogRecordPtr record = co_await FetchExisting(env, result.existing_seqnum);
  HM_CHECK_MSG(record->fields.GetStr(kFieldOp) == op,
               "peer logged a different operation at this position (non-determinism?)");
  AdoptRecord(env, record);
  co_return StepLogResult{std::move(record), /*recovered=*/true};
}

sim::Task<BatchLogResult> LogStepBatch(Env& env, std::vector<FieldMap> fields) {
  HM_CHECK(!fields.empty());
  size_t pos = env.log_pos;
  const size_t n = fields.size();
  BatchLogResult result;

  if (pos < env.step_logs.size()) {
    // Replay: the batch committed atomically, so all n records must be cached.
    HM_CHECK_MSG(pos + n <= env.step_logs.size(), "batched group is partially missing");
    result.recovered = true;
    for (size_t i = 0; i < n; ++i) {
      LogRecordPtr cached = env.step_logs[env.log_pos];
      HM_CHECK_MSG(cached->fields.GetStr(kFieldOp) == fields[i].GetStr(kFieldOp),
                   "replayed a different operation at this log position (non-determinism?)");
      result.records.push_back(cached);
      AdoptRecord(env, std::move(cached));
    }
    co_return result;
  }

  TagId step_tag = env.step_tag;
  std::vector<std::string> ops;  // Survives the moves; feeds the lost-race sanity checks.
  ops.reserve(n);
  std::vector<ShardedLog::BatchEntry> batch(n);
  for (size_t i = 0; i < n; ++i) {
    ops.push_back(fields[i].GetStr(kFieldOp));
    batch[i].tags = sharedlog::OneTag(step_tag);
    batch[i].fields = std::move(fields[i]);
  }
  CondAppendResult append =
      co_await env.attempt_log().CondAppendBatch(std::move(batch), step_tag, pos);
  if (append.ok) {
    // Consecutive batch seqnums (stride = shard count); the append reply carries the
    // committed group, so the views come straight from the record store without extra rounds
    // or copies.
    for (size_t i = 0; i < n; ++i) {
      LogRecordPtr record =
          env.cluster->log_space().Get(env.cluster->log_space().BatchSeq(append.seqnum, i));
      HM_CHECK_MSG(record != nullptr, "freshly committed batch record missing");
      result.records.push_back(record);
      AdoptRecord(env, std::move(record));
    }
    co_return result;
  }

  // Lost the race: the peer committed the whole batch; fetch the n records.
  result.recovered = true;
  SeqNum seqnum = append.existing_seqnum;
  for (size_t i = 0; i < n; ++i) {
    LogRecordPtr record = co_await env.log().ReadNext(
        step_tag, i == 0 ? seqnum : result.records.back()->seqnum + 1);
    HM_CHECK_MSG(record != nullptr && record->fields.GetStr(kFieldOp) == ops[i],
                 "peer's batched group is incomplete");
    result.records.push_back(record);
    AdoptRecord(env, std::move(record));
  }
  co_return result;
}

sim::Task<void> InitSsf(Env& env, const Value& input) {
  // Intern this instance's step-log tag once; every logged step reuses the id.
  env.step_tag = env.log().tags().Intern(env.instance_id);
  // Retrieve the execution history (Figure 5, line 3).
  env.step_logs = co_await env.log().ReadStream(env.step_tag);
  env.log_pos = 0;
  env.step = 0;
  env.consecutive_writes = 0;

  FieldMap fields;
  fields.Reserve(3);
  fields.SetStr(kFieldOp, "init");
  fields.SetInt(kFieldStep, 0);
  fields.SetStr(kFieldInstance, env.instance_id);
  StepLogResult init =
      co_await LogStep(env, sharedlog::OneTag(sharedlog::kInitTagId), std::move(fields));
  env.init_cursor_ts = init.record->seqnum;
}

sim::Task<void> InitChildSsf(Env& env, SeqNum inherited_cursor) {
  HM_CHECK(inherited_cursor != sharedlog::kInvalidSeqNum);
  env.step_tag = env.log().tags().Intern(env.instance_id);
  env.step_logs = co_await env.log().ReadStream(env.step_tag);
  env.log_pos = 0;
  env.step = 0;
  env.consecutive_writes = 0;
  env.cursor_ts = inherited_cursor;
  env.init_cursor_ts = inherited_cursor;
}

const char* ProtocolName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kUnsafe: return "Unsafe";
    case ProtocolKind::kBoki: return "Boki";
    case ProtocolKind::kHalfmoonRead: return "Halfmoon-read";
    case ProtocolKind::kHalfmoonWrite: return "Halfmoon-write";
    case ProtocolKind::kTransitional: return "Transitional";
  }
  return "?";
}

}  // namespace halfmoon::core
