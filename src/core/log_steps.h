// Position-based step logging and recovery, shared by the Halfmoon protocols.
//
// Every synchronous logged operation of an SSF occupies a deterministic logical position in
// the instance's step-log sub-stream (positions are assigned in program order, and Halfmoon
// logs synchronously). LogStep implements the common pattern:
//   * if the position is already occupied (retry replaying history, or a peer instance won the
//     race), adopt the existing record and skip the side effect;
//   * otherwise logCondAppend at that position; on conflict, fetch and adopt the peer's record.
// Either way cursorTS advances to the record's seqnum.

#ifndef HALFMOON_CORE_LOG_STEPS_H_
#define HALFMOON_CORE_LOG_STEPS_H_

#include <string>
#include <vector>

#include "src/core/env.h"
#include "src/sharedlog/log_record.h"
#include "src/sim/task.h"

namespace halfmoon::core {

struct StepLogResult {
  // Shared view of the committed (or adopted) record — aliases the log's copy.
  sharedlog::LogRecordPtr record;
  // True when the record pre-existed (replay or lost race): the operation's side effect has
  // already happened (or is owned by a peer) and must be skipped.
  bool recovered = false;
};

// Returns the record already cached at the next log position if any, else nullptr. Peek only;
// does not consume the position.
const sharedlog::LogRecord* PeekNextLog(Env& env);

// Logs one record at the next position (see file comment). `extra_tags` are added on top of
// the instance's step-log tag; an append it makes is accounted under `append_class`
// (Env::attempt_log), a replay appends nothing.
sim::Task<StepLogResult> LogStep(Env& env, std::vector<sharedlog::TagId> extra_tags,
                                 FieldMap fields, int append_class = 0);

// Logs N records in one sequencer round at consecutive positions (scatter-gather workflows:
// the pre/post records of parallel invocations). The batch commits atomically: either all
// records land with consecutive seqnums or the group is recovered from a peer's batch.
struct BatchLogResult {
  std::vector<sharedlog::LogRecordPtr> records;
  bool recovered = false;
};
sim::Task<BatchLogResult> LogStepBatch(Env& env, std::vector<FieldMap> fields);

// Initializes the SSF environment (Figure 5, Init): fetches the step log, and appends (or
// recovers) the init record, also tagged into the global init stream. Every attempt recovers
// the same record, so env.init_cursor_ts is stable; the runtime reports a root's value to the
// GC/switch frontier.
sim::Task<void> InitSsf(Env& env, const Value& input);

// Init for a child SSF of a workflow: per the §4.3 remark, the initial cursorTS only needs to
// be deterministic and "can be inherited from the parent SSF" — we inherit the seqnum of the
// parent's invoke-pre record and skip the init append. The child needs no init record in the
// global stream either: the GC/switch frontier is held back by its root's init record until
// the whole workflow drains.
sim::Task<void> InitChildSsf(Env& env, sharedlog::SeqNum inherited_cursor);

// Fetches the record of a lost logCondAppend race (the peer's record at the expected offset).
sim::Task<sharedlog::LogRecordPtr> FetchExisting(Env& env, sharedlog::SeqNum seqnum);

}  // namespace halfmoon::core

#endif  // HALFMOON_CORE_LOG_STEPS_H_
