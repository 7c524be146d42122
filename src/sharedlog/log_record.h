// Log records and tags for the shared-log layer (Figure 3 of the paper).
//
// The main log is totally ordered by monotonically increasing sequence numbers. Each record
// carries a set of tags; records with a common tag form a sub-stream whose internal order is
// consistent with the main log. Halfmoon uses three families of sub-streams:
//   * step logs      — tag = the SSF's instance ID; the function's execution history,
//   * write logs     — tag = "k:<key>"; per-object commit points under Halfmoon-read,
//   * transition log — tag = "switch:<scope>"; protocol switching history (§4.7).
//
// Tags are interned: the string name of a sub-stream is resolved to a dense 64-bit TagId
// exactly once (see tag_registry.h), and everything on the append/read/trim path — records,
// stream indices, KV version-index keys — carries the integer id. String names survive only
// at the edges: interning, prefix scans, and human-readable output.

#ifndef HALFMOON_SHAREDLOG_LOG_RECORD_H_
#define HALFMOON_SHAREDLOG_LOG_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/value.h"

namespace halfmoon::sharedlog {

// Dense interned id of a tag name; assigned by TagRegistry in interning order.
using TagId = uint64_t;
using SeqNum = uint64_t;

inline constexpr TagId kInvalidTagId = std::numeric_limits<TagId>::max();
// ShardedLog pre-interns the two global streams so their ids are fixed constants.
inline constexpr TagId kInitTagId = 0;    // "ssf.init" (§4.7 "scans the init log records")
// "ssf.finish" is never appended: completion lives in the runtime's workflow ledger. The
// stream stays pre-interned only so every later TagId (and every object id derived from it)
// keeps its number.
inline constexpr TagId kFinishTagId = 1;

// Dense interned id of a record's "op" field (a second TagRegistry owned by ShardedLog).
// Step arbitration (FindFirstByStep) compares these integers instead of the op strings.
using OpId = uint64_t;

inline constexpr OpId kInvalidOpId = std::numeric_limits<OpId>::max();
// ShardedLog pre-interns the protocol op names so their ids are fixed constants everywhere.
inline constexpr OpId kOpInit = 0;         // "init": SSF Init records.
inline constexpr OpId kOpRead = 1;         // "read": Boki-read step records.
inline constexpr OpId kOpWritePre = 2;     // "write-pre": Boki-write intentions (§5.1).
inline constexpr OpId kOpWrite = 3;        // "write": write / commit records.
inline constexpr OpId kOpInvokePre = 4;    // "invoke-pre": child-invocation intentions.
inline constexpr OpId kOpInvoke = 5;       // "invoke": child-invocation step records.
inline constexpr OpId kOpSync = 6;         // "sync": Halfmoon-write sync markers.
inline constexpr OpId kOpSwitchBegin = 7;  // "BEGIN": transition-log markers (§4.7).
inline constexpr OpId kOpSwitchEnd = 8;    // "END".

inline constexpr SeqNum kInvalidSeqNum = std::numeric_limits<SeqNum>::max();
inline constexpr SeqNum kMaxSeqNum = std::numeric_limits<SeqNum>::max() - 1;

// Tag *name* constructors, so all modules agree on sub-stream naming. These build strings and
// belong on cold paths only (interning, tests, display); steady-state code caches the TagId or
// uses TagRegistry::InternPrefixed to avoid the concatenation.
inline std::string WriteLogTag(const std::string& key) { return "k:" + key; }
inline constexpr std::string_view kWriteLogPrefix = "k:";
// Transition sub-streams (§4.7; interned by core/switch_manager.h): a scope's is
// "switch:<scope>", and in advisor mode (DESIGN.md §11) object "k:<key>" is a scope of its
// own, "switch:k:<key>". Scopes never start with "k:", so the two never collide.
inline constexpr std::string_view kTransitionLogPrefix = "switch:";
inline constexpr std::string_view kObjectTransitionPrefix = "switch:k:";
// Every Init record is also tagged into one global stream so the switch manager and the GC can
// enumerate running SSFs (§4.7 "scans the init log records").
inline std::string InitLogTag() { return "ssf.init"; }
// Name of the unused kFinishTagId stream (see above).
inline std::string FinishLogTag() { return "ssf.finish"; }

// Tag-vector helpers. Braced-init-list arguments to coroutines miscompile on GCC 12
// (PR c++/102489 family), so call sites build tag vectors through these instead.
// The TagId overloads are the hot-path spelling; the string overloads feed the name-based
// convenience entry points of ShardedLog/LogClient (tests and cold bootstrap code).
inline std::vector<TagId> NoTags() { return {}; }
inline std::vector<TagId> OneTag(TagId t) {
  std::vector<TagId> v;
  v.push_back(t);
  return v;
}
inline std::vector<TagId> TwoTags(TagId a, TagId b) {
  std::vector<TagId> v;
  v.push_back(a);
  v.push_back(b);
  return v;
}
inline std::vector<std::string> OneTag(std::string name) {
  std::vector<std::string> v;
  v.push_back(std::move(name));
  return v;
}
inline std::vector<std::string> TwoTags(std::string a, std::string b) {
  std::vector<std::string> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return v;
}

struct LogRecord {
  SeqNum seqnum = kInvalidSeqNum;
  std::vector<TagId> tags;
  // Interned id of fields["op"] (kInvalidOpId when the record has no "op" field), filled in
  // by ShardedLog::Append so step arbitration scans compare integers instead of strings.
  OpId op = kInvalidOpId;
  FieldMap fields;
  // ByteSize() as ShardedLog's storage gauge counted it when the record was installed, so a
  // release subtracts exactly that without re-walking the fields.
  size_t stored_bytes = 0;

  // Approximate serialized size: header + tags + payload. Interned tags serialize as fixed
  // 64-bit ids rather than variable-length names.
  size_t ByteSize() const {
    size_t total = sizeof(SeqNum) + 8;  // Header overhead.
    total += tags.size() * sizeof(TagId);
    total += fields.ByteSize();
    return total;
  }
};

// Records are immutable once committed, so every reader shares one copy: ShardedLog stores
// each record behind a shared_ptr-to-const and the whole read path (ShardedLog, LogClient, the
// protocols' step-log caches) passes these views around instead of deep-copying. A null
// pointer means "no such record" where the old API returned an empty optional.
using LogRecordPtr = std::shared_ptr<const LogRecord>;

// Result of logCondAppend (§5.1). On success, `seqnum` is the new record's position and
// `record` is a shared view of the committed record (of the *first* record for batched
// appends). On conflict the append is undone and `existing_seqnum` points to the record
// already occupying the expected offset of the conditional stream.
struct CondAppendResult {
  bool ok = false;
  SeqNum seqnum = kInvalidSeqNum;
  SeqNum existing_seqnum = kInvalidSeqNum;
  LogRecordPtr record;
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_LOG_RECORD_H_
