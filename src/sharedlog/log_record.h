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
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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

// Approximate serialized size of a record with `tag_count` tags and fields of `field_bytes`
// (FieldMap::ByteSize): a 16-byte header, then each tag as a fixed 64-bit id (interned tags
// serialize as ids, not names), then the payload. The one formula behind the storage gauge
// (LogRecord::stored_bytes) and the appenders' per-class byte accounting.
inline constexpr size_t RecordByteSize(size_t tag_count, size_t field_bytes) {
  return sizeof(SeqNum) + 8 + tag_count * sizeof(TagId) + field_bytes;
}

// One field of a committed record, read in place: an integer, or bytes viewed in the
// record's block (valid while the record lives).
struct FieldView {
  FieldId id;
  bool is_int;
  int64_t int_value;     // When is_int.
  std::string_view str;  // Otherwise.
};

// A committed record's tags, stored in its block after the header: a read-only span.
class RecordTags {
 public:
  const TagId* begin() const;
  const TagId* end() const { return begin() + count_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  TagId operator[](size_t i) const { return begin()[i]; }
  operator std::span<const TagId>() const { return {begin(), count_}; }

 private:
  friend struct LogRecord;
  uint16_t count_ = 0;
};

// A committed record's fields, stored in its block after the tags in field-name order (the
// builder FieldMap's order), each as its FieldId, then an 8-byte integer or a length and the
// bytes. A read-only view: lookups walk the handful of fields and compare ids.
//
// Iteration yields `[const std::string& name, Field field]` pairs, the FieldMap sequence that
// record encodings, content checksums and test expectations hash. `field` is materialised
// (a string field is copied out of the block) because those readers take a Field variant;
// they are cold. Hot readers use GetStr / FindStr, which return views, or FieldView.
class RecordFields {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<const std::string&, Field>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;

    // The field at this position, read in place.
    FieldView view() const;
    reference operator*() const {
      FieldView v = view();
      return {FieldName(v.id), v.is_int ? Field(v.int_value) : Field(std::string(v.str))};
    }
    const_iterator& operator++();
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    // Iterators of one record compare by the fields left to walk.
    bool operator==(const const_iterator& other) const { return left_ == other.left_; }

   private:
    friend class RecordFields;
    const_iterator(const std::byte* pos, size_t left) : pos_(pos), left_(left) {}

    const std::byte* pos_ = nullptr;
    size_t left_ = 0;
  };

  // Typed getters abort on missing keys or type mismatches: a malformed log record indicates
  // a protocol bug, and the simulation must not limp past it.
  int64_t GetInt(FieldId id) const;
  std::string_view GetStr(FieldId id) const;
  int64_t GetInt(std::string_view name) const;
  std::string_view GetStr(std::string_view name) const;
  // The field under `id` if present and of that type, else empty.
  std::optional<int64_t> FindInt(FieldId id) const;
  std::optional<std::string_view> FindStr(FieldId id) const;
  bool Has(FieldId id) const { return Find(id).has_value(); }
  bool Has(std::string_view name) const;

  size_t size() const { return count_; }
  // FieldMap::ByteSize of the fields the record was built from.
  size_t ByteSize() const;

  const_iterator begin() const;
  const_iterator end() const { return const_iterator(nullptr, 0); }

 private:
  friend struct LogRecord;
  std::optional<FieldView> Find(FieldId id) const;

  uint16_t count_ = 0;
};

class LogRecordPtr;

// An immutable committed record in one exact-size heap block: this 32-byte header, then the
// tags, then the fields (DESIGN.md §7.9). Only LogRecord::Build makes one; LogRecordPtr
// counts its references and frees the block with the last one.
struct LogRecord {
  SeqNum seqnum = kInvalidSeqNum;
  // Interned id of fields["op"] (kInvalidOpId when the record has no "op" field), filled in
  // by ShardedLog::MakeRecord so step arbitration scans compare integers instead of strings.
  OpId op = kInvalidOpId;
  // RecordByteSize as ShardedLog's storage gauge counted it when the record was installed,
  // so a release subtracts exactly that without re-walking the fields.
  size_t stored_bytes = 0;
  // Changed only through LogRecordPtr. The simulator runs on one thread: not atomic.
  class RefCount {
    friend class LogRecordPtr;
    mutable uint32_t count_ = 0;
  } refs;
  RecordTags tags;
  RecordFields fields;

  LogRecord(const LogRecord&) = delete;
  LogRecord& operator=(const LogRecord&) = delete;

  size_t ByteSize() const { return RecordByteSize(tags.size(), fields.ByteSize()); }

  // Builds the block for `tags` and `fields` (copied in, fields in the map's name order).
  static LogRecordPtr Build(SeqNum seqnum, OpId op, std::span<const TagId> tags,
                            const FieldMap& fields, size_t stored_bytes);

 private:
  friend class LogRecordPtr;
  friend class RecordTags;
  friend class RecordFields;

  LogRecord() = default;
  // The bytes after the header: the tags, then the fields.
  const std::byte* tail() const { return reinterpret_cast<const std::byte*>(this + 1); }
  // Frees the block (the last reference went).
  static void Destroy(const LogRecord* record);
};

// Records are immutable once committed, so every reader shares one copy: ShardedLog stores
// each record's block behind one of these counted pointers and the whole read path
// (ShardedLog, LogClient, the protocols' step-log caches) passes them around instead of
// deep-copying. A null pointer means "no such record" where the old API returned an empty
// optional. Eight bytes: the count lives in the block.
class LogRecordPtr {
 public:
  LogRecordPtr() = default;
  LogRecordPtr(std::nullptr_t) {}  // Implicit, so `record = nullptr` and `return nullptr` read.
  LogRecordPtr(const LogRecordPtr& other) : record_(other.record_) { Acquire(); }
  LogRecordPtr(LogRecordPtr&& other) noexcept : record_(std::exchange(other.record_, nullptr)) {}
  LogRecordPtr& operator=(LogRecordPtr other) noexcept {
    std::swap(record_, other.record_);
    return *this;
  }
  ~LogRecordPtr() { Release(); }

  const LogRecord* get() const { return record_; }
  const LogRecord& operator*() const { return *record_; }
  const LogRecord* operator->() const { return record_; }
  explicit operator bool() const { return record_ != nullptr; }
  friend bool operator==(const LogRecordPtr& a, const LogRecordPtr& b) {
    return a.record_ == b.record_;
  }
  friend bool operator==(const LogRecordPtr& a, std::nullptr_t) { return a.record_ == nullptr; }

 private:
  friend struct LogRecord;
  // Takes the first reference on a freshly built record.
  explicit LogRecordPtr(const LogRecord* record) : record_(record) { Acquire(); }

  void Acquire() const {
    if (record_ != nullptr) ++record_->refs.count_;
  }
  void Release() {
    if (record_ != nullptr && --record_->refs.count_ == 0) LogRecord::Destroy(record_);
  }

  const LogRecord* record_ = nullptr;
};

static_assert(sizeof(LogRecord) == 32, "the record header is 32 bytes");
static_assert(alignof(LogRecord) == alignof(TagId), "tags follow the header unpadded");
static_assert(std::is_standard_layout_v<LogRecord>, "views locate their record by offset");
static_assert(sizeof(LogRecordPtr) == 8);

inline const TagId* RecordTags::begin() const {
  const auto* record = reinterpret_cast<const LogRecord*>(reinterpret_cast<const std::byte*>(this) -
                                                          offsetof(LogRecord, tags));
  return reinterpret_cast<const TagId*>(record->tail());
}

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
