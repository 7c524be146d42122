// The external state: a key-value store with DynamoDB-flavoured semantics.
//
// Three facilities, exactly what the protocols need (§4.1, §4.2, §5.2):
//   * plain Get/Put on a single-version "LATEST" slot per key,
//   * conditional Put that applies only if the stored version tuple is smaller
//     (DynamoDB conditional update, used by Halfmoon-write and by Boki),
//   * multi-version storage layered over plain KV where each version is a separate
//     subkey (used by Halfmoon-read; version numbers are unordered pointers — the
//     write log defines the order).
//
// KvState is pure state; latency/queueing live in KvClient.

#ifndef HALFMOON_KVSTORE_KV_STATE_H_
#define HALFMOON_KVSTORE_KV_STATE_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/common/value.h"
#include "src/metrics/storage_sampler.h"
#include "src/storage/journal.h"

namespace halfmoon::storage {
class CheckpointStore;
class DurabilityService;
}  // namespace halfmoon::storage

namespace halfmoon::kvstore {

// Handle of a multi-version object: the interned id of its write-log tag ("k:<key>").
// Kept as a plain integer alias so the KV layer stays independent of the shared log.
using ObjectId = uint64_t;

// Version tuple for conditional updates: (cursorTS, consecutive-write counter), compared
// lexicographically (§4.2). Fresh objects carry the zero version, smaller than any write.
struct VersionTuple {
  uint64_t cursor_ts = 0;
  uint64_t counter = 0;

  auto operator<=>(const VersionTuple&) const = default;
};

class KvState {
 public:
  KvState() = default;
  KvState(const KvState&) = delete;
  KvState& operator=(const KvState&) = delete;

  // ---- Single-version (LATEST) slot ----
  //
  // Latest slots sit in a dense table in insertion order (keys are never deleted), found
  // through a flat open-addressed index of {key hash, slot number}. The checkpoint walk is
  // then a slot-number range, and no key is copied or re-hashed to walk it. Each slot holds
  // its key and value in one exact-size block (DESIGN.md §7.8). The mutators copy the bytes
  // they are given into that block, so they take views: journal replay passes a frame's
  // bytes straight in.

  std::optional<Value> Get(const std::string& key) const;

  // Unconditional write; leaves the stored version tuple untouched.
  void Put(SimTime now, std::string_view key, std::string_view value);

  // Conditional write: applies iff the stored version is strictly smaller than `version`
  // (missing keys count as version zero). Returns whether the update was applied.
  bool CondPut(SimTime now, std::string_view key, std::string_view value, VersionTuple version);

  std::optional<VersionTuple> GetVersion(const std::string& key) const;

  // ---- Multi-version objects ----
  //
  // Versioned storage is keyed by the object's interned write-log tag id rather than its
  // string key: the protocols already hold the TagId for "k:<key>" (they append the commit
  // record under it), so the version index costs an integer hash per access and never
  // re-hashes the key string. Objects sit in a dense table in first-write order, found
  // through a flat open-addressed index like the latest slots': tag ids are assigned to every
  // step log too, so a table indexed by id value would grow with every id ever assigned
  // rather than with the objects written.

  void PutVersioned(SimTime now, ObjectId object, std::string_view version_id,
                    std::string_view value);
  std::optional<Value> GetVersioned(ObjectId object, const std::string& version_id) const;
  bool DeleteVersioned(SimTime now, ObjectId object, std::string_view version_id);
  size_t VersionCount(ObjectId object) const;

  int64_t CurrentBytes() const { return gauge_.CurrentBytes(); }
  metrics::StorageGauge& gauge() { return gauge_; }

  size_t key_count() const { return latest_.size(); }

  // Objects currently holding at least one version (the dense table can be longer: an
  // object keeps its slot after its last version is deleted).
  size_t versioned_object_count() const { return versioned_objects_; }

  // Bytes the version table and its index reserve, excluding the versions themselves: the
  // footprint that must grow with the objects written, not with the ids' values.
  size_t version_index_bytes() const {
    return versioned_.size() * sizeof(VersionedSlot) +
           versioned_index_.capacity() * sizeof(IndexEntry);
  }

  // ---- Durable medium + crash-restart recovery (DESIGN.md §13) ----

  // Attaches the durability service: every applied mutation journals a kKv* frame before the
  // client's reply leg fires (the write-ahead gate lives in KvClient). Null detaches.
  void AttachDurability(storage::DurabilityService* svc) { durability_ = svc; }

  // Journal offset one past the most recently journaled mutation — the threshold KvClient
  // hands to WaitOffset before acknowledging a write externally.
  uint64_t last_journal_offset() const { return last_journal_offset_; }

  // Drops everything a node loss destroys: both version indices and the gauge's current
  // bytes. The journal itself lives in the durability service and survives.
  void ResetVolatile(SimTime now);

  // Re-applies one replayed kKv* journal frame without re-journaling it. In strict mode
  // (full replay) restore order is append order, so replayed CondPuts re-apply
  // unconditionally and versioned deletes always find their victim — they were journaled
  // only when they applied (asserted). In fuzzy mode (replay-suffix on top of a checkpoint
  // image, DESIGN.md §14) the image may already reflect the frame: a CondPut whose version
  // the image already holds sets its value again (a plain Put replayed before it may have
  // overwritten it), one whose version is older is absorbed, and so is a delete that finds
  // nothing.
  void RestoreFrame(SimTime now, storage::FrameType type, storage::Cursor cursor,
                    bool fuzzy = false);

  // ---- Incremental checkpointing (DESIGN.md §14) ----
  // The walk records the latest and versioned slot counts at round start, then emits one
  // frame per latest slot in [0, slot count) — in insertion order — and per stored version
  // of each versioned slot in [0, slot count), in first-write order, across bounded slices.
  // Keys and versions written after round start are covered by the replay suffix either way,
  // so the fuzzy image + suffix composition is exact.
  void BeginCheckpointWalk();
  // Emits roughly `budget` image frames; returns true once the walk is complete. *frames
  // counts frames appended by this slice.
  bool WriteCheckpointSlice(storage::CheckpointStore* store, int64_t budget, int64_t* frames);

  // Image-restore installers (kCkptKvLatest / kCkptKvVersion frames).
  void RestoreCheckpointFrame(SimTime now, storage::FrameType type, storage::Cursor cursor);

 private:
  // One exact-size heap block holding two byte strings back to back — a key (or version id)
  // followed by its value — and their lengths: 16 bytes beside the block, and a single
  // allocation per entry whatever the lengths (DESIGN.md §7.8). Null when both are empty.
  class PairBlock {
   public:
    PairBlock() = default;
    PairBlock(std::string_view head, std::string_view tail);

    std::string_view head() const { return {bytes_.get(), head_len_}; }
    std::string_view tail() const { return {bytes_.get() + head_len_, tail_len_}; }
    // Replaces the tail: copied in place when its size is unchanged, into a new block
    // otherwise.
    void SetTail(std::string_view tail);

   private:
    std::unique_ptr<char[]> bytes_;
    uint32_t head_len_ = 0;
    uint32_t tail_len_ = 0;
  };
  static_assert(sizeof(PairBlock) == 16);
  // The key and value in one block, and the version of the last applied CondPut: 32 bytes.
  struct LatestSlot {
    PairBlock entry;  // key, value
    VersionTuple version;
  };
  static_assert(sizeof(LatestSlot) == 32);
  // One bucket of an index: 32 bits of the key's (or object id's) hash, so growing the index
  // never re-hashes a key, and the slot number, kNoSlot when the bucket is empty.
  struct IndexEntry {
    uint32_t hash = 0;
    uint32_t slot = kNoSlot;
  };
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
  // An object's stored versions, each one block {version id, value}, sorted by version id:
  // deterministic iteration in tests/GC, and a checkpoint walk can resume past the last
  // version it emitted by binary search. Objects hold a handful of versions (GC keeps the
  // ones a running SSF may still read), so an insert shifting the array's tail is cheap.
  using Versions = std::vector<PairBlock>;
  struct VersionedSlot {
    ObjectId object = 0;
    Versions versions;
  };

  static uint32_t KeyHash(std::string_view key);
  static uint32_t ObjectHash(ObjectId object);
  // Makes room for one more entry, keeping the load <= 3/4: doubles the index (at least 16
  // buckets) and re-places every entry by its stored hash, with no key compared.
  static void ReserveOneMore(std::vector<IndexEntry>* index, size_t entries);
  // The latest slot of `key` (whose KeyHash is `hash`), or null when the key has none.
  const LatestSlot* FindLatest(std::string_view key, uint32_t hash) const;
  LatestSlot* FindLatest(std::string_view key, uint32_t hash) {
    return const_cast<LatestSlot*>(std::as_const(*this).FindLatest(key, hash));
  }
  // Appends a slot for a key that has none and indexes it.
  void InsertLatest(std::string_view key, uint32_t hash, std::string_view value,
                    VersionTuple version);
  // Bucket holding `key`, or the empty bucket where it would go. The index must be non-empty.
  size_t IndexPos(std::string_view key, uint32_t hash) const;

  // `object`'s versions, or null when it was never written.
  const Versions* FindVersions(ObjectId object) const;
  Versions* FindVersions(ObjectId object) {
    return const_cast<Versions*>(std::as_const(*this).FindVersions(object));
  }
  // `object`'s versions, taking the next slot on its first write.
  Versions& VersionsFor(ObjectId object);
  // The first version of `versions` (a Versions, const or not) whose id is not less than
  // `version_id`.
  template <typename V>
  static auto LowerBound(V& versions, std::string_view version_id) {
    return std::lower_bound(
        versions.begin(), versions.end(), version_id,
        [](const PairBlock& v, std::string_view id) { return v.head() < id; });
  }
  // Inserts {version_id, value} before `pos`. A full array grows to exactly one more entry
  // while it is small, and by an eighth once it is not.
  static void InsertVersion(Versions* versions, Versions::const_iterator pos,
                            std::string_view version_id, std::string_view value);
  // Bucket holding `object` (whose ObjectHash is `hash`), or the empty bucket where it would
  // go. The index must be non-empty.
  size_t ObjectPos(ObjectId object, uint32_t hash) const;

  // Shared payloads: kKvCondPut and kCkptKvLatest carry one latest slot; kKvPutVersioned and
  // kCkptKvVersion carry one stored version.
  static std::string EncodeLatest(std::string_view key, std::string_view value,
                                  VersionTuple version);
  static std::string EncodeVersion(ObjectId object, std::string_view version_id,
                                   std::string_view value);

  static int64_t LatestEntryBytes(std::string_view key, std::string_view value) {
    return static_cast<int64_t>(key.size() + value.size() + sizeof(VersionTuple));
  }
  static int64_t VersionedEntryBytes(std::string_view version_id, std::string_view value) {
    return static_cast<int64_t>(sizeof(ObjectId) + version_id.size() + value.size());
  }

  void JournalFrame(storage::FrameType type, std::string payload);

  std::deque<LatestSlot> latest_;         // Slots in insertion order; a deque never moves one.
  std::vector<IndexEntry> latest_index_;  // Power-of-two buckets, linear probing, load <= 3/4.
  std::deque<VersionedSlot> versioned_;      // Objects in first-write order; never moved.
  std::vector<IndexEntry> versioned_index_;  // Same layout as latest_index_.
  size_t versioned_objects_ = 0;            // Objects currently holding at least one version.
  metrics::StorageGauge gauge_;

  storage::DurabilityService* durability_ = nullptr;
  uint64_t last_journal_offset_ = 0;
  bool restoring_ = false;  // Suppresses journaling while RestoreFrame re-applies mutations.

  // Checkpoint-walk cursor (valid between BeginCheckpointWalk and the slice returning true).
  size_t walk_slot_ = 0;          // Next latest slot to emit.
  size_t walk_slot_limit_ = 0;    // latest_.size() at round start.
  size_t walk_object_ = 0;        // Next versioned slot to (re)visit.
  size_t walk_object_limit_ = 0;  // versioned_.size() at round start.
  std::string walk_version_;      // Last version emitted of walk_object_ (resume point).
  bool walk_version_valid_ = false;
};

}  // namespace halfmoon::kvstore

#endif  // HALFMOON_KVSTORE_KV_STATE_H_
