// The authoritative state of the shared log: the sequencer's counter, the record store, and
// the per-tag sub-stream index.
//
// LogSpace is pure state — all latency, caching, and queueing live in LogClient. This split
// mirrors Boki: a metalog/sequencer that orders records, storage nodes that hold them, and
// per-function-node index replicas that trail the authoritative index by a propagation delay.
//
// Sharding (DESIGN.md §9): a LogSpace is either standalone (the classic single log) or one of
// N shards owned by a ShardedLog. Shards share the tag/op interners, the storage gauge, the
// commit listener and ONE seqnum watermark, but each shard owns the records it sequences and
// the sub-stream indices of the tags it owns (tag → shard is a pure function of the tag name,
// see TagRegistry::ShardOf). Sequence numbers use a (local round, shard) encoding,
//     enc = local * shard_count + shard,   local = floor(watermark / shard_count) + 1,
// so encoded seqnums are strictly increasing in commit order across ALL shards (the watermark
// is the cross-shard merge rule): per-tag streams stay sorted by construction, cursorTS stays
// a total order, and shard_count == 1 degenerates to the historic next_seqnum_++ bit for bit.
// Every public method routes to the owning shard first (tags by TagRegistry::ShardOf, seqnums
// by seqnum % shard_count), so ANY shard — and the ShardedLog facade — answers every query.
//
// Performance notes (see DESIGN.md "Performance architecture"):
//   * Records are immutable after commit and stored behind shared_ptr-to-const; every read
//     API returns a shared view (LogRecordPtr), never a copy.
//   * Tags are interned ids (see tag_registry.h): the steady-state append/read/trim API takes
//     TagId only, so no std::string is built or hashed per operation. The string-named
//     overloads below are convenience entry points for tests and cold bootstrap code; they
//     intern (writes) or look up (reads) the name and forward to the TagId path.
//   * A sub-stream keeps only its untrimmed seqnum suffix (flat vector + head and base
//     offsets), so trimmed history costs no memory while logical logCondAppend offsets stay
//     stable. An empty stream allocates nothing.
//   * The record store is node-free: slots indexed by seqnum / shard_count in 64-slot pages,
//     allocated on first install and freed with their last record.
//   * Live stream tags are mirrored in a name-ordered index, so prefix scans (the GC's
//     per-object write-log enumeration) are range scans instead of full-table scans.

#ifndef HALFMOON_SHAREDLOG_LOG_SPACE_H_
#define HALFMOON_SHAREDLOG_LOG_SPACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/metrics/storage_sampler.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/tag_registry.h"

namespace halfmoon::storage {
class CheckpointStore;
class DurabilityService;
}  // namespace halfmoon::storage

namespace halfmoon::sharedlog {

class LogSpace {
 public:
  // State shared by every shard of one logical log: the interners, the storage gauge, the
  // seqnum watermark (largest encoded seqnum committed so far — the cross-shard merge rule),
  // the name-ordered live-tag index, and the commit listener. A standalone LogSpace owns its
  // Shared privately; a ShardedLog owns one instance for all of its shards.
  struct Shared {
    TagRegistry tags;
    TagRegistry ops;
    metrics::StorageGauge gauge;
    SeqNum watermark = 0;  // 0 = nothing committed; first encoded seqnum is >= 1.
    std::map<std::string_view, TagId> live_tags;
    std::function<void(SeqNum)> commit_listener;
    // Non-null when the log runs over the simulated durable medium (DESIGN.md §13): every
    // commit journals a kRecord frame, every releasing trim a kTrim frame. Null (the
    // default) journals nothing and draws no extra latency samples — bit-identical to the
    // pre-storage simulation.
    storage::DurabilityService* durability = nullptr;
  };

  // Standalone single-shard log (the historic constructor; bit-identical behaviour).
  LogSpace();
  // One shard of a ShardedLog. `shared` must outlive the shard; the owner must call SetPeers
  // with all shards (indexed by shard id) before the first append.
  LogSpace(Shared* shared, uint32_t shard, uint32_t shard_count);
  LogSpace(const LogSpace&) = delete;
  LogSpace& operator=(const LogSpace&) = delete;

  // Wires up cross-shard routing; `peers[i]` is shard i (peers[shard()] == this). The
  // standalone constructor sets {this} automatically.
  void SetPeers(std::vector<LogSpace*> peers);

  uint32_t shard() const { return shard_; }
  uint32_t shard_count() const { return shard_count_; }

  // The tag interner shared by everything layered on this log. "ssf.init" and "ssf.finish"
  // are pre-interned to kInitTagId / kFinishTagId.
  TagRegistry& tags() { return shared_->tags; }
  const TagRegistry& tags() const { return shared_->tags; }

  // The op-name interner ("op" field values). The protocol ops are pre-interned to the kOp*
  // constants of log_record.h; Append stamps each record's `op` id from its fields.
  TagRegistry& ops() { return shared_->ops; }
  const TagRegistry& ops() const { return shared_->ops; }

  // Appends a record, assigning the next sequence number. `now` feeds storage accounting.
  // Notifies the commit listener (used for index propagation to clients). Routed to the shard
  // owning the first tag; the record's seqnum encodes the sequencing shard.
  SeqNum Append(SimTime now, std::vector<TagId> tags, FieldMap fields);

  // Conditional append (§5.1): appends, then verifies that the new record lands at logical
  // offset `cond_pos` of the `cond_tag` sub-stream. On mismatch the append is undone and the
  // seqnum of the record actually at that offset is returned. Routed to (and arbitrated by)
  // the shard owning cond_tag.
  CondAppendResult CondAppend(SimTime now, std::vector<TagId> tags, FieldMap fields,
                              TagId cond_tag, size_t cond_pos);

  // Atomically appends a batch of records under the same condition (offset of the *first*
  // record in `cond_tag`'s stream). Either all records commit — at consecutive batch
  // positions, see BatchSeq() — or none do. Models Boki's batched append, which Halfmoon-read
  // uses to install the version record and the commit record of a write in one sequencer
  // round (§4.1).
  struct BatchEntry {
    std::vector<TagId> tags;
    FieldMap fields;
  };
  CondAppendResult CondAppendBatch(SimTime now, std::vector<BatchEntry> batch, TagId cond_tag,
                                   size_t cond_pos);

  // Unconditional atomic batch append; returns the first seqnum (the i-th record receives
  // BatchSeq(first, i)). Index replicas learn about the batch as a unit.
  SeqNum AppendBatch(SimTime now, std::vector<BatchEntry> batch);

  // Seqnum of the i-th record of an atomic batch whose first record committed at `first`.
  // One shard allocates the whole batch, so in-batch neighbours are `shard_count` apart in
  // the encoded space (adjacent when unsharded).
  SeqNum BatchSeq(SeqNum first, size_t i) const {
    return first + static_cast<SeqNum>(i) * shard_count_;
  }

  // One request of a group-committed sequencer round (see AppendGroup). The entries form an
  // atomic sub-group: all of them commit (at consecutive batch positions) or none do. A
  // request with cond_tag == kInvalidTagId is unconditional; otherwise it carries the
  // logCondAppend condition "the first entry lands at logical offset cond_pos of cond_tag's
  // stream".
  struct GroupRequest {
    std::vector<BatchEntry> entries;
    TagId cond_tag = kInvalidTagId;
    size_t cond_pos = 0;
  };
  // Per-request outcome of AppendGroup. On success `seqnum` is the first entry's position;
  // on conflict `existing_seqnum` is the record occupying the expected offset.
  struct GroupVerdict {
    bool ok = false;
    SeqNum seqnum = kInvalidSeqNum;
    SeqNum existing_seqnum = kInvalidSeqNum;
  };

  // Group commit: orders several independent append requests in ONE sequencer round of THIS
  // shard (callers route requests to the shard owning their cond tag / first tag — see
  // AppendBatcher). Requests are evaluated strictly in vector order, each seeing the stream
  // state left by its predecessors — exactly as if the requests had been submitted
  // back-to-back as separate rounds in that order, which is what makes node-local append
  // batching protocol-invisible. Index replicas learn about the whole round as a unit: the
  // commit listener fires once, with the round's last committed seqnum (not at all if every
  // request conflicted).
  std::vector<GroupVerdict> AppendGroup(SimTime now, std::vector<GroupRequest> requests);

  // Shared view of the live record at `seqnum`; null if absent or fully trimmed. Routed to
  // the storing shard (seqnum % shard_count).
  LogRecordPtr Get(SeqNum seqnum) const;

  // First live record in `tag`'s sub-stream whose "op" and "step" fields match. Boki resolves
  // peer races by honoring the first record logged for a step (§5.1). The scan compares the
  // record's interned op id — no string comparison per record.
  LogRecordPtr FindFirstByStep(TagId tag, OpId op, int64_t step) const;
  LogRecordPtr FindFirstByStep(TagId tag, const std::string& op, int64_t step) const {
    return FindFirstByStep(tag, shared_->ops.Find(op), step);
  }

  // Ids of all live streams whose name starts with `prefix` (GC scan over per-object write
  // logs). Served by an ordered range scan over the live-tag index: O(log streams + matches);
  // results are in name order. The index is shared, so results span all shards.
  std::vector<TagId> LiveTagsWithPrefix(std::string_view prefix) const;

  // Name-returning variant of LiveTagsWithPrefix, for tests and display.
  std::vector<std::string> StreamTagsWithPrefix(std::string_view prefix) const;

  // Latest record in `tag`'s sub-stream with seqnum <= max (logReadPrev).
  LogRecordPtr ReadPrev(TagId tag, SeqNum max_seqnum) const;

  // Seqnum of the record ReadPrev(tag, max_seqnum) would return, or kInvalidSeqNum if none.
  // This is a pure index-replica query (tag → seqnum list; no record payload touched), which
  // is what LogClient's node-local read cache validates its cached payloads against.
  SeqNum LatestSeqNoAtMost(TagId tag, SeqNum max_seqnum) const;

  // Earliest record in `tag`'s sub-stream with seqnum >= min (logReadNext).
  LogRecordPtr ReadNext(TagId tag, SeqNum min_seqnum) const;

  // All live records of a sub-stream, in seqnum order (used to fetch step logs in Init).
  std::vector<LogRecordPtr> ReadStream(TagId tag) const;

  // Live records of a sub-stream with seqnum <= max_seqnum: the view of an index replica
  // that has caught up to max_seqnum.
  std::vector<LogRecordPtr> ReadStreamUpTo(TagId tag, SeqNum max_seqnum) const;

  // Garbage-collects a sub-stream: logically deletes records with seqnum <= upto from `tag`,
  // and frees the trimmed prefix of the stream's seqnum index. A record's storage is freed
  // once every one of its tags has trimmed past it. Returns the number of records removed
  // from this stream (0 when the tag has no stream or the prefix was already trimmed), which
  // feeds the GC's per-category trim counters.
  size_t Trim(SimTime now, TagId tag, SeqNum upto);

  // Logical offset (position since the beginning of time) that the *next* record appended to
  // `tag` would occupy. Used by clients to pre-check conditional appends in tests.
  size_t StreamLength(TagId tag) const;

  // ---- Name-based convenience entry points (tests, cold bootstrap paths) ----
  // Writes intern their tag names; reads resolve without interning, so probing a name that
  // was never appended does not grow the registry.
  SeqNum Append(SimTime now, std::vector<std::string> tag_names, FieldMap fields) {
    return Append(now, InternAll(std::move(tag_names)), std::move(fields));
  }
  CondAppendResult CondAppend(SimTime now, std::vector<std::string> tag_names, FieldMap fields,
                              std::string_view cond_tag, size_t cond_pos) {
    return CondAppend(now, InternAll(std::move(tag_names)), std::move(fields),
                      shared_->tags.Intern(cond_tag), cond_pos);
  }
  LogRecordPtr FindFirstByStep(std::string_view tag, const std::string& op, int64_t step) const {
    return FindFirstByStep(shared_->tags.Find(tag), op, step);
  }
  LogRecordPtr ReadPrev(std::string_view tag, SeqNum max_seqnum) const {
    return ReadPrev(shared_->tags.Find(tag), max_seqnum);
  }
  LogRecordPtr ReadNext(std::string_view tag, SeqNum min_seqnum) const {
    return ReadNext(shared_->tags.Find(tag), min_seqnum);
  }
  std::vector<LogRecordPtr> ReadStream(std::string_view tag) const {
    return ReadStream(shared_->tags.Find(tag));
  }
  std::vector<LogRecordPtr> ReadStreamUpTo(std::string_view tag, SeqNum max_seqnum) const {
    return ReadStreamUpTo(shared_->tags.Find(tag), max_seqnum);
  }
  size_t Trim(SimTime now, std::string_view tag, SeqNum upto) {
    return Trim(now, shared_->tags.Find(tag), upto);
  }
  size_t StreamLength(std::string_view tag) const {
    return StreamLength(shared_->tags.Find(tag));
  }

  // ---- Crash-restart recovery (DESIGN.md §13, §14) ----
  // Reinstalls a committed record from its journal frame: same index/stream/gauge effects as
  // the original append, but no commit listener and no re-journaling. In strict mode (full
  // replay) frames arrive in commit order, so seqnums are strictly increasing (asserted) and
  // the watermark advances to each restored seqnum. In fuzzy mode (replay-suffix on top of a
  // checkpoint image, §14) the image may already reflect the record in some — or all — of its
  // streams: the body is installed only if absent and each stream gets a sorted
  // check-and-insert, so replaying an already-absorbed frame is a no-op. Routed to the shard
  // that originally sequenced the record.
  void RestoreRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags, FieldMap fields,
                     bool fuzzy = false);

  // Re-applies a durable trim during replay (no re-journaling). `base_after` is the stream's
  // logical base right after the original trim (journaled in the kTrim frame): restoring
  // takes max(base, base_after) instead of counting pops, which lands on the exact original
  // base whether or not the checkpoint image had already absorbed the trim.
  void RestoreTrim(SimTime now, TagId tag, SeqNum upto, size_t base_after);

  // Raises the shared watermark to at least `floor` (no-op when already past it). Recovery
  // calls this with the manifest's watermark floor / the journal's durable seqnum: truncation
  // can erase the highest durable records (trimmed ones), and the restored allocator must
  // still never re-issue their seqnums.
  void EnsureWatermark(SeqNum floor) {
    if (shared_->watermark < floor) shared_->watermark = floor;
  }

  // ---- Incremental checkpointing (DESIGN.md §14) ----
  // Emits the image frames of THIS shard's `tag` sub-stream into the checkpoint store: first
  // a kCkptRecord body for every referenced record not yet emitted in checkpoint round
  // `round` (records are multi-tag, bodies are written once per round: each emitted record's
  // slot is stamped with `round`, so `round` must differ from every earlier round's and be
  // nonzero), then one kCkptTagStream frame with the stream's base and live seqnums.
  // Fully-trimmed streams (no live entries, base > 0) are emitted too: their base carries
  // the logical offsets logCondAppend depends on. Returns the walk-budget items consumed (0
  // when the tag has no stream here); increments *frames per frame appended.
  size_t CheckpointTag(TagId tag, storage::CheckpointStore* store, uint32_t round,
                       int64_t* frames);

  // Image-restore installers. A body installs with zero live-tag refs (streams re-reference
  // it as they restore); a stream sets its base, pushes its seqnums and takes one ref per
  // entry. Bodies precede the streams that reference them in every image.
  void RestoreCheckpointRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                               FieldMap fields);
  void RestoreCheckpointStream(SimTime now, TagId tag, size_t base,
                               const std::vector<SeqNum>& seqnums);

  // Drops THIS shard's volatile record store and sub-stream indices (node loss). The caller
  // (ShardedLog::ResetVolatile) resets the shared state — gauge, live tags, watermark.
  void ResetShardVolatile();

  // Smallest seqnum the next append could receive; strictly greater than every committed
  // seqnum (watermark + 1, which IS the next seqnum when unsharded).
  SeqNum next_seqnum() const { return shared_->watermark + 1; }

  // Number of records currently held by THIS shard (not yet trimmed from all their tags).
  // ShardedLog::live_records() sums across shards.
  size_t live_records() const { return live_records_; }

  // Record-store pages currently allocated on THIS shard (each holds kRecordPageSlots
  // slots). Zero once every record is released. Cold accessor (scans the page table).
  size_t RecordPages() const;
  static constexpr size_t kRecordPageSlots = 64;

  // Total seqnum entries retained across this shard's sub-stream indices. Bounded by the
  // number of live (tag, record) pairs: trimmed prefixes are compacted away, so a fully
  // trimmed stream holds zero entries no matter how long its history (regression guard for
  // the old keep-forever index).
  size_t IndexEntries() const;

  // Seqnum slots allocated across this shard's sub-stream indices (Σ vector capacities).
  // Returns to 0 once every stream is fully trimmed: an emptied stream gives its buffer
  // back, so fully-trimmed tags cost only their fixed-size stream header.
  size_t IndexCapacity() const;

  int64_t CurrentBytes() const { return shared_->gauge.CurrentBytes(); }
  metrics::StorageGauge& gauge() { return shared_->gauge; }

  // Invoked synchronously at each commit with the new seqnum; the runtime uses it to schedule
  // index propagation to every function node. Shared across shards: encoded seqnums are
  // allocated in commit order, so the listener observes a strictly increasing sequence no
  // matter which shards commit.
  void SetCommitListener(std::function<void(SeqNum)> listener) {
    shared_->commit_listener = std::move(listener);
  }

 private:
  // One tag's sub-stream index. The live (untrimmed) seqnums appended under the tag are
  // entries[head..], in order; entries[0, head) were trimmed and await compaction. The
  // logical offset of live entry i in the stream's full history is base + i, so logical
  // offsets for logCondAppend are stable positions even after the trimmed prefix is
  // compacted away. An empty stream owns no buffer, and the type is nothrow-movable, so
  // growing streams_ moves streams instead of copying them.
  struct TagStream {
    std::vector<SeqNum> entries;
    size_t head = 0;
    // Number of entries trimmed from the front of the stream's history.
    size_t base = 0;

    const SeqNum* begin() const { return entries.data() + head; }
    const SeqNum* end() const { return entries.data() + entries.size(); }
    size_t size() const { return entries.size() - head; }
    bool empty() const { return head == entries.size(); }
    SeqNum back() const { return entries.back(); }
    SeqNum operator[](size_t i) const { return entries[head + i]; }
    size_t length() const { return base + size(); }
    // Inserts `seqnum` before live entry `i` (sorted insert; fuzzy replay only).
    void InsertAt(size_t i, SeqNum seqnum) {
      entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(head + i), seqnum);
    }
    // Drops the first `n` live entries (their refs already released). The dead prefix is
    // erased in one step once it outweighs the live suffix, so trimming costs amortized O(1)
    // per entry; a stream left empty gives its buffer back.
    void DropFront(size_t n);
  };

  std::vector<TagId> InternAll(std::vector<std::string> names) {
    std::vector<TagId> ids;
    ids.reserve(names.size());
    for (const std::string& name : names) ids.push_back(shared_->tags.Intern(name));
    return ids;
  }

  // One record-store slot; occupied iff `record` is non-null.
  struct StoredRecord {
    LogRecordPtr record;
    // Number of tags that still reference this record (not yet trimmed past it).
    int live_tag_refs = 0;
    // Last checkpoint round that emitted this body (0 = none); see CheckpointTag. Sits in
    // what would otherwise be padding after live_tag_refs.
    uint32_t ckpt_round = 0;
  };
  // The slots of kRecordPageSlots consecutive local seqnums (seqnum / shard_count).
  struct RecordPage {
    std::array<StoredRecord, kRecordPageSlots> slots;
    size_t occupied = 0;
  };

  void PreinternWellKnown();

  // ---- Cross-shard routing ----
  // A tag's sub-stream lives on the shard TagRegistry::ShardOf names; a record lives on the
  // shard that sequenced it, recoverable from the seqnum encoding. When unsharded both
  // resolve to `this` and compile down to the historic direct access.
  LogSpace* TagOwner(TagId tag) { return peers_[shared_->tags.ShardOf(tag)]; }
  const LogSpace* TagOwner(TagId tag) const { return peers_[shared_->tags.ShardOf(tag)]; }
  // Null for ids never interned (name-based reads probing unknown tags).
  const LogSpace* TagOwnerOrNull(TagId tag) const {
    return shared_->tags.Contains(tag) ? TagOwner(tag) : nullptr;
  }
  LogSpace* SeqOwner(SeqNum seqnum) { return peers_[seqnum % shard_count_]; }
  const LogSpace* SeqOwner(SeqNum seqnum) const { return peers_[seqnum % shard_count_]; }

  // Allocates the next encoded seqnum for an append sequenced by THIS shard and advances the
  // shared watermark. Strictly increasing across shards; exactly watermark + 1 when unsharded.
  SeqNum AllocSeqNum() {
    SeqNum local = shared_->watermark / shard_count_ + 1;
    SeqNum enc = local * shard_count_ + shard_;
    shared_->watermark = enc;
    return enc;
  }

  // The append/batch bodies, running on the routing (sequencing) shard.
  SeqNum AppendLocal(SimTime now, std::vector<TagId> tags, FieldMap fields);
  CondAppendResult CondAppendLocal(SimTime now, std::vector<TagId> tags, FieldMap fields,
                                   TagId cond_tag, size_t cond_pos);
  CondAppendResult CondAppendBatchLocal(SimTime now, std::vector<BatchEntry> batch,
                                        TagId cond_tag, size_t cond_pos);
  SeqNum AppendBatchLocal(SimTime now, std::vector<BatchEntry> batch);
  size_t TrimLocal(SimTime now, TagId tag, SeqNum upto, bool journal);

  // The shared body of AppendLocal and RestoreRecordLocal: builds the immutable record and
  // installs it into the record store, the per-tag sub-streams, the live-tag index, and the
  // storage gauge — everything EXCEPT seqnum allocation, journaling, and commit notification,
  // which is exactly what differs between a live append and a journal replay.
  LogRecordPtr InstallRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                             FieldMap fields);
  // The kRecord / kCkptRecord payload (they share one encoding): seqnum, tags, fields.
  static std::string EncodeRecordPayload(const LogRecord& record);
  // Builds the immutable record object (op interned) without installing it anywhere.
  LogRecordPtr MakeRecord(SeqNum seqnum, std::vector<TagId> tags, FieldMap fields);
  void JournalRecord(const LogRecord& record);
  void RestoreRecordLocal(SimTime now, SeqNum seqnum, std::vector<TagId> tags, FieldMap fields);
  void RestoreRecordFuzzyLocal(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                               FieldMap fields);
  void RestoreTrimLocal(SimTime now, TagId tag, SeqNum upto, size_t base_after);
  void RestoreCheckpointStreamLocal(SimTime now, TagId tag, size_t base,
                                    const std::vector<SeqNum>& seqnums);
  // +1 live-tag ref on the record at `seqnum` (must exist); image-stream restore only.
  void TakeRefLocal(SeqNum seqnum);

  // Stream for `tag` on THIS shard, or null if the tag never had an append. Interned ids are
  // dense, so the stream table is a flat vector indexed by id: the per-op "hash" is a bounds
  // check. (Sparse per shard when sharded — only owned tags ever grow a stream.)
  const TagStream* FindStream(TagId tag) const {
    return tag < streams_.size() ? &streams_[tag] : nullptr;
  }
  TagStream& StreamFor(TagId tag);

  // ---- Record store (THIS shard's slots) ----
  // Slot of `seqnum` if occupied, else null. `seqnum` must be sequenced by this shard.
  StoredRecord* FindSlot(SeqNum seqnum);
  const StoredRecord* FindSlot(SeqNum seqnum) const;
  // Installs `record` into its (empty — HM_CHECKed) slot, allocating the page on demand.
  StoredRecord& InstallSlot(LogRecordPtr record, int live_tag_refs);

  LogRecordPtr LookupLive(SeqNum seqnum) const;
  void ReleaseRef(SimTime now, SeqNum seqnum);
  void ReleaseRefLocal(SimTime now, SeqNum seqnum);
  // Releases one ref on each of `stream`'s live entries <= upto and drops them from the
  // stream. Returns the number of entries dropped.
  size_t TrimPrefix(SimTime now, TagStream& stream, SeqNum upto);

  // Evaluates a logCondAppend condition against the current stream state. Returns true when
  // the append may proceed; on conflict fills `existing` with the occupant of `cond_pos`.
  bool CondHolds(TagId cond_tag, size_t cond_pos, SeqNum* existing);

  std::unique_ptr<Shared> owned_shared_;  // Standalone mode only.
  Shared* shared_;
  uint32_t shard_ = 0;
  uint32_t shard_count_ = 1;
  std::vector<LogSpace*> peers_;  // Indexed by shard id; {this} when standalone.

  // Indexed by (seqnum / shard_count) / kRecordPageSlots; null where no slot is occupied.
  // Each shard's locals are a disjoint subset of one global sequence, so with N shards a
  // page is ~1/N occupied; the pointer table costs 8 B per page of seqnum history.
  std::vector<std::unique_ptr<RecordPage>> pages_;
  size_t live_records_ = 0;
  std::vector<TagStream> streams_;  // Indexed by TagId; grown on first append of a tag.
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_LOG_SPACE_H_
