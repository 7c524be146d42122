// The shared log (DESIGN.md §9): the sequencer's counter, the record store, and the per-tag
// sub-stream index. ShardedLog is the only log type the layers above hold.
//
// ShardedLog is pure state — all latency, caching, and queueing live in LogClient. This split
// mirrors Boki: a metalog/sequencer that orders records, storage nodes that hold them, and
// per-function-node index replicas that trail the authoritative index by a propagation delay.
//
// Sharding: tags are partitioned across `shard_count` sequencers by a pure function of the tag
// name (TagRegistry::ShardOf), so every cond-append arbitration, GC stream, and switch
// transition-log entry — all keyed by tags — is ordered by one shard and keeps its
// single-log semantics. Each shard runs its own sequencer rounds (LogClient keeps one batcher
// queue and one sequencer station per shard), which is what lets appends to disjoint tags
// commit in parallel simulated time. A shard is an argument of the one sequencing call
// (AppendGroup), not an object: every append routes to its shard once, and every query is
// answered by this one object.
//
// Sequence numbers use a (local round, shard) encoding against one shared watermark,
//     enc = local * shard_count + shard,   local = floor(watermark / shard_count) + 1,
// so encoded seqnums are strictly increasing in commit order across ALL shards (the watermark
// is the cross-shard merge rule): per-tag streams stay sorted by construction, cursorTS stays
// a total order, and shard_count == 1 degenerates to the historic next_seqnum_++ bit for bit.
// Each shard stores the records it sequenced (seqnum % shard_count names the shard).
//
// Performance notes (see DESIGN.md "Performance architecture"):
//   * Records are immutable after commit, each one exact-size block behind a counted
//     LogRecordPtr (log_record.h, DESIGN.md §7.9); every read API returns a shared view,
//     never a copy.
//   * Tags are interned ids (see tag_registry.h): the steady-state append/read/trim API takes
//     TagId only, so no std::string is built or hashed per operation. The string-named
//     overloads below are convenience entry points for tests and cold bootstrap code; they
//     intern (writes) or look up (reads) the name and forward to the TagId path.
//   * A sub-stream (TagStream) keeps only its untrimmed seqnum suffix (flat vector + head
//     and base offsets), so trimmed history costs no memory while logical logCondAppend
//     offsets stay stable. An empty stream allocates nothing. The log owns no table of its
//     own: each stream lives in its tag's registry slot, next to the name, shard and state,
//     and is freed with the slot when the tag retires (see Retire), so a long run's finished
//     instances cost no stream memory.
//   * The record store is node-free: per shard, slots keyed by seqnum / shard_count in a
//     SparsePages table (sparse_pages.h), whose 64-slot pages shrink to their live records.

#ifndef HALFMOON_SHAREDLOG_SHARDED_LOG_H_
#define HALFMOON_SHAREDLOG_SHARDED_LOG_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/metrics/storage_sampler.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/sparse_pages.h"
#include "src/sharedlog/tag_registry.h"
#include "src/sharedlog/tag_stream.h"

namespace halfmoon::storage {
class CheckpointStore;
class DurabilityService;
}  // namespace halfmoon::storage

namespace halfmoon::sharedlog {

class ShardedLog {
 public:
  explicit ShardedLog(uint32_t shard_count = 1);
  ShardedLog(const ShardedLog&) = delete;
  ShardedLog& operator=(const ShardedLog&) = delete;

  uint32_t shard_count() const { return shard_count_; }
  // Shard owning `tag`'s sub-stream (pure function of the tag name); appends routed by `tag`
  // are sequenced there.
  uint32_t ShardOfTag(TagId tag) const { return tags_.ShardOf(tag); }
  // Shard that sequenced (and stores) the record at `seqnum`.
  uint32_t ShardOfSeq(SeqNum seqnum) const {
    return static_cast<uint32_t>(seqnum % shard_count_);
  }

  // The tag interner shared by everything layered on this log. "ssf.init" and "ssf.finish"
  // are pre-interned to kInitTagId / kFinishTagId.
  TagRegistry& tags() { return tags_; }
  const TagRegistry& tags() const { return tags_; }

  // The op-name interner ("op" field values). The protocol ops are pre-interned to the kOp*
  // constants of log_record.h; Append stamps each record's `op` id from its fields.
  TagRegistry& ops() { return ops_; }
  const TagRegistry& ops() const { return ops_; }

  // One append request: `entries` form an atomic sub-group — all of them commit, at
  // consecutive batch positions (see BatchSeq), or none do. A request with cond_tag ==
  // kInvalidTagId is unconditional; otherwise it carries the logCondAppend condition (§5.1)
  // "the first entry lands at logical offset cond_pos of cond_tag's stream", and cond_tag
  // must be one of the first entry's tags. A multi-entry request models Boki's batched
  // append, which Halfmoon-read uses to install the version record and the commit record of
  // a write in one sequencer round (§4.1).
  struct BatchEntry {
    std::vector<TagId> tags;
    FieldMap fields;
  };
  struct GroupRequest {
    std::vector<BatchEntry> entries;
    TagId cond_tag = kInvalidTagId;
    size_t cond_pos = 0;
  };
  // Per-request outcome of AppendGroup. On success `seqnum` is the first entry's position;
  // on conflict `existing_seqnum` is the record occupying the expected offset (the request
  // is undone without a trace). A refused request (it names a closed tag, see Retire) is not
  // ok and has no existing_seqnum.
  struct GroupVerdict {
    bool ok = false;
    SeqNum seqnum = kInvalidSeqNum;
    SeqNum existing_seqnum = kInvalidSeqNum;
  };

  // The one sequencing body: orders one or more independent append requests in ONE
  // sequencer round of `shard`. Callers route each request to the shard owning its cond tag,
  // or else its first entry's first tag, so racing cond-appends on one tag serialize through
  // one shard (LogClient and AppendBatcher do this routing). Requests are evaluated strictly
  // in vector order, each seeing the stream state left by its predecessors — exactly as if
  // they had been submitted back-to-back as separate rounds in that order, which is what
  // makes node-local group commit protocol-invisible. Index replicas learn about the whole
  // round as a unit: the commit listener fires once, with the round's last committed seqnum
  // (not at all if every request conflicted), so no replica observes part of a sub-group.
  std::vector<GroupVerdict> AppendGroup(uint32_t shard, SimTime now,
                                        std::vector<GroupRequest> requests);

  // One-request forms of AppendGroup, routed as above. Append returns the record's seqnum;
  // CondAppend returns the verdict plus a shared view of the committed record.
  SeqNum Append(SimTime now, std::vector<TagId> tags, FieldMap fields);
  CondAppendResult CondAppend(SimTime now, std::vector<TagId> tags, FieldMap fields,
                              TagId cond_tag, size_t cond_pos);

  // Seqnum of the i-th record of an atomic batch whose first record committed at `first`.
  // One shard allocates the whole batch, so in-batch neighbours are `shard_count` apart in
  // the encoded space (adjacent when unsharded).
  SeqNum BatchSeq(SeqNum first, size_t i) const {
    return first + static_cast<SeqNum>(i) * shard_count_;
  }

  // Shared view of the live record at `seqnum`; null if absent or fully trimmed.
  LogRecordPtr Get(SeqNum seqnum) const { return LookupLive(seqnum); }

  // First live record in `tag`'s sub-stream whose "op" and "step" fields match. Boki resolves
  // peer races by honoring the first record logged for a step (§5.1). The scan compares the
  // record's interned op id — no string comparison per record.
  LogRecordPtr FindFirstByStep(TagId tag, OpId op, int64_t step) const;

  // Ids of the live (unretired, not retiring), non-empty streams whose name starts with
  // `prefix`, in name order. Cold: a walk over every unretired id plus a sort, for content
  // checksums, tests and recovery (Cluster::ReplayLogJournal) only.
  std::vector<TagId> LiveTagsWithPrefix(std::string_view prefix) const;

  // Latest record in `tag`'s sub-stream with seqnum <= max (logReadPrev).
  LogRecordPtr ReadPrev(TagId tag, SeqNum max_seqnum) const;

  // Seqnum of the record ReadPrev(tag, max_seqnum) would return, or kInvalidSeqNum if none.
  // This is a pure index-replica query (tag → seqnum list; no record payload touched), which
  // is what LogClient's node-local read cache validates its cached payloads against.
  SeqNum LatestSeqNoAtMost(TagId tag, SeqNum max_seqnum) const;

  // Earliest record in `tag`'s sub-stream with seqnum >= min (logReadNext).
  LogRecordPtr ReadNext(TagId tag, SeqNum min_seqnum) const;

  // All live records of a sub-stream, in seqnum order (used to fetch step logs in Init).
  std::vector<LogRecordPtr> ReadStream(TagId tag) const {
    return ReadStreamUpTo(tag, kMaxSeqNum);
  }

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

  // ---- Tag retirement (DESIGN.md §7.1, §13) ----
  // Retires a finished instance's step-log tag: trims every record from its stream, then
  // closes the tag for good — read and trim on it abort from now on, AppendGroup refuses any
  // request naming it, and the id is never reused. The registry slot (name and stream) is
  // freed when the retirement is durable: immediately without a durability service,
  // otherwise when a later ReleaseRetired finds the kRetire frame flushed. A tag that is
  // already retiring is left alone. Returns the number of records removed from the stream.
  size_t Retire(SimTime now, TagId tag);

  // Frees the registry slots of retiring tags, front first, while the kRetire frame is durable
  // (called at each workflow drain and GC scan). Returns the number of tags released.
  size_t ReleaseRetired();

  // Retiring tags whose kRetire frame may not be durable yet.
  size_t pending_retirements() const { return pending_retire_.size(); }

  // ---- Name-based convenience entry points (tests, cold bootstrap paths) ----
  // Writes intern their tag names; reads resolve without interning, so probing a name that
  // was never appended does not grow the registry.
  SeqNum Append(SimTime now, std::vector<std::string> tag_names, FieldMap fields) {
    return Append(now, InternAll(std::move(tag_names)), std::move(fields));
  }
  CondAppendResult CondAppend(SimTime now, std::vector<std::string> tag_names, FieldMap fields,
                              std::string_view cond_tag, size_t cond_pos) {
    return CondAppend(now, InternAll(std::move(tag_names)), std::move(fields),
                      tags_.Intern(cond_tag), cond_pos);
  }
  LogRecordPtr FindFirstByStep(TagId tag, const std::string& op, int64_t step) const {
    return FindFirstByStep(tag, ops_.Find(op), step);
  }
  LogRecordPtr FindFirstByStep(std::string_view tag, const std::string& op, int64_t step) const {
    return FindFirstByStep(tags_.Find(tag), op, step);
  }
  LogRecordPtr ReadPrev(std::string_view tag, SeqNum max_seqnum) const {
    return ReadPrev(tags_.Find(tag), max_seqnum);
  }
  LogRecordPtr ReadNext(std::string_view tag, SeqNum min_seqnum) const {
    return ReadNext(tags_.Find(tag), min_seqnum);
  }
  std::vector<LogRecordPtr> ReadStream(std::string_view tag) const {
    return ReadStream(tags_.Find(tag));
  }
  std::vector<LogRecordPtr> ReadStreamUpTo(std::string_view tag, SeqNum max_seqnum) const {
    return ReadStreamUpTo(tags_.Find(tag), max_seqnum);
  }
  size_t Trim(SimTime now, std::string_view tag, SeqNum upto) {
    return Trim(now, tags_.Find(tag), upto);
  }
  size_t StreamLength(std::string_view tag) const { return StreamLength(tags_.Find(tag)); }

  // ---- Durable medium + crash-restart recovery (DESIGN.md §13, §14) ----
  // Attaches the durability service: every commit journals a kRecord frame, every releasing
  // trim a kTrim frame, every retirement a kRetire frame, and every newly interned tag a
  // kTagDef frame. Must be attached before the first workload append (earlier interns — the
  // pre-interned protocol tags — are deterministic constructor state and need no journal).
  // Without one (the default) the log journals nothing and draws no extra latency samples —
  // bit-identical to the pre-storage simulation.
  void AttachDurability(storage::DurabilityService* svc);

  // Drops everything a node loss destroys: records, sub-stream indices, the watermark, and the storage gauge's current bytes. The tag/op interners (names and
  // states: retiring tags stay closed) and the list of retiring tags survive — ids are
  // deterministic client-side handles, and replay cross-checks them via kTagDef and kRetire
  // frames.
  void ResetVolatile(SimTime now);

  // Closes a replay (every restore path above has run). Aborts with a named error if a
  // retired tag still holds stream entries or has a kTagDef frame no kRetire frame matched.
  // Then re-issues every retirement whose kRetire frame the node loss destroyed (a new
  // frame, so the lost trim is never forgotten) and releases those whose frames are durable.
  void FinishReplay(SimTime now);

  // Reinstalls a committed record from its journal frame: same index/stream/gauge effects as
  // the original append, but no commit listener and no re-journaling. In strict mode (full
  // replay) frames arrive in commit order, so seqnums are strictly increasing (asserted) and
  // the watermark advances to each restored seqnum. In fuzzy mode (replay-suffix on top of a
  // checkpoint image, §14) the image may already reflect the record in some — or all — of its
  // streams: the body is installed only if absent and each stream gets a sorted
  // check-and-insert, so replaying an already-absorbed frame is a no-op.
  void RestoreRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags, FieldMap fields,
                     bool fuzzy = false);

  // Re-applies a durable trim during replay (no re-journaling). `base_after` is the stream's
  // logical base right after the original trim (journaled in the kTrim frame): restoring
  // takes max(base, base_after) instead of counting pops, which lands on the exact original
  // base whether or not the checkpoint image had already absorbed the trim.
  void RestoreTrim(SimTime now, TagId tag, SeqNum upto, size_t base_after);

  // Cross-checks a replayed kTagDef frame against the surviving registry: the journaled
  // (id, name) assignment must match bit for bit, or the replayed record frames' tag ids
  // would silently index the wrong streams. A retired id's name is gone, so its frame is
  // held until the id's kRetire frame supplies the name hash to compare against.
  void VerifyTagDef(TagId id, std::string_view name);

  // Re-applies a durable kRetire frame: checks the name hash, then empties the stream. A
  // retired id's records were replayed into a transient stream (replay_streams_), which
  // this empties; a still-retiring id loses its stream exactly as the
  // original did.
  void RestoreRetire(SimTime now, TagId tag, uint64_t name_hash);

  // Raises the watermark to at least `floor` (no-op when already past it). Recovery calls
  // this with the manifest's watermark floor / the journal's durable seqnum: truncation can
  // erase the highest durable records (trimmed ones), and the restored allocator must still
  // never re-issue their seqnums.
  void EnsureWatermark(SeqNum floor) {
    if (watermark_ < floor) watermark_ = floor;
  }

  // ---- Incremental checkpointing (DESIGN.md §14) ----
  // One checkpoint round walks every live tag in id order (stable across registry growth;
  // retiring and retired ids are skipped), emitting record bodies (deduped round-wide —
  // records are multi-tag — by stamping each emitted record's slot with the round number)
  // and per-tag stream snapshots. The walk is resumable in bounded slices; tags interned after a slice are
  // picked up by later slices, and their records also ride the replay suffix, so either way
  // the image + suffix composition is exact.
  void BeginCheckpointWalk();
  // Emits roughly `budget` items' worth of image frames; returns true once every tag has
  // been walked. *frames counts frames appended by this slice.
  bool WriteCheckpointSlice(storage::CheckpointStore* store, int64_t budget, int64_t* frames);

  // Image-restore installers. A body installs with zero live-tag refs (streams re-reference
  // it as they restore); a stream sets its base, pushes its seqnums and takes one ref per
  // entry. Bodies precede the streams that reference them in every image.
  void RestoreCheckpointRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                               FieldMap fields);
  void RestoreCheckpointStream(SimTime now, TagId tag, size_t base,
                               const std::vector<SeqNum>& seqnums);

  // The kRecord / kCkptRecord payload (they share one encoding): seqnum, tags, fields.
  static std::string EncodeRecordPayload(const LogRecord& record);

  // ---- Accounting / hooks ----
  // Smallest seqnum the next append could receive; strictly greater than every committed
  // seqnum (watermark + 1, which IS the next seqnum when unsharded).
  SeqNum next_seqnum() const { return watermark_ + 1; }

  // Number of records currently held (not yet trimmed from all their tags), in total and on
  // one shard's record store.
  size_t live_records() const;
  size_t live_records(uint32_t shard) const { return stores_[shard].size(); }

  // `shard`'s record-store pages holding a record, and their bytes (sparse_pages.h).
  size_t RecordPages(uint32_t shard) const { return stores_[shard].pages(); }
  size_t RecordStoreBytes(uint32_t shard) const { return stores_[shard].bytes(); }
  static constexpr size_t kRecordPageSlots = 64;

  // Total seqnum entries retained across the sub-stream indices. Bounded by the number of
  // live (tag, record) pairs: trimmed prefixes are compacted away, so a fully trimmed stream
  // holds zero entries no matter how long its history (regression guard for the old
  // keep-forever index).
  size_t IndexEntries() const;

  // Seqnum slots allocated across the sub-stream indices (Σ vector capacities). Returns to 0
  // once every stream is fully trimmed: an emptied stream gives its buffer back, so
  // fully-trimmed tags cost only their fixed-size stream header (and retired ones nothing).
  size_t IndexCapacity() const;

  int64_t CurrentBytes() const { return gauge_.CurrentBytes(); }
  metrics::StorageGauge& gauge() { return gauge_; }

  // Invoked synchronously at each commit (once per atomic batch or group round, with its
  // last seqnum); the runtime uses it to schedule index propagation to every function node.
  // Encoded seqnums are allocated in commit order, so the listener observes a strictly
  // increasing sequence no matter which shards commit.
  void SetCommitListener(std::function<void(SeqNum)> listener) {
    commit_listener_ = std::move(listener);
  }

 private:
  // One record-store slot.
  struct StoredRecord {
    LogRecordPtr record;
    // Number of tags that still reference this record (not yet trimmed past it).
    int live_tag_refs = 0;
    // Last checkpoint round that emitted this body (0 = none); see CheckpointTag. Sits in
    // what would otherwise be padding after live_tag_refs.
    uint32_t ckpt_round = 0;
  };
  // One shard's records, keyed by local seqnum (seqnum / shard_count). The shards' locals are
  // disjoint, so with N shards a page is ~1/N live and compacts once the shard passes it.
  using RecordStore = SparsePages<StoredRecord, kRecordPageSlots>;

  void PreinternWellKnown();
  std::vector<TagId> InternAll(std::vector<std::string> names);

  // Allocates the next encoded seqnum for an append sequenced by `shard` and advances the
  // watermark. Strictly increasing across shards; exactly watermark + 1 when unsharded.
  SeqNum AllocSeqNum(uint32_t shard) {
    SeqNum local = watermark_ / shard_count_ + 1;
    SeqNum enc = local * shard_count_ + shard;
    watermark_ = enc;
    return enc;
  }

  // Sequences one record on `shard`: allocates its seqnum, installs it, and journals it.
  // Write-ahead ordering: the frame is journaled at commit, before AppendGroup's commit
  // notification can start index propagation — the cluster gates propagation (and the client
  // gates its external ack) on this frame becoming durable.
  SeqNum Commit(uint32_t shard, SimTime now, std::span<const TagId> tags,
                const FieldMap& fields);

  // Evaluates a logCondAppend condition against the current stream state. Returns true when
  // the append may proceed; on conflict fills `existing` with the occupant of `cond_pos`.
  bool CondHolds(TagId cond_tag, size_t cond_pos, SeqNum* existing);

  // Builds the immutable record block (op interned, stored_bytes sized from the builder)
  // without installing it anywhere.
  LogRecordPtr MakeRecord(SeqNum seqnum, std::span<const TagId> tags, const FieldMap& fields);
  // The shared body of Commit and strict RestoreRecord: builds the immutable record and
  // installs it into the record store, the per-tag sub-streams, and the storage gauge — everything EXCEPT seqnum allocation, journaling, and commit notification,
  // which is exactly what differs between a live append and a journal replay. `restoring`
  // selects the replay stream lookup (RestoreStreamFor) over the live one.
  LogRecordPtr InstallRecord(SimTime now, SeqNum seqnum, std::span<const TagId> tags,
                             const FieldMap& fields, bool restoring);
  void JournalRecord(const LogRecord& record);
  void RestoreRecordFuzzy(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                          FieldMap fields);

  // Emits the image frames of `tag`'s sub-stream into the checkpoint store: first a
  // kCkptRecord body for every referenced record not yet emitted in round walk_round_ (each
  // emitted record's slot is stamped with the round), then one kCkptTagStream frame with the
  // stream's base and live seqnums. Fully-trimmed live streams (no entries, base > 0) are
  // emitted too: their base carries the logical offsets logCondAppend depends on (retired
  // streams are skipped by the walk, never reaching here). Returns the walk-budget items
  // consumed (0 when the stream never held a record); increments *frames per frame
  // appended.
  size_t CheckpointTag(TagId tag, storage::CheckpointStore* store, int64_t* frames);

  // Live read path: `tag`'s stream, or null if the id was never assigned. Aborts on a
  // retiring or retired tag.
  const TagStream* FindStream(TagId tag) const;
  TagStream* FindStream(TagId tag) {
    return const_cast<TagStream*>(std::as_const(*this).FindStream(tag));
  }
  // Live write path: like FindStream, but the id must have been assigned.
  TagStream& StreamFor(TagId tag);
  // Replay path: `tag`'s stream in any state. A retired id gets a transient stream in
  // replay_streams_ that its kRetire frame empties — DESIGN.md §13's replay rule (c).
  TagStream& RestoreStreamFor(TagId tag);
  // Every stream: the registry's unretired ids' in id order, then the transient ones.
  template <typename Fn>
  void ForEachStream(Fn fn) const {
    for (TagId id = tags_.NextUnretired(0); id < tags_.size(); id = tags_.NextUnretired(id + 1)) {
      fn(*tags_.Stream(id));
    }
    for (const auto& [tag, stream] : replay_streams_) fn(stream);
  }

  // Trims `tag`'s stream to empty and closes the tag; returns the records removed. Then
  // JournalRetire appends its kRetire frame and returns the frame's end offset. Shared by
  // Retire and FinishReplay's re-issue.
  size_t TrimAndClose(SimTime now, TagId tag);
  uint64_t JournalRetire(TagId tag);

  // ---- Record store ----
  // `seqnum`'s slot if occupied, else null; valid until the next install or release.
  StoredRecord* FindSlot(SeqNum seqnum) {
    return stores_[ShardOfSeq(seqnum)].Find(seqnum / shard_count_);
  }
  const StoredRecord* FindSlot(SeqNum seqnum) const {
    return stores_[ShardOfSeq(seqnum)].Find(seqnum / shard_count_);
  }
  // Installs `record` into its (empty — HM_CHECKed) slot.
  StoredRecord& InstallSlot(LogRecordPtr record, int live_tag_refs);

  LogRecordPtr LookupLive(SeqNum seqnum) const {
    const StoredRecord* slot = FindSlot(seqnum);
    return slot != nullptr ? slot->record : nullptr;
  }
  void ReleaseRef(SimTime now, SeqNum seqnum);
  // Releases one ref on each of `stream`'s live entries <= upto and drops them from the
  // stream. Returns the number of entries dropped.
  size_t TrimPrefix(SimTime now, TagStream& stream, SeqNum upto);

  const uint32_t shard_count_;
  TagRegistry tags_;
  TagRegistry ops_;
  metrics::StorageGauge gauge_;
  SeqNum watermark_ = 0;  // Largest encoded seqnum committed; 0 = none, the first is >= 1.
  std::function<void(SeqNum)> commit_listener_;
  storage::DurabilityService* durability_ = nullptr;  // See AttachDurability.

  std::vector<RecordStore> stores_;  // Indexed by shard.

  // Retiring tags (closed, name still interned) and the journal offset their kRetire frame
  // ends at, in frame order (a node loss destroys a suffix, which FinishReplay re-issues in
  // order); see Retire. Survives ResetVolatile, like the registry.
  struct PendingRetire {
    TagId tag;
    uint64_t frame_end;
  };
  std::deque<PendingRetire> pending_retire_;
  // Replay only: name hashes of kTagDef frames for retired ids, awaiting their kRetire frame,
  // and the transient streams of retired ids (see RestoreStreamFor).
  std::map<TagId, uint64_t> unmatched_tag_defs_;
  std::map<TagId, TagStream> replay_streams_;

  // Checkpoint-walk cursor (valid between BeginCheckpointWalk and the slice returning true)
  // and the current round's body stamp (0 = no round yet, the never-emitted stamp).
  TagId walk_next_tag_ = 0;
  uint32_t walk_round_ = 0;
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_SHARDED_LOG_H_
