#include "src/sharedlog/sharded_log.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"

namespace halfmoon::sharedlog {

ShardedLog::ShardedLog(uint32_t shard_count) : shard_count_(shard_count) {
  HM_CHECK_MSG(shard_count >= 1, "ShardedLog: shard_count must be >= 1");
  // The tag → shard mapping must be fixed before any tag is interned.
  tags_.SetShardCount(shard_count);
  stores_.resize(shard_count);
  PreinternWellKnown();
}

void ShardedLog::PreinternWellKnown() {
  // Pre-intern the two global streams so their ids are compile-time constants everywhere.
  HM_CHECK(tags_.Intern(InitLogTag()) == kInitTagId);
  HM_CHECK(tags_.Intern(FinishLogTag()) == kFinishTagId);
  // Same for the protocol op names (the kOp* constants of log_record.h).
  HM_CHECK(ops_.Intern("init") == kOpInit);
  HM_CHECK(ops_.Intern("read") == kOpRead);
  HM_CHECK(ops_.Intern("write-pre") == kOpWritePre);
  HM_CHECK(ops_.Intern("write") == kOpWrite);
  HM_CHECK(ops_.Intern("invoke-pre") == kOpInvokePre);
  HM_CHECK(ops_.Intern("invoke") == kOpInvoke);
  HM_CHECK(ops_.Intern("sync") == kOpSync);
  HM_CHECK(ops_.Intern("BEGIN") == kOpSwitchBegin);
  HM_CHECK(ops_.Intern("END") == kOpSwitchEnd);
}

std::vector<TagId> ShardedLog::InternAll(std::vector<std::string> names) {
  std::vector<TagId> ids;
  ids.reserve(names.size());
  for (const std::string& name : names) ids.push_back(tags_.Intern(name));
  return ids;
}

const TagStream* ShardedLog::FindStream(TagId tag) const {
  if (tag >= tags_.size()) return nullptr;  // Never interned: no records.
  const TagStream* stream = tags_.LiveStream(tag);
  HM_CHECK_MSG(stream != nullptr, "ShardedLog: tag was retired");
  return stream;
}

TagStream& ShardedLog::StreamFor(TagId tag) {
  HM_CHECK_MSG(tag < tags_.size(), "ShardedLog: tag id was never interned");
  return *FindStream(tag);
}

TagStream& ShardedLog::RestoreStreamFor(TagId tag) {
  HM_CHECK_MSG(tag < tags_.size(), "journal replay names a tag that was never interned");
  if (TagStream* stream = tags_.Stream(tag)) return *stream;
  return replay_streams_[tag];
}

// ---- Record store ----

ShardedLog::StoredRecord& ShardedLog::InstallSlot(LogRecordPtr record, int live_tag_refs) {
  static_assert(sizeof(StoredRecord) == sizeof(LogRecordPtr) + 8,
                "the checkpoint stamp must fit in StoredRecord's padding");
  // Insert aborts if the seqnum is installed already.
  StoredRecord& slot = stores_[ShardOfSeq(record->seqnum)].Insert(record->seqnum / shard_count_);
  slot.record = std::move(record);
  slot.live_tag_refs = live_tag_refs;
  return slot;
}

void ShardedLog::ReleaseRef(SimTime now, SeqNum seqnum) {
  StoredRecord* slot = FindSlot(seqnum);
  HM_CHECK_MSG(slot != nullptr, "ReleaseRef on missing record");
  if (--slot->live_tag_refs > 0) return;
  gauge_.Add(now, -static_cast<int64_t>(slot->record->stored_bytes));
  stores_[ShardOfSeq(seqnum)].Erase(seqnum / shard_count_);
}

size_t ShardedLog::live_records() const {
  size_t total = 0;
  for (const RecordStore& store : stores_) total += store.size();
  return total;
}

// ---- Append paths ----

LogRecordPtr ShardedLog::MakeRecord(SeqNum seqnum, std::vector<TagId> tags, FieldMap fields) {
  auto record = std::make_shared<LogRecord>();
  record->seqnum = seqnum;
  record->tags = std::move(tags);
  record->fields = std::move(fields);
  if (record->fields.Has(kFieldOp)) {
    record->op = ops_.Intern(record->fields.GetStr(kFieldOp));
  }
  record->stored_bytes = record->ByteSize();
  return record;
}

LogRecordPtr ShardedLog::InstallRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                                       FieldMap fields, bool restoring) {
  LogRecordPtr record = MakeRecord(seqnum, std::move(tags), std::move(fields));
  gauge_.Add(now, static_cast<int64_t>(record->stored_bytes));
  // Encoded seqnums are allocated in global commit order, so pushing to the back keeps every
  // stream sorted, whichever shard sequenced the record.
  for (TagId tag : record->tags) {
    (restoring ? RestoreStreamFor(tag) : StreamFor(tag)).entries.push_back(seqnum);
  }
  int live_tag_refs = static_cast<int>(record->tags.size());
  return InstallSlot(std::move(record), live_tag_refs).record;
}

SeqNum ShardedLog::Commit(uint32_t shard, SimTime now, std::vector<TagId> tags,
                          FieldMap fields) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  SeqNum seqnum = AllocSeqNum(shard);
  LogRecordPtr record =
      InstallRecord(now, seqnum, std::move(tags), std::move(fields), /*restoring=*/false);
  if (durability_ != nullptr) JournalRecord(*record);
  return seqnum;
}

bool ShardedLog::CondHolds(TagId cond_tag, size_t cond_pos, SeqNum* existing) {
  TagStream& stream = StreamFor(cond_tag);
  if (stream.length() == cond_pos) return true;
  // Conflict: some peer already appended at (or past) the expected offset. Report the record
  // occupying that offset so the caller can recover its peer's state. Unlike the description
  // in §5.1 we can check *before* physically appending because this object is the
  // linearization point itself; the observable behaviour (append undone, existing seqnum
  // returned) is identical.
  HM_CHECK_MSG(cond_pos < stream.length(),
               "logCondAppend: expected offset beyond stream end (missed a step?)");
  // A conflict below the compacted prefix would mean the occupying record was already
  // GC-trimmed — impossible while the losing instance still runs (§4.5 keeps every record
  // a live SSF may seek), so the offset must fall in the retained suffix.
  HM_CHECK_MSG(cond_pos >= stream.base,
               "logCondAppend: conflicting offset was already trimmed");
  *existing = stream[cond_pos - stream.base];
  return false;
}

SeqNum ShardedLog::Append(SimTime now, std::vector<TagId> tags, FieldMap fields) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  uint32_t shard = ShardOfTag(tags[0]);  // Before the move below: argument order is unspecified.
  std::vector<GroupRequest> requests(1);
  requests[0].entries.push_back(BatchEntry{std::move(tags), std::move(fields)});
  return AppendGroup(shard, now, std::move(requests))[0].seqnum;
}

CondAppendResult ShardedLog::CondAppend(SimTime now, std::vector<TagId> tags, FieldMap fields,
                                        TagId cond_tag, size_t cond_pos) {
  std::vector<GroupRequest> requests(1);
  requests[0].entries.push_back(BatchEntry{std::move(tags), std::move(fields)});
  requests[0].cond_tag = cond_tag;
  requests[0].cond_pos = cond_pos;
  GroupVerdict verdict = AppendGroup(ShardOfTag(cond_tag), now, std::move(requests))[0];
  CondAppendResult result{verdict.ok, verdict.seqnum, verdict.existing_seqnum, nullptr};
  if (verdict.ok) result.record = LookupLive(verdict.seqnum);
  return result;
}

std::vector<ShardedLog::GroupVerdict> ShardedLog::AppendGroup(
    uint32_t shard, SimTime now, std::vector<GroupRequest> requests) {
  HM_CHECK(shard < shard_count_);
  std::vector<GroupVerdict> verdicts(requests.size());
  SeqNum last = kInvalidSeqNum;
  for (size_t i = 0; i < requests.size(); ++i) {
    GroupRequest& request = requests[i];
    GroupVerdict& verdict = verdicts[i];
    HM_CHECK(!request.entries.empty());
    // A request naming a closed tag is refused whole: no seqnum, no frame. Only a round its
    // crashed submitter left in flight can land after the workflow drained and retired the
    // step log (RunAttempt refuses drained workflows).
    bool closed = false;
    for (const BatchEntry& entry : request.entries) {
      for (TagId tag : entry.tags) closed = closed || tags_.Closed(tag);
    }
    if (closed) continue;
    if (request.cond_tag != kInvalidTagId) {
      // Otherwise the offset check is meaningless: the new record would never appear in the
      // conditional stream.
      const std::vector<TagId>& tags = request.entries[0].tags;
      HM_CHECK_MSG(std::find(tags.begin(), tags.end(), request.cond_tag) != tags.end(),
                   "logCondAppend: cond_tag must be one of the first entry's tags");
      if (!CondHolds(request.cond_tag, request.cond_pos, &verdict.existing_seqnum)) {
        continue;  // This request loses; later requests still get their turn.
      }
    }
    verdict.ok = true;
    for (size_t e = 0; e < request.entries.size(); ++e) {
      BatchEntry& entry = request.entries[e];
      last = Commit(shard, now, std::move(entry.tags), std::move(entry.fields));
      if (e == 0) verdict.seqnum = last;
    }
  }
  // One notification for the whole round (see the header).
  if (commit_listener_ && last != kInvalidSeqNum) commit_listener_(last);
  return verdicts;
}

// ---- Read paths ----

LogRecordPtr ShardedLog::FindFirstByStep(TagId tag, OpId op, int64_t step) const {
  if (op == kInvalidOpId) return nullptr;  // The op name was never appended anywhere.
  const TagStream* stream = FindStream(tag);
  if (stream == nullptr) return nullptr;
  for (SeqNum seqnum : *stream) {
    LogRecordPtr record = LookupLive(seqnum);
    if (record == nullptr) continue;
    if (record->op == op && record->fields.GetInt(kFieldStep) == step) {
      return record;
    }
  }
  return nullptr;
}

std::vector<TagId> ShardedLog::LiveTagsWithPrefix(std::string_view prefix) const {
  std::vector<TagId> out;
  for (TagId id = tags_.NextUnretired(0); id < tags_.size(); id = tags_.NextUnretired(id + 1)) {
    const TagStream* stream = tags_.LiveStream(id);
    if (stream != nullptr && !stream->empty() && tags_.Name(id).starts_with(prefix)) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end(),
            [this](TagId a, TagId b) { return tags_.Name(a) < tags_.Name(b); });
  return out;
}

LogRecordPtr ShardedLog::ReadPrev(TagId tag, SeqNum max_seqnum) const {
  SeqNum seqnum = LatestSeqNoAtMost(tag, max_seqnum);
  return seqnum == kInvalidSeqNum ? nullptr : LookupLive(seqnum);
}

SeqNum ShardedLog::LatestSeqNoAtMost(TagId tag, SeqNum max_seqnum) const {
  const TagStream* stream = FindStream(tag);
  if (stream == nullptr) return kInvalidSeqNum;
  // Last seqnum <= max_seqnum within the live (untrimmed) suffix.
  const SeqNum* upper = std::upper_bound(stream->begin(), stream->end(), max_seqnum);
  if (upper == stream->begin()) return kInvalidSeqNum;
  return *(upper - 1);
}

LogRecordPtr ShardedLog::ReadNext(TagId tag, SeqNum min_seqnum) const {
  const TagStream* stream = FindStream(tag);
  if (stream == nullptr) return nullptr;
  const SeqNum* lower = std::lower_bound(stream->begin(), stream->end(), min_seqnum);
  if (lower == stream->end()) return nullptr;
  return LookupLive(*lower);
}

std::vector<LogRecordPtr> ShardedLog::ReadStreamUpTo(TagId tag, SeqNum max_seqnum) const {
  std::vector<LogRecordPtr> out;
  const TagStream* stream = FindStream(tag);
  if (stream == nullptr) return out;
  out.reserve(stream->size());
  for (SeqNum seqnum : *stream) {
    if (seqnum > max_seqnum) break;
    LogRecordPtr record = LookupLive(seqnum);
    if (record != nullptr) out.push_back(std::move(record));
  }
  return out;
}

size_t ShardedLog::StreamLength(TagId tag) const {
  const TagStream* stream = FindStream(tag);
  return stream == nullptr ? 0 : stream->length();
}

size_t ShardedLog::IndexEntries() const {
  size_t total = 0;
  ForEachStream([&](const TagStream& stream) { total += stream.size(); });
  return total;
}

size_t ShardedLog::IndexCapacity() const {
  size_t total = 0;
  ForEachStream([&](const TagStream& stream) { total += stream.entries.capacity(); });
  return total;
}

// ---- GC ----

size_t ShardedLog::TrimPrefix(SimTime now, TagStream& stream, SeqNum upto) {
  const SeqNum* cut = std::upper_bound(stream.begin(), stream.end(), upto);
  size_t n = static_cast<size_t>(cut - stream.begin());
  for (const SeqNum* it = stream.begin(); it != cut; ++it) ReleaseRef(now, *it);
  stream.DropFront(n);
  return n;
}

size_t ShardedLog::Trim(SimTime now, TagId tag, SeqNum upto) {
  TagStream* found = FindStream(tag);
  if (found == nullptr) return 0;
  TagStream& stream = *found;
  size_t released = TrimPrefix(now, stream, upto);
  stream.base += released;
  // Trims are journaled fire-and-forget: nothing external depends on a trim being durable,
  // and a trim lost to a crash merely resurrects garbage the next GC pass re-collects. The
  // resulting base rides along so fuzzy replay (DESIGN.md §14) can restore logical offsets
  // without re-counting pops the image may have absorbed.
  if (released > 0 && durability_ != nullptr) {
    std::string payload;
    storage::PutU64(&payload, tag);
    storage::PutU64(&payload, upto);
    storage::PutU64(&payload, stream.base);
    durability_->AppendFrame(storage::FrameType::kTrim, payload);
  }
  return released;
}

// ---- Tag retirement ----

size_t ShardedLog::Retire(SimTime now, TagId tag) {
  HM_CHECK_MSG(tags_.Contains(tag), "ShardedLog::Retire: tag id was never interned");
  if (tags_.Closed(tag)) return 0;  // Already retiring.
  size_t released = TrimAndClose(now, tag);
  if (durability_ == nullptr) {
    tags_.Retire(tag);  // Without a journal there is nothing to wait for: the slot goes now.
  } else {
    const uint64_t frame_end = JournalRetire(tag);
    HM_CHECK(pending_retire_.empty() || pending_retire_.back().frame_end < frame_end);
    pending_retire_.push_back(PendingRetire{tag, frame_end});
  }
  return released;
}

size_t ShardedLog::TrimAndClose(SimTime now, TagId tag) {
  TagStream& stream = *tags_.Stream(tag);
  size_t released = TrimPrefix(now, stream, kMaxSeqNum);
  HM_CHECK_MSG(stream.empty(), "ShardedLog::Retire: stream still holds entries");
  stream = TagStream{};
  tags_.Close(tag);
  return released;
}

uint64_t ShardedLog::JournalRetire(TagId tag) {
  // One frame carries the whole retirement (it replaces the kTrim frame the emptying trim
  // would have journaled); the name hash lets replay check the id's kTagDef frame after the
  // name itself is gone.
  std::string payload;
  storage::PutU64(&payload, tag);
  storage::PutU64(&payload, TagRegistry::NameHash(tags_.Name(tag)));
  return durability_->AppendFrame(storage::FrameType::kRetire, payload);
}

size_t ShardedLog::ReleaseRetired() {
  if (pending_retire_.empty()) return 0;
  // The list is in frame_end order, so its durable entries are a prefix.
  const uint64_t durable = durability_->durable_offset();
  size_t released = 0;
  while (!pending_retire_.empty() && pending_retire_.front().frame_end <= durable) {
    tags_.Retire(pending_retire_.front().tag);
    pending_retire_.pop_front();
    ++released;
  }
  return released;
}

// ---- Durable medium + crash-restart recovery ----

void ShardedLog::AttachDurability(storage::DurabilityService* svc) {
  durability_ = svc;
  if (svc == nullptr) {
    tags_.SetInternSink(nullptr);
    return;
  }
  tags_.SetInternSink([svc](TagId id, std::string_view name) {
    std::string payload;
    storage::PutU64(&payload, id);
    storage::PutStr(&payload, name);
    svc->AppendFrame(storage::FrameType::kTagDef, payload);
  });
}

void ShardedLog::ResetVolatile(SimTime now) {
  gauge_.Add(now, -gauge_.CurrentBytes());
  watermark_ = 0;
  // Retiring tags stay closed: replay fills their streams (restore paths ignore the state)
  // and FinishReplay empties them again.
  tags_.ResetStreams();
  replay_streams_.clear();
  unmatched_tag_defs_.clear();
  for (RecordStore& store : stores_) store = RecordStore{};
}

void ShardedLog::FinishReplay(SimTime now) {
  HM_CHECK_MSG(unmatched_tag_defs_.empty(),
               "journal replay: a retired tag's kTagDef frame has no kRetire frame");
  // Retired ids' transient streams must have been emptied by their kRetire frames; drop
  // them.
  for (const auto& [tag, stream] : replay_streams_) {
    HM_CHECK_MSG(stream.empty(), "journal replay: a retired tag still holds stream entries");
  }
  replay_streams_.clear();
  // Retiring tags: a kRetire frame the node loss destroyed is re-issued (trim + new frame);
  // otherwise the replayed frame (or the image, for frames below its cut) already emptied
  // the stream.
  const uint64_t durable = durability_ == nullptr ? 0 : durability_->durable_offset();
  for (PendingRetire& pending : pending_retire_) {
    if (pending.frame_end > durable) {
      TrimAndClose(now, pending.tag);
      pending.frame_end = JournalRetire(pending.tag);
      continue;
    }
    HM_CHECK_MSG(tags_.Stream(pending.tag)->empty(),
                 "journal replay: a durably retired tag still holds stream entries");
  }
  ReleaseRetired();
}

std::string ShardedLog::EncodeRecordPayload(const LogRecord& record) {
  size_t bytes = 8 + 4 + 8 * record.tags.size() + 4;
  for (const auto& [key, field] : record.fields) {
    const std::string* str = std::get_if<std::string>(&field);
    bytes += storage::StrBytes(key) + 1 + (str == nullptr ? 8 : storage::StrBytes(*str));
  }
  std::string payload;
  payload.reserve(bytes);
  storage::PutU64(&payload, record.seqnum);
  storage::PutU32(&payload, static_cast<uint32_t>(record.tags.size()));
  for (TagId tag : record.tags) storage::PutU64(&payload, tag);
  storage::PutU32(&payload, static_cast<uint32_t>(record.fields.size()));
  for (const auto& [key, field] : record.fields) {
    storage::PutStr(&payload, key);
    if (const int64_t* i = std::get_if<int64_t>(&field)) {
      storage::PutU8(&payload, 0);
      storage::PutU64(&payload, static_cast<uint64_t>(*i));
    } else {
      storage::PutU8(&payload, 1);
      storage::PutStr(&payload, std::get<std::string>(field));
    }
  }
  return payload;
}

void ShardedLog::JournalRecord(const LogRecord& record) {
  uint64_t end =
      durability_->AppendFrame(storage::FrameType::kRecord, EncodeRecordPayload(record));
  durability_->NoteCommit(record.seqnum, end);
}

void ShardedLog::RestoreRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                               FieldMap fields, bool fuzzy) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  if (fuzzy) {
    RestoreRecordFuzzy(now, seqnum, std::move(tags), std::move(fields));
    return;
  }
  // Frames replay in append order and seqnums are allocated in commit order, so a replay
  // observes strictly increasing seqnums; the watermark lands exactly where the original
  // run's durable prefix left it.
  HM_CHECK_MSG(seqnum > watermark_, "journal replay out of commit order");
  watermark_ = seqnum;
  InstallRecord(now, seqnum, std::move(tags), std::move(fields), /*restoring=*/true);
}

void ShardedLog::RestoreRecordFuzzy(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                                    FieldMap fields) {
  // Replay-suffix on top of a fuzzy image: the image may reflect this record in none, some,
  // or all of its streams (each stream was snapshotted at its own instant). The body installs
  // once; each stream does a sorted check-and-insert so already-absorbed frames are no-ops.
  // Seqnums need not arrive above the watermark — image streams already carried later ones.
  EnsureWatermark(seqnum);
  StoredRecord* stored = FindSlot(seqnum);
  if (stored == nullptr) {
    LogRecordPtr record = MakeRecord(seqnum, std::move(tags), std::move(fields));
    gauge_.Add(now, static_cast<int64_t>(record->stored_bytes));
    stored = &InstallSlot(std::move(record), 0);
  }
  for (TagId tag : stored->record->tags) {
    TagStream& stream = RestoreStreamFor(tag);
    const SeqNum* pos = std::lower_bound(stream.begin(), stream.end(), seqnum);
    if (pos != stream.end() && *pos == seqnum) continue;  // Image already has it.
    stream.InsertAt(static_cast<size_t>(pos - stream.begin()), seqnum);
    ++stored->live_tag_refs;
  }
}

void ShardedLog::RestoreTrim(SimTime now, TagId tag, SeqNum upto, size_t base_after) {
  TagStream& stream = RestoreStreamFor(tag);
  TrimPrefix(now, stream, upto);
  // max() rather than += drops: when the image already absorbed (part of) this trim the
  // trim above releases fewer records than the original did, but the journaled base_after
  // is the exact base the original trim left behind — logical offsets stay correct either
  // way.
  if (stream.base < base_after) stream.base = base_after;
}

void ShardedLog::VerifyTagDef(TagId id, std::string_view name) {
  if (tags_.Retired(id)) {
    unmatched_tag_defs_.emplace(id, TagRegistry::NameHash(name));
    return;
  }
  HM_CHECK_MSG(tags_.Contains(id) && tags_.Name(id) == name,
               "journal replay: tag definition does not match the registry");
}

void ShardedLog::RestoreRetire(SimTime now, TagId tag, uint64_t name_hash) {
  if (tags_.Retired(tag)) {
    if (auto it = unmatched_tag_defs_.find(tag); it != unmatched_tag_defs_.end()) {
      HM_CHECK_MSG(it->second == name_hash,
                   "journal replay: a retired tag's kTagDef does not match its kRetire frame");
      unmatched_tag_defs_.erase(it);
    }
  } else {
    HM_CHECK_MSG(tags_.Closed(tag),
                 "journal replay: kRetire frame for a tag that was never retired");
    HM_CHECK_MSG(TagRegistry::NameHash(tags_.Name(tag)) == name_hash,
                 "journal replay: kRetire frame does not match the registry");
  }
  TrimPrefix(now, RestoreStreamFor(tag), kMaxSeqNum);
}

// ---- Incremental checkpointing ----

void ShardedLog::BeginCheckpointWalk() {
  HM_CHECK_MSG(walk_round_ < std::numeric_limits<uint32_t>::max(),
               "checkpoint round counter exhausted");
  walk_next_tag_ = 0;
  ++walk_round_;
}

bool ShardedLog::WriteCheckpointSlice(storage::CheckpointStore* store, int64_t budget,
                                      int64_t* frames) {
  int64_t consumed = 0;
  while (walk_next_tag_ < tags_.size()) {
    if (consumed >= budget) return false;
    TagId tag = tags_.NextUnretired(walk_next_tag_);
    walk_next_tag_ = tag + 1;
    if (tag >= tags_.size()) break;
    // Retiring and retired ids leave the image: their records are gone and no append may
    // ever reach their streams again, so no logical offset needs preserving.
    if (tags_.Closed(tag)) continue;
    consumed += static_cast<int64_t>(CheckpointTag(tag, store, frames));
  }
  return true;
}

size_t ShardedLog::CheckpointTag(TagId tag, storage::CheckpointStore* store, int64_t* frames) {
  HM_CHECK_MSG(walk_round_ != 0, "checkpoint round 0 is the never-emitted stamp");
  const TagStream* stream = FindStream(tag);
  if (stream->length() == 0) return 0;
  size_t consumed = 1;
  std::string payload;
  payload.reserve(8 + 8 + 4 + 8 * stream->size());
  storage::PutU64(&payload, tag);
  storage::PutU64(&payload, stream->base);
  storage::PutU32(&payload, static_cast<uint32_t>(stream->size()));
  for (SeqNum seqnum : *stream) {
    // Emit each referenced body once per round, before the first stream that references it.
    StoredRecord* slot = FindSlot(seqnum);
    HM_CHECK_MSG(slot != nullptr, "checkpoint walk: stream references a dead record");
    if (slot->ckpt_round != walk_round_) {
      slot->ckpt_round = walk_round_;
      store->AppendFrame(storage::FrameType::kCkptRecord, EncodeRecordPayload(*slot->record));
      ++*frames;
      ++consumed;
    }
    storage::PutU64(&payload, seqnum);
    ++consumed;
  }
  store->AppendFrame(storage::FrameType::kCkptTagStream, payload);
  ++*frames;
  return consumed;
}

void ShardedLog::RestoreCheckpointRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                                         FieldMap fields) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  LogRecordPtr record = MakeRecord(seqnum, std::move(tags), std::move(fields));
  gauge_.Add(now, static_cast<int64_t>(record->stored_bytes));
  InstallSlot(std::move(record), 0);
  EnsureWatermark(seqnum);
}

void ShardedLog::RestoreCheckpointStream(SimTime now, TagId tag, size_t base,
                                         const std::vector<SeqNum>& seqnums) {
  (void)now;
  TagStream& stream = RestoreStreamFor(tag);
  HM_CHECK_MSG(stream.empty() && stream.base == 0,
               "checkpoint image restores a stream twice");
  stream.base = base;
  stream.entries.reserve(seqnums.size());
  for (SeqNum seqnum : seqnums) {
    HM_CHECK_MSG(stream.empty() || stream.back() < seqnum,
                 "checkpoint image stream is not sorted");
    stream.entries.push_back(seqnum);
    StoredRecord* slot = FindSlot(seqnum);
    HM_CHECK_MSG(slot != nullptr,
                 "checkpoint image stream references a record the image does not carry");
    ++slot->live_tag_refs;
    EnsureWatermark(seqnum);
  }
}

}  // namespace halfmoon::sharedlog
