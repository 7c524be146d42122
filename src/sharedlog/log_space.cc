#include "src/sharedlog/log_space.h"

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "src/common/check.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"

namespace halfmoon::sharedlog {

LogSpace::LogSpace() {
  owned_shared_ = std::make_unique<Shared>();
  shared_ = owned_shared_.get();
  peers_ = {this};
  PreinternWellKnown();
}

LogSpace::LogSpace(Shared* shared, uint32_t shard, uint32_t shard_count)
    : shared_(shared), shard_(shard), shard_count_(shard_count) {
  HM_CHECK(shared != nullptr);
  HM_CHECK(shard < shard_count);
  HM_CHECK_MSG(shared_->tags.shard_count() == shard_count,
               "LogSpace shard: TagRegistry::SetShardCount must run before shard construction");
  // Idempotent across shards: the first shard interns, the rest verify the same ids.
  PreinternWellKnown();
}

void LogSpace::PreinternWellKnown() {
  // Pre-intern the two global streams so their ids are compile-time constants everywhere.
  HM_CHECK(shared_->tags.Intern(InitLogTag()) == kInitTagId);
  HM_CHECK(shared_->tags.Intern(FinishLogTag()) == kFinishTagId);
  // Same for the protocol op names (the kOp* constants of log_record.h).
  HM_CHECK(shared_->ops.Intern("init") == kOpInit);
  HM_CHECK(shared_->ops.Intern("read") == kOpRead);
  HM_CHECK(shared_->ops.Intern("write-pre") == kOpWritePre);
  HM_CHECK(shared_->ops.Intern("write") == kOpWrite);
  HM_CHECK(shared_->ops.Intern("invoke-pre") == kOpInvokePre);
  HM_CHECK(shared_->ops.Intern("invoke") == kOpInvoke);
  HM_CHECK(shared_->ops.Intern("sync") == kOpSync);
  HM_CHECK(shared_->ops.Intern("BEGIN") == kOpSwitchBegin);
  HM_CHECK(shared_->ops.Intern("END") == kOpSwitchEnd);
}

void LogSpace::SetPeers(std::vector<LogSpace*> peers) {
  HM_CHECK(peers.size() == shard_count_);
  HM_CHECK(peers[shard_] == this);
  peers_ = std::move(peers);
}

LogSpace::TagStream& LogSpace::StreamFor(TagId tag) {
  // Growing streams_ relocates every stream; that must be a move (a pointer swap), not a
  // copy of each stream's buffer.
  static_assert(std::is_nothrow_move_constructible_v<TagStream>);
  HM_CHECK_MSG(shared_->tags.Contains(tag), "LogSpace: tag id was never interned");
  if (tag >= streams_.size()) streams_.resize(tag + 1);
  return streams_[tag];
}

void LogSpace::TagStream::DropFront(size_t n) {
  head += n;
  if (head == entries.size()) {
    std::vector<SeqNum>().swap(entries);  // Fully trimmed: give the buffer back.
    head = 0;
  } else if (head >= entries.size() - head) {
    entries.erase(entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

const LogSpace::StoredRecord* LogSpace::FindSlot(SeqNum seqnum) const {
  SeqNum local = seqnum / shard_count_;
  size_t page = static_cast<size_t>(local / kRecordPageSlots);
  if (page >= pages_.size() || pages_[page] == nullptr) return nullptr;
  const StoredRecord& slot = pages_[page]->slots[local % kRecordPageSlots];
  return slot.record != nullptr ? &slot : nullptr;
}

LogSpace::StoredRecord* LogSpace::FindSlot(SeqNum seqnum) {
  return const_cast<StoredRecord*>(std::as_const(*this).FindSlot(seqnum));
}

LogSpace::StoredRecord& LogSpace::InstallSlot(LogRecordPtr record, int live_tag_refs) {
  // The page table grows by moving unique_ptrs; pages themselves never move.
  static_assert(std::is_nothrow_move_constructible_v<std::unique_ptr<RecordPage>>);
  static_assert(std::is_nothrow_move_constructible_v<RecordPage>);
  static_assert(std::is_nothrow_move_constructible_v<StoredRecord>);
  static_assert(sizeof(StoredRecord) == sizeof(LogRecordPtr) + 8,
                "the checkpoint stamp must fit in StoredRecord's padding");
  SeqNum local = record->seqnum / shard_count_;
  size_t page = static_cast<size_t>(local / kRecordPageSlots);
  if (page >= pages_.size()) pages_.resize(page + 1);
  if (pages_[page] == nullptr) pages_[page] = std::make_unique<RecordPage>();
  StoredRecord& slot = pages_[page]->slots[local % kRecordPageSlots];
  HM_CHECK_MSG(slot.record == nullptr, "record store: seqnum installed twice");
  slot.record = std::move(record);
  slot.live_tag_refs = live_tag_refs;
  slot.ckpt_round = 0;
  ++pages_[page]->occupied;
  ++live_records_;
  return slot;
}

size_t LogSpace::RecordPages() const {
  return static_cast<size_t>(
      std::count_if(pages_.begin(), pages_.end(), [](const auto& p) { return p != nullptr; }));
}

SeqNum LogSpace::Append(SimTime now, std::vector<TagId> tags, FieldMap fields) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  return TagOwner(tags[0])->AppendLocal(now, std::move(tags), std::move(fields));
}

SeqNum LogSpace::AppendLocal(SimTime now, std::vector<TagId> tags, FieldMap fields) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  SeqNum seqnum = AllocSeqNum();
  LogRecordPtr record = InstallRecord(now, seqnum, std::move(tags), std::move(fields));
  // Write-ahead ordering: the frame is journaled at commit, before the listener can start
  // index propagation — the cluster gates propagation (and the client gates its external
  // ack) on this frame becoming durable.
  if (shared_->durability != nullptr) JournalRecord(*record);
  if (shared_->commit_listener) shared_->commit_listener(seqnum);
  return seqnum;
}

LogRecordPtr LogSpace::MakeRecord(SeqNum seqnum, std::vector<TagId> tags, FieldMap fields) {
  auto record = std::make_shared<LogRecord>();
  record->seqnum = seqnum;
  record->tags = std::move(tags);
  record->fields = std::move(fields);
  if (record->fields.Has("op")) {
    record->op = shared_->ops.Intern(record->fields.GetStr("op"));
  }
  return record;
}

LogRecordPtr LogSpace::InstallRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                                     FieldMap fields) {
  LogRecordPtr record = MakeRecord(seqnum, std::move(tags), std::move(fields));
  shared_->gauge.Add(now, static_cast<int64_t>(record->ByteSize()));
  // Each tag's sub-stream lives on the tag's owning shard; the encoded seqnums are allocated
  // in global commit order, so pushing to the back keeps every stream sorted — also on shards
  // other than the sequencing one.
  for (TagId tag : record->tags) {
    TagStream& stream = TagOwner(tag)->StreamFor(tag);
    if (stream.empty()) {
      shared_->live_tags.emplace(std::string_view(shared_->tags.Name(tag)), tag);
    }
    stream.entries.push_back(seqnum);
  }
  int live_tag_refs = static_cast<int>(record->tags.size());
  return InstallSlot(std::move(record), live_tag_refs).record;
}

std::string LogSpace::EncodeRecordPayload(const LogRecord& record) {
  std::string payload;
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

void LogSpace::JournalRecord(const LogRecord& record) {
  uint64_t end = shared_->durability->AppendFrame(storage::FrameType::kRecord,
                                                  EncodeRecordPayload(record));
  shared_->durability->NoteCommit(record.seqnum, end);
}

void LogSpace::RestoreRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                             FieldMap fields, bool fuzzy) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  if (fuzzy) {
    SeqOwner(seqnum)->RestoreRecordFuzzyLocal(now, seqnum, std::move(tags), std::move(fields));
  } else {
    SeqOwner(seqnum)->RestoreRecordLocal(now, seqnum, std::move(tags), std::move(fields));
  }
}

void LogSpace::RestoreRecordLocal(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                                  FieldMap fields) {
  // Frames replay in append order and seqnums are allocated in commit order, so a replay
  // observes strictly increasing seqnums; the watermark lands exactly where the original
  // run's durable prefix left it.
  HM_CHECK_MSG(seqnum > shared_->watermark, "journal replay out of commit order");
  shared_->watermark = seqnum;
  InstallRecord(now, seqnum, std::move(tags), std::move(fields));
}

void LogSpace::RestoreRecordFuzzyLocal(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                                       FieldMap fields) {
  // Replay-suffix on top of a fuzzy image: the image may reflect this record in none, some,
  // or all of its streams (each stream was snapshotted at its own instant). The body installs
  // once; each stream does a sorted check-and-insert so already-absorbed frames are no-ops.
  // Seqnums need not arrive above the watermark — image streams already carried later ones.
  if (shared_->watermark < seqnum) shared_->watermark = seqnum;
  StoredRecord* stored = FindSlot(seqnum);
  if (stored == nullptr) {
    LogRecordPtr record = MakeRecord(seqnum, std::move(tags), std::move(fields));
    shared_->gauge.Add(now, static_cast<int64_t>(record->ByteSize()));
    stored = &InstallSlot(std::move(record), 0);
  }
  for (TagId tag : stored->record->tags) {
    TagStream& stream = TagOwner(tag)->StreamFor(tag);
    const SeqNum* pos = std::lower_bound(stream.begin(), stream.end(), seqnum);
    if (pos != stream.end() && *pos == seqnum) continue;  // Image already has it.
    if (stream.empty()) {
      shared_->live_tags.emplace(std::string_view(shared_->tags.Name(tag)), tag);
    }
    stream.InsertAt(static_cast<size_t>(pos - stream.begin()), seqnum);
    ++stored->live_tag_refs;
  }
}

void LogSpace::RestoreTrim(SimTime now, TagId tag, SeqNum upto, size_t base_after) {
  HM_CHECK_MSG(shared_->tags.Contains(tag), "journal replay trims an unknown tag");
  TagOwner(tag)->RestoreTrimLocal(now, tag, upto, base_after);
}

void LogSpace::RestoreTrimLocal(SimTime now, TagId tag, SeqNum upto, size_t base_after) {
  TagStream& stream = StreamFor(tag);
  TrimPrefix(now, stream, upto);
  // max() rather than += drops: when the image already absorbed (part of) this trim the
  // trim above releases fewer records than the original did, but the journaled base_after
  // is the exact base the original trim left behind — logical offsets stay correct either
  // way.
  if (stream.base < base_after) stream.base = base_after;
  if (stream.empty() && stream.base > 0) {
    shared_->live_tags.erase(std::string_view(shared_->tags.Name(tag)));
  }
}

size_t LogSpace::CheckpointTag(TagId tag, storage::CheckpointStore* store, uint32_t round,
                               int64_t* frames) {
  HM_CHECK_MSG(round != 0, "checkpoint round 0 is the never-emitted stamp");
  const TagStream* stream = FindStream(tag);
  if (stream == nullptr || stream->length() == 0) return 0;
  size_t consumed = 1;
  std::string payload;
  storage::PutU64(&payload, tag);
  storage::PutU64(&payload, stream->base);
  storage::PutU32(&payload, static_cast<uint32_t>(stream->size()));
  for (SeqNum seqnum : *stream) {
    // Emit each referenced body once per round, before the first stream that references it.
    StoredRecord* slot = SeqOwner(seqnum)->FindSlot(seqnum);
    HM_CHECK_MSG(slot != nullptr, "checkpoint walk: stream references a dead record");
    if (slot->ckpt_round != round) {
      slot->ckpt_round = round;
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

void LogSpace::RestoreCheckpointRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                                       FieldMap fields) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  LogSpace* owner = SeqOwner(seqnum);
  LogRecordPtr record = owner->MakeRecord(seqnum, std::move(tags), std::move(fields));
  shared_->gauge.Add(now, static_cast<int64_t>(record->ByteSize()));
  owner->InstallSlot(std::move(record), 0);
  if (shared_->watermark < seqnum) shared_->watermark = seqnum;
}

void LogSpace::RestoreCheckpointStream(SimTime now, TagId tag, size_t base,
                                       const std::vector<SeqNum>& seqnums) {
  HM_CHECK_MSG(shared_->tags.Contains(tag), "checkpoint image names an unknown tag");
  TagOwner(tag)->RestoreCheckpointStreamLocal(now, tag, base, seqnums);
}

void LogSpace::RestoreCheckpointStreamLocal(SimTime now, TagId tag, size_t base,
                                            const std::vector<SeqNum>& seqnums) {
  (void)now;
  TagStream& stream = StreamFor(tag);
  HM_CHECK_MSG(stream.empty() && stream.base == 0,
               "checkpoint image restores a stream twice");
  stream.base = base;
  stream.entries.reserve(seqnums.size());
  for (SeqNum seqnum : seqnums) {
    HM_CHECK_MSG(stream.empty() || stream.back() < seqnum,
                 "checkpoint image stream is not sorted");
    stream.entries.push_back(seqnum);
    SeqOwner(seqnum)->TakeRefLocal(seqnum);
    if (shared_->watermark < seqnum) shared_->watermark = seqnum;
  }
  if (!stream.empty()) {
    shared_->live_tags.emplace(std::string_view(shared_->tags.Name(tag)), tag);
  }
}

void LogSpace::TakeRefLocal(SeqNum seqnum) {
  StoredRecord* slot = FindSlot(seqnum);
  HM_CHECK_MSG(slot != nullptr,
               "checkpoint image stream references a record the image does not carry");
  ++slot->live_tag_refs;
}

void LogSpace::ResetShardVolatile() {
  pages_.clear();
  live_records_ = 0;
  streams_.clear();
}

bool LogSpace::CondHolds(TagId cond_tag, size_t cond_pos, SeqNum* existing) {
  TagStream& stream = TagOwner(cond_tag)->StreamFor(cond_tag);
  if (stream.length() == cond_pos) return true;
  // Conflict: some peer already appended at (or past) the expected offset. Report the record
  // occupying that offset so the caller can recover its peer's state. Unlike the description
  // in §5.1 we can check *before* physically appending because LogSpace is the linearization
  // point itself; the observable behaviour (append undone, existing seqnum returned) is
  // identical.
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

CondAppendResult LogSpace::CondAppend(SimTime now, std::vector<TagId> tags, FieldMap fields,
                                      TagId cond_tag, size_t cond_pos) {
  // The conditional tag must be among the record's tags, otherwise the offset check is
  // meaningless (the new record would never appear in the conditional stream).
  HM_CHECK_MSG(std::find(tags.begin(), tags.end(), cond_tag) != tags.end(),
               "logCondAppend: cond_tag must be one of the record's tags");
  // The shard owning cond_tag arbitrates the condition, so racing cond-appends on one tag
  // serialize through one shard's sequencer no matter which node issued them.
  return TagOwner(cond_tag)->CondAppendLocal(now, std::move(tags), std::move(fields), cond_tag,
                                             cond_pos);
}

CondAppendResult LogSpace::CondAppendLocal(SimTime now, std::vector<TagId> tags,
                                           FieldMap fields, TagId cond_tag, size_t cond_pos) {
  CondAppendResult result;
  if (!CondHolds(cond_tag, cond_pos, &result.existing_seqnum)) {
    result.ok = false;
    return result;
  }
  result.ok = true;
  result.seqnum = AppendLocal(now, std::move(tags), std::move(fields));
  result.record = LookupLive(result.seqnum);
  return result;
}

CondAppendResult LogSpace::CondAppendBatch(SimTime now, std::vector<BatchEntry> batch,
                                           TagId cond_tag, size_t cond_pos) {
  HM_CHECK(!batch.empty());
  return TagOwner(cond_tag)->CondAppendBatchLocal(now, std::move(batch), cond_tag, cond_pos);
}

CondAppendResult LogSpace::CondAppendBatchLocal(SimTime now, std::vector<BatchEntry> batch,
                                               TagId cond_tag, size_t cond_pos) {
  CondAppendResult result;
  if (!CondHolds(cond_tag, cond_pos, &result.existing_seqnum)) {
    result.ok = false;
    return result;
  }
  result.ok = true;
  result.seqnum = AppendBatchLocal(now, std::move(batch));
  result.record = LookupLive(result.seqnum);
  return result;
}

SeqNum LogSpace::AppendBatch(SimTime now, std::vector<BatchEntry> batch) {
  HM_CHECK(!batch.empty());
  HM_CHECK_MSG(!batch[0].tags.empty(), "log records must carry at least one tag");
  return TagOwner(batch[0].tags[0])->AppendBatchLocal(now, std::move(batch));
}

SeqNum LogSpace::AppendBatchLocal(SimTime now, std::vector<BatchEntry> batch) {
  HM_CHECK(!batch.empty());
  // Suppress per-record commit notifications: the batch becomes visible to index replicas as
  // a unit (one notification carrying the last seqnum), so no replica ever observes half of
  // an atomically committed group.
  std::function<void(SeqNum)> listener;
  listener.swap(shared_->commit_listener);
  SeqNum first = kInvalidSeqNum;
  SeqNum last = kInvalidSeqNum;
  for (size_t i = 0; i < batch.size(); ++i) {
    last = AppendLocal(now, std::move(batch[i].tags), std::move(batch[i].fields));
    if (i == 0) first = last;
  }
  listener.swap(shared_->commit_listener);
  if (shared_->commit_listener) shared_->commit_listener(last);
  return first;
}

std::vector<LogSpace::GroupVerdict> LogSpace::AppendGroup(SimTime now,
                                                          std::vector<GroupRequest> requests) {
  // Suppress per-record commit notifications: the round becomes visible to index replicas as
  // a unit (one notification carrying the last committed seqnum), so no replica ever
  // observes part of an atomically committed sub-group.
  std::function<void(SeqNum)> listener;
  listener.swap(shared_->commit_listener);
  std::vector<GroupVerdict> verdicts(requests.size());
  SeqNum last = kInvalidSeqNum;
  for (size_t i = 0; i < requests.size(); ++i) {
    GroupRequest& request = requests[i];
    GroupVerdict& verdict = verdicts[i];
    HM_CHECK(!request.entries.empty());
    if (request.cond_tag != kInvalidTagId) {
      HM_CHECK_MSG(std::find(request.entries[0].tags.begin(), request.entries[0].tags.end(),
                             request.cond_tag) != request.entries[0].tags.end(),
                   "AppendGroup: cond_tag must be one of the first entry's tags");
      if (!CondHolds(request.cond_tag, request.cond_pos, &verdict.existing_seqnum)) {
        continue;  // This request loses; later requests still get their turn.
      }
    }
    verdict.ok = true;
    for (size_t j = 0; j < request.entries.size(); ++j) {
      last = AppendLocal(now, std::move(request.entries[j].tags),
                         std::move(request.entries[j].fields));
      if (j == 0) verdict.seqnum = last;
    }
  }
  listener.swap(shared_->commit_listener);
  if (shared_->commit_listener && last != kInvalidSeqNum) shared_->commit_listener(last);
  return verdicts;
}

LogRecordPtr LogSpace::Get(SeqNum seqnum) const { return LookupLive(seqnum); }

LogRecordPtr LogSpace::FindFirstByStep(TagId tag, OpId op, int64_t step) const {
  if (op == kInvalidOpId) return nullptr;  // The op name was never appended anywhere.
  const LogSpace* owner = TagOwnerOrNull(tag);
  if (owner == nullptr) return nullptr;
  const TagStream* stream = owner->FindStream(tag);
  if (stream == nullptr) return nullptr;
  for (SeqNum seqnum : *stream) {
    LogRecordPtr record = LookupLive(seqnum);
    if (record == nullptr) continue;
    if (record->op == op && record->fields.GetInt("step") == step) {
      return record;
    }
  }
  return nullptr;
}

std::vector<TagId> LogSpace::LiveTagsWithPrefix(std::string_view prefix) const {
  std::vector<TagId> out;
  // live_tags is name-ordered, so all matches form one contiguous range starting at the
  // first name >= prefix; results come out in name order for free. The index is shared
  // state, so the scan spans every shard's streams.
  for (auto it = shared_->live_tags.lower_bound(prefix); it != shared_->live_tags.end(); ++it) {
    if (it->first.substr(0, prefix.size()) != prefix) break;
    out.push_back(it->second);
  }
  return out;
}

std::vector<std::string> LogSpace::StreamTagsWithPrefix(std::string_view prefix) const {
  std::vector<std::string> names;
  for (auto it = shared_->live_tags.lower_bound(prefix); it != shared_->live_tags.end(); ++it) {
    if (it->first.substr(0, prefix.size()) != prefix) break;
    names.emplace_back(it->first);
  }
  return names;
}

LogRecordPtr LogSpace::LookupLive(SeqNum seqnum) const {
  const StoredRecord* slot = SeqOwner(seqnum)->FindSlot(seqnum);
  return slot != nullptr ? slot->record : nullptr;
}

LogRecordPtr LogSpace::ReadPrev(TagId tag, SeqNum max_seqnum) const {
  const LogSpace* owner = TagOwnerOrNull(tag);
  if (owner == nullptr) return nullptr;
  const TagStream* stream = owner->FindStream(tag);
  if (stream == nullptr) return nullptr;
  // Last seqnum <= max_seqnum within the live (untrimmed) suffix.
  const SeqNum* upper = std::upper_bound(stream->begin(), stream->end(), max_seqnum);
  if (upper == stream->begin()) return nullptr;
  return LookupLive(*(upper - 1));
}

SeqNum LogSpace::LatestSeqNoAtMost(TagId tag, SeqNum max_seqnum) const {
  const LogSpace* owner = TagOwnerOrNull(tag);
  if (owner == nullptr) return kInvalidSeqNum;
  const TagStream* stream = owner->FindStream(tag);
  if (stream == nullptr) return kInvalidSeqNum;
  const SeqNum* upper = std::upper_bound(stream->begin(), stream->end(), max_seqnum);
  if (upper == stream->begin()) return kInvalidSeqNum;
  return *(upper - 1);
}

LogRecordPtr LogSpace::ReadNext(TagId tag, SeqNum min_seqnum) const {
  const LogSpace* owner = TagOwnerOrNull(tag);
  if (owner == nullptr) return nullptr;
  const TagStream* stream = owner->FindStream(tag);
  if (stream == nullptr) return nullptr;
  const SeqNum* lower = std::lower_bound(stream->begin(), stream->end(), min_seqnum);
  if (lower == stream->end()) return nullptr;
  return LookupLive(*lower);
}

std::vector<LogRecordPtr> LogSpace::ReadStream(TagId tag) const {
  return ReadStreamUpTo(tag, kMaxSeqNum);
}

std::vector<LogRecordPtr> LogSpace::ReadStreamUpTo(TagId tag, SeqNum max_seqnum) const {
  std::vector<LogRecordPtr> out;
  const LogSpace* owner = TagOwnerOrNull(tag);
  if (owner == nullptr) return out;
  const TagStream* stream = owner->FindStream(tag);
  if (stream == nullptr) return out;
  out.reserve(stream->size());
  for (SeqNum seqnum : *stream) {
    if (seqnum > max_seqnum) break;
    LogRecordPtr record = LookupLive(seqnum);
    if (record != nullptr) out.push_back(std::move(record));
  }
  return out;
}

void LogSpace::ReleaseRef(SimTime now, SeqNum seqnum) {
  SeqOwner(seqnum)->ReleaseRefLocal(now, seqnum);
}

void LogSpace::ReleaseRefLocal(SimTime now, SeqNum seqnum) {
  StoredRecord* slot = FindSlot(seqnum);
  HM_CHECK_MSG(slot != nullptr, "ReleaseRef on missing record");
  if (--slot->live_tag_refs > 0) return;
  shared_->gauge.Add(now, -static_cast<int64_t>(slot->record->ByteSize()));
  slot->record.reset();
  --live_records_;
  size_t page = static_cast<size_t>(seqnum / shard_count_ / kRecordPageSlots);
  if (--pages_[page]->occupied == 0) pages_[page].reset();
}

size_t LogSpace::TrimPrefix(SimTime now, TagStream& stream, SeqNum upto) {
  const SeqNum* cut = std::upper_bound(stream.begin(), stream.end(), upto);
  size_t n = static_cast<size_t>(cut - stream.begin());
  for (const SeqNum* it = stream.begin(); it != cut; ++it) ReleaseRef(now, *it);
  stream.DropFront(n);
  return n;
}

size_t LogSpace::Trim(SimTime now, TagId tag, SeqNum upto) {
  if (!shared_->tags.Contains(tag)) return 0;
  return TagOwner(tag)->TrimLocal(now, tag, upto, /*journal=*/true);
}

size_t LogSpace::TrimLocal(SimTime now, TagId tag, SeqNum upto, bool journal) {
  if (tag >= streams_.size()) return 0;
  TagStream& stream = streams_[tag];
  size_t released = TrimPrefix(now, stream, upto);
  stream.base += released;
  if (stream.empty() && stream.base > 0) {
    shared_->live_tags.erase(std::string_view(shared_->tags.Name(tag)));
  }
  // Trims are journaled fire-and-forget: nothing external depends on a trim being durable,
  // and a trim lost to a crash merely resurrects garbage the next GC pass re-collects. The
  // resulting base rides along so fuzzy replay (DESIGN.md §14) can restore logical offsets
  // without re-counting pops the image may have absorbed.
  if (journal && released > 0 && shared_->durability != nullptr) {
    std::string payload;
    storage::PutU64(&payload, tag);
    storage::PutU64(&payload, upto);
    storage::PutU64(&payload, stream.base);
    shared_->durability->AppendFrame(storage::FrameType::kTrim, payload);
  }
  return released;
}

size_t LogSpace::StreamLength(TagId tag) const {
  const LogSpace* owner = TagOwnerOrNull(tag);
  if (owner == nullptr) return 0;
  const TagStream* stream = owner->FindStream(tag);
  return stream == nullptr ? 0 : stream->length();
}

size_t LogSpace::IndexEntries() const {
  size_t total = 0;
  for (const TagStream& stream : streams_) {
    total += stream.size();
  }
  return total;
}

size_t LogSpace::IndexCapacity() const {
  size_t total = 0;
  for (const TagStream& stream : streams_) {
    total += stream.entries.capacity();
  }
  return total;
}

}  // namespace halfmoon::sharedlog
