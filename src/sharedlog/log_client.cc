#include "src/sharedlog/log_client.h"

#include <utility>

#include "src/storage/durability.h"

namespace halfmoon::sharedlog {

sim::Task<bool> LogClient::AwaitDurable(SeqNum seqnum, bool crashable) {
  bool ok = co_await durability_->WaitSeq(seqnum);
  // A failed wait means a kill rolled the record back before it reached the device. An
  // attempt must not act on (or ack) the lost append — abort it into the retry loop, where
  // the re-executed attempt re-reads the rolled-back log. Control-path waits (class 0, e.g.
  // detached service appends) resume normally; their callers skip the post-commit caching.
  if (!ok && crashable && crash_thrower_) crash_thrower_("log.append.durability");
  co_return ok;
}

sim::Task<void> LogClient::SequencerRoundAt(sim::ServiceStation* station,
                                            SimDuration total_latency) {
  auto service = static_cast<SimDuration>(static_cast<double>(total_latency) * kServiceFraction);
  if (station != nullptr) {
    co_await station->Process(service);
  } else {
    co_await scheduler_->Delay(service);
  }
}

sim::Task<void> LogClient::StorageRound(SimDuration total_latency) {
  auto service = static_cast<SimDuration>(static_cast<double>(total_latency) * kServiceFraction);
  if (storage_station_ != nullptr) {
    co_await storage_station_->Process(service);
  } else {
    co_await scheduler_->Delay(service);
  }
}

sim::Task<SeqNum> LogClient::Append(std::vector<TagId> tags, FieldMap fields) {
  ++stats_.appends;
  // Byte accounting: class and size snapshot before any suspension (and before the moves).
  const int cls = std::exchange(append_class_, 0);
  const int64_t bytes = RecordBytes(tags, fields);
  if (!batchers_.empty()) {
    AppendBatcher* batcher = BatcherForTag(tags[0]);
    ShardedLog::GroupRequest request;
    request.entries.push_back(ShardedLog::BatchEntry{std::move(tags), std::move(fields)});
    ShardedLog::GroupVerdict verdict =
        co_await batcher->Submit(std::move(request), /*crashable=*/cls != 0);
    NoteAppendedBytes(cls, bytes);
    if (durability_ != nullptr && !co_await AwaitDurable(verdict.seqnum, cls != 0)) {
      co_return verdict.seqnum;  // Rolled back by a kill; nothing left to cache.
    }
    if (read_cache_enabled_) CacheCommitted(log_->Get(verdict.seqnum));
    co_return verdict.seqnum;  // Unconditional requests always commit.
  }
  sim::ServiceStation* station = SequencerStationForTag(tags[0]);
  SimDuration total = models_->log_append.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  co_await scheduler_->Delay(leg);          // Request travels to the sequencer.
  co_await SequencerRoundAt(station, total);  // Ordering + replication to storage nodes.
  SeqNum seqnum = log_->Append(scheduler_->Now(), std::move(tags), std::move(fields));
  NoteAppendedBytes(cls, bytes);
  if (durability_ == nullptr || co_await AwaitDurable(seqnum, cls != 0)) {
    AdvanceIndex(seqnum);                   // The appender learns its own seqnum with the reply.
    if (read_cache_enabled_) CacheCommitted(log_->Get(seqnum));
  }
  co_await scheduler_->Delay(leg);          // Reply.
  co_return seqnum;
}

sim::Task<CondAppendResult> LogClient::CondAppend(std::vector<TagId> tags, FieldMap fields,
                                                  TagId cond_tag, size_t cond_pos) {
  ++stats_.cond_appends;
  const int cls = std::exchange(append_class_, 0);
  const int64_t bytes = RecordBytes(tags, fields);
  if (!batchers_.empty()) {
    ShardedLog::GroupRequest request;
    request.entries.push_back(ShardedLog::BatchEntry{std::move(tags), std::move(fields)});
    request.cond_tag = cond_tag;
    request.cond_pos = cond_pos;
    CondAppendResult result = co_await SubmitCond(std::move(request), /*crashable=*/cls != 0);
    if (result.ok) NoteAppendedBytes(cls, bytes);
    co_return result;
  }
  sim::ServiceStation* station = SequencerStationForTag(cond_tag);
  SimDuration total = models_->log_append.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  co_await scheduler_->Delay(leg);
  co_await SequencerRoundAt(station, total);
  CondAppendResult result =
      log_->CondAppend(scheduler_->Now(), std::move(tags), std::move(fields), cond_tag, cond_pos);
  if (result.ok) {
    NoteAppendedBytes(cls, bytes);
    if (durability_ == nullptr || co_await AwaitDurable(result.seqnum, cls != 0)) {
      AdvanceIndex(result.seqnum);
      CacheCommitted(result.record);
    }
  } else {
    ++stats_.cond_append_conflicts;
  }
  co_await scheduler_->Delay(leg);
  co_return result;
}

// Shared batched tail of CondAppend / CondAppendBatch: ships the request through the shard's
// batcher and rebuilds the CondAppendResult (verdict + shared view of the first record).
sim::Task<CondAppendResult> LogClient::SubmitCond(ShardedLog::GroupRequest request,
                                                  bool crashable) {
  AppendBatcher* batcher = BatcherForTag(request.cond_tag);
  size_t entries = request.entries.size();
  ShardedLog::GroupVerdict verdict = co_await batcher->Submit(std::move(request), crashable);
  CondAppendResult result;
  result.ok = verdict.ok;
  result.seqnum = verdict.seqnum;
  result.existing_seqnum = verdict.existing_seqnum;
  if (verdict.ok) {
    if (durability_ != nullptr && !co_await AwaitDurable(verdict.seqnum, crashable)) {
      co_return result;  // Rolled back by a kill; the record view no longer exists.
    }
    result.record = log_->Get(verdict.seqnum);
    if (entries > 1) {
      CacheBatch(verdict.seqnum, entries);
    } else {
      CacheCommitted(result.record);
    }
  } else {
    ++stats_.cond_append_conflicts;
  }
  co_return result;
}

sim::Task<CondAppendResult> LogClient::CondAppendBatch(std::vector<ShardedLog::BatchEntry> batch,
                                                       TagId cond_tag, size_t cond_pos) {
  stats_.cond_appends += static_cast<int64_t>(batch.size());
  const int cls = std::exchange(append_class_, 0);
  int64_t bytes = 0;
  for (const ShardedLog::BatchEntry& entry : batch) bytes += RecordBytes(entry.tags, entry.fields);
  if (!batchers_.empty()) {
    ShardedLog::GroupRequest request;
    request.entries = std::move(batch);
    request.cond_tag = cond_tag;
    request.cond_pos = cond_pos;
    CondAppendResult result = co_await SubmitCond(std::move(request), /*crashable=*/cls != 0);
    if (result.ok) NoteAppendedBytes(cls, bytes);
    co_return result;
  }
  sim::ServiceStation* station = SequencerStationForTag(cond_tag);
  size_t entries = batch.size();
  SimDuration total = models_->log_append.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  co_await scheduler_->Delay(leg);
  co_await SequencerRoundAt(station, total);
  CondAppendResult result =
      log_->CondAppendBatch(scheduler_->Now(), std::move(batch), cond_tag, cond_pos);
  if (result.ok) {
    NoteAppendedBytes(cls, bytes);
    // The batch is journaled as one run of frames; the last entry's seqnum gates them all.
    if (durability_ == nullptr ||
        co_await AwaitDurable(log_->BatchSeq(result.seqnum, entries - 1), cls != 0)) {
      // The batch commits in one round; the replica learns its seqnums with the reply.
      AdvanceIndex(log_->next_seqnum() - 1);
      CacheBatch(result.seqnum, entries);
    }
  } else {
    ++stats_.cond_append_conflicts;
  }
  co_await scheduler_->Delay(leg);
  co_return result;
}

sim::Task<SeqNum> LogClient::AppendBatch(std::vector<ShardedLog::BatchEntry> batch) {
  HM_CHECK(!batch.empty());
  stats_.appends += static_cast<int64_t>(batch.size());
  const int cls = std::exchange(append_class_, 0);
  int64_t bytes = 0;
  for (const ShardedLog::BatchEntry& entry : batch) bytes += RecordBytes(entry.tags, entry.fields);
  if (!batchers_.empty()) {
    AppendBatcher* batcher = BatcherForTag(batch[0].tags.empty() ? kInitTagId : batch[0].tags[0]);
    size_t entries = batch.size();
    ShardedLog::GroupRequest request;
    request.entries = std::move(batch);
    ShardedLog::GroupVerdict verdict =
        co_await batcher->Submit(std::move(request), /*crashable=*/cls != 0);
    NoteAppendedBytes(cls, bytes);
    if (durability_ != nullptr &&
        !co_await AwaitDurable(log_->BatchSeq(verdict.seqnum, entries - 1), cls != 0)) {
      co_return verdict.seqnum;  // Rolled back by a kill; nothing left to cache.
    }
    CacheBatch(verdict.seqnum, entries);
    co_return verdict.seqnum;
  }
  sim::ServiceStation* station =
      SequencerStationForTag(batch[0].tags.empty() ? kInitTagId : batch[0].tags[0]);
  size_t entries = batch.size();
  SimDuration total = models_->log_append.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  co_await scheduler_->Delay(leg);
  co_await SequencerRoundAt(station, total);
  SeqNum first = log_->AppendBatch(scheduler_->Now(), std::move(batch));
  NoteAppendedBytes(cls, bytes);
  if (durability_ == nullptr ||
      co_await AwaitDurable(log_->BatchSeq(first, entries - 1), cls != 0)) {
    AdvanceIndex(log_->next_seqnum() - 1);
    CacheBatch(first, entries);
  }
  co_await scheduler_->Delay(leg);
  co_return first;
}

sim::Task<LogRecordPtr> LogClient::FindFirstByStep(TagId tag, OpId op, int64_t step) {
  ++stats_.reads_index_local;
  co_await scheduler_->Delay(models_->log_read_cached.Sample(*rng_));
  LogRecordPtr record = log_->FindFirstByStep(tag, op, step);
  if (record != nullptr) ++stats_.read_record_shared;
  co_return record;
}

sim::Task<LogRecordPtr> LogClient::ReadPrev(TagId tag, SeqNum max_seqnum) {
  if (indexed_upto_ >= max_seqnum) {
    // The local index replica provably covers the requested prefix: serve locally.
    ++stats_.read_prev_cached;
    ++stats_.reads_index_local;
    if (read_cache_enabled_) {
      // Payload-cache fast path: the index replica answers "which seqnum would this read
      // return" locally; if the cached payload for the tag IS that record, no index walk and
      // no storage hop happen at all. Stale entries simply fail the seqnum comparison.
      SeqNum latest = log_->LatestSeqNoAtMost(tag, max_seqnum);
      auto it = read_cache_.find(tag);
      if (it != read_cache_.end() && latest != kInvalidSeqNum &&
          it->second->seqnum == latest) {
        // Copy the shared view out before suspending: the map iterator is not stable across
        // the delay (a concurrent miss may rehash the map).
        LogRecordPtr cached = it->second;
        ++stats_.cache_hits;
        co_await scheduler_->Delay(models_->log_read_cache_hit.Sample(*rng_));
        // Re-validate after the suspension: a Trim that ran during the delay may have
        // released the cached record, and serving it would resurrect trimmed data. Fail
        // closed — drop the entry and fall through to the index-local read below.
        if (log_->LatestSeqNoAtMost(tag, max_seqnum) == latest) {
          ++stats_.read_record_shared;
          co_return cached;
        }
        ++stats_.read_cache_stale_invalidations;
        read_cache_.erase(tag);
      }
    }
    co_await scheduler_->Delay(models_->log_read_cached.Sample(*rng_));
    LogRecordPtr record = log_->ReadPrev(tag, max_seqnum);
    if (record != nullptr) {
      ++stats_.read_record_shared;
      if (read_cache_enabled_) {
        ++stats_.cache_misses;
        read_cache_[tag] = record;
      }
    }
    co_return record;
  }
  // Sync with a storage node; afterwards the replica covers max_seqnum.
  ++stats_.read_prev_uncached;
  ++stats_.reads_storage;
  SimDuration total = models_->log_read_uncached.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  co_await scheduler_->Delay(leg);
  co_await StorageRound(total);
  LogRecordPtr record = log_->ReadPrev(tag, max_seqnum);
  if (record != nullptr) {
    ++stats_.read_record_shared;
    if (read_cache_enabled_) {
      ++stats_.cache_misses;
      read_cache_[tag] = record;
    }
  }
  AdvanceIndex(max_seqnum);
  co_await scheduler_->Delay(leg);
  co_return record;
}

sim::Task<LogRecordPtr> LogClient::ReadNext(TagId tag, SeqNum min_seqnum) {
  ++stats_.read_next;
  ++stats_.reads_storage;
  SimDuration total = models_->log_read_uncached.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  co_await scheduler_->Delay(leg);
  co_await StorageRound(total);
  LogRecordPtr record = log_->ReadNext(tag, min_seqnum);
  if (record != nullptr) ++stats_.read_record_shared;
  co_await scheduler_->Delay(leg);
  co_return record;
}

sim::Task<std::vector<LogRecordPtr>> LogClient::ReadStream(TagId tag) {
  ++stats_.stream_reads;
  ++stats_.reads_index_local;
  // Served from the node-local index replica, which is complete up to indexed_upto_ (Boki
  // replicates the index to every function node; only record payloads live on storage).
  // Records beyond the replica's horizon may be missed — harmless, because every logged step
  // is re-validated through logCondAppend and a conflict adopts the existing record.
  co_await scheduler_->Delay(models_->log_read_cached.Sample(*rng_));
  std::vector<LogRecordPtr> records = log_->ReadStreamUpTo(tag, indexed_upto_);
  stats_.read_record_shared += static_cast<int64_t>(records.size());
  co_return records;
}

sim::Task<void> LogClient::Trim(TagId tag, SeqNum upto) {
  ++stats_.trims;
  SimDuration total = models_->log_read_uncached.Sample(*rng_);
  auto leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
  co_await scheduler_->Delay(leg);
  co_await StorageRound(total);
  log_->Trim(scheduler_->Now(), tag, upto);
  // Drop this client's own cached payload if the trim released it; peers catch theirs via
  // the post-delay revalidation in ReadPrev.
  if (read_cache_enabled_) {
    auto it = read_cache_.find(tag);
    if (it != read_cache_.end() && it->second->seqnum <= upto) read_cache_.erase(it);
  }
  co_await scheduler_->Delay(leg);
}

}  // namespace halfmoon::sharedlog
