#include "src/sharedlog/log_client.h"

#include <utility>

#include "src/storage/durability.h"

namespace halfmoon::sharedlog {

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

// GCC 12 note for the forms below: each GroupRequest is built in a named local and moved into
// Submit. Passing an aggregate temporary straight into the co_await expression destroys it
// twice (a heap-use-after-free under ASan).

sim::Task<SeqNum> LogClient::Append(std::vector<TagId> tags, FieldMap fields) {
  ShardedLog::GroupRequest request;
  request.entries.push_back(ShardedLog::BatchEntry{std::move(tags), std::move(fields)});
  CondAppendResult result = co_await Submit(std::move(request));
  co_return result.seqnum;  // Unconditional requests always commit.
}

sim::Task<CondAppendResult> LogClient::CondAppend(std::vector<TagId> tags, FieldMap fields,
                                                  TagId cond_tag, size_t cond_pos) {
  ShardedLog::GroupRequest request;
  request.entries.push_back(ShardedLog::BatchEntry{std::move(tags), std::move(fields)});
  request.cond_tag = cond_tag;
  request.cond_pos = cond_pos;
  return Submit(std::move(request));
}

sim::Task<CondAppendResult> LogClient::CondAppendBatch(std::vector<ShardedLog::BatchEntry> batch,
                                                       TagId cond_tag, size_t cond_pos) {
  ShardedLog::GroupRequest request;
  request.entries = std::move(batch);
  request.cond_tag = cond_tag;
  request.cond_pos = cond_pos;
  return Submit(std::move(request));
}

sim::Task<SeqNum> LogClient::AppendBatch(std::vector<ShardedLog::BatchEntry> batch) {
  ShardedLog::GroupRequest request;
  request.entries = std::move(batch);
  CondAppendResult result = co_await Submit(std::move(request));
  co_return result.seqnum;
}

sim::Task<CondAppendResult> LogClient::Submit(ShardedLog::GroupRequest request) {
  HM_CHECK(!request.entries.empty());
  HM_CHECK_MSG(!request.entries[0].tags.empty(), "log records must carry at least one tag");
  const size_t n = request.entries.size();
  const bool conditional = request.cond_tag != kInvalidTagId;
  (conditional ? stats_.cond_appends : stats_.appends) += static_cast<int64_t>(n);
  // The caller's stamps and the byte size are snapshot before any suspension (and before the
  // moves below); see set_append_in_attempt.
  const int cls = std::exchange(append_class_, 0);
  const bool in_attempt = std::exchange(append_in_attempt_, false);
  // The bytes the records will be stored at (LogRecord::stored_bytes), credited to the stats
  // only once the commit verdict is known.
  int64_t bytes = 0;
  for (const ShardedLog::BatchEntry& entry : request.entries) {
    bytes += static_cast<int64_t>(RecordByteSize(entry.tags.size(), entry.fields.ByteSize()));
  }
  // The shard owning the cond tag arbitrates the condition; otherwise the first tag routes.
  const TagId route = conditional ? request.cond_tag : request.entries[0].tags[0];

  ShardedLog::GroupVerdict verdict;
  uint64_t epoch = 0;  // The journal's kill epoch at commit.
  SimDuration leg = 0;
  if (!batchers_.empty()) {
    // Group commit: the shard's batcher ships the request in a shared sequencer round and
    // resumes us at the round's reply time. Batch-site fault probes stay keyed to the byte
    // class, so the explored crash schedules do not depend on the in-attempt stamp.
    AppendBatcher::Submission submission =
        BatcherForTag(route)->Submit(std::move(request), /*crashable=*/cls != 0);
    verdict = co_await submission;
    epoch = submission.commit_epoch;
  } else {
    SimDuration total = models_->log_append.Sample(*rng_);
    leg = static_cast<SimDuration>(static_cast<double>(total) * kRequestLegFraction);
    co_await scheduler_->Delay(leg);  // Request travels to the sequencer.
    co_await SequencerRoundAt(SequencerStationForTag(route), total);
    std::vector<ShardedLog::GroupRequest> round;
    round.push_back(std::move(request));
    verdict = log_->AppendGroup(log_->ShardOfTag(route), scheduler_->Now(), std::move(round))[0];
    if (durability_ != nullptr) epoch = durability_->epoch();
  }

  CondAppendResult result{verdict.ok, verdict.seqnum, verdict.existing_seqnum, nullptr};
  if (verdict.ok) {
    NoteAppendedBytes(cls, bytes);
    // The request's frames are journaled as one run; its last seqnum gates them all. The
    // batched reply leg lies between commit and this wait, so the wait names the commit's
    // epoch: a kill in between may have handed the seqnum to another record.
    const SeqNum last = log_->BatchSeq(verdict.seqnum, n - 1);
    bool durable = durability_ == nullptr || co_await durability_->WaitCommitted(last, epoch);
    // A failed wait means a kill rolled the request back before it reached the device. An
    // attempt must not act on (or ack) the lost append: abort it into the retry loop, where
    // the re-executed attempt re-reads the rolled-back log. Appends from outside any attempt
    // (detached service tasks) resume with no record view.
    if (!durable && in_attempt && crash_thrower_) crash_thrower_("log.append.durability");
    if (durable) {
      // The unbatched appender learns its own seqnums with the reply — and only those: other
      // nodes' records committed meanwhile may not be durable yet. (Batched rounds advance
      // the replica at commit, in AppendBatcher::CommitRound.)
      if (batchers_.empty()) AdvanceIndex(last);
      result.record = CacheBatch(verdict.seqnum, n);
    }
  } else {
    ++stats_.cond_append_conflicts;
  }
  if (batchers_.empty()) co_await scheduler_->Delay(leg);  // Reply.
  co_return result;
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
