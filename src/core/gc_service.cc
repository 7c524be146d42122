#include "src/core/gc_service.h"

#include <string>
#include <variant>

#include "src/sharedlog/log_record.h"

namespace halfmoon::core {

using sharedlog::LogRecordPtr;
using sharedlog::SeqNum;
using sharedlog::TagId;

size_t TrimInitStream(runtime::Cluster& cluster) {
  SeqNum frontier = cluster.BoundedFrontier();
  if (frontier == 0) return 0;
  return cluster.log_space().Trim(cluster.scheduler().Now(), sharedlog::kInitTagId,
                                  frontier - 1);
}

void GcService::Start() {
  cluster_->scheduler().Spawn(Loop());
}

sim::Task<void> GcService::Loop() {
  while (!stopped_) {
    co_await cluster_->scheduler().Delay(interval_);
    if (stopped_) break;
    RunOnce();
  }
}

void GcService::RunOnce() {
  ++stats_.scans;
  sharedlog::ShardedLog& log = cluster_->log_space();
  kvstore::KvState& kv = cluster_->kv_state();
  SimTime now = cluster_->scheduler().Now();

  // Trim-to-durable-snapshot (DESIGN.md §13): never act on records a crash could still
  // un-commit. Without the clamp a GC pass could delete a KV version superseded only by a
  // volatile write — a crash would then lose the write but keep the deletion, and replay
  // would leave the object's write log pointing at a version that no longer exists.
  // CheckpointBound (DESIGN.md §14) additionally fences records an in-flight checkpoint
  // round may still walk: trimming them mid-round would tear the image under the walker.
  SeqNum frontier = cluster_->BoundedFrontier();

  // (2) Per-object write logs and their versions. The write-log tag id doubles as the
  // object's handle in the versioned store, so no key string is ever rebuilt here. The walk
  // visits the registry's unretired ids in id order (none when the frontier is 0: no record
  // lies below it). A stream with fewer than two entries has nothing below its marked
  // record, so it is passed over before its name is read. Neither DeleteVersioned nor Trim
  // interns or retires a tag, so no registry page moves its slots under the loop: LiveStream
  // pointers and the NextUnretired cursor stay valid throughout.
  const sharedlog::TagRegistry& tags = log.tags();
  for (TagId tag = frontier > 0 ? tags.NextUnretired(0) : tags.size(); tag < tags.size();
       tag = tags.NextUnretired(tag + 1)) {
    const sharedlog::TagStream* stream = tags.LiveStream(tag);
    if (stream == nullptr || stream->size() < 2) continue;
    if (!tags.Name(tag).starts_with(sharedlog::kWriteLogPrefix)) continue;
    // Mark the latest record below the frontier; everything before it is superseded.
    SeqNum marked = log.LatestSeqNoAtMost(tag, frontier - 1);
    if (marked == sharedlog::kInvalidSeqNum) continue;
    for (const LogRecordPtr& record : log.ReadStreamUpTo(tag, marked - 1)) {
      const auto* version = std::get_if<std::string>(record->fields.Find("version"));
      if (version != nullptr && kv.DeleteVersioned(now, tag, *version)) {
        ++stats_.versions_deleted;
      }
      ++stats_.write_records_trimmed;
    }
    log.Trim(now, tag, marked - 1);
  }

  // (3) Step logs retire as their workflows drain (SsfRuntime::MaybeFinishWorkflow); a scan
  // only frees the registry slots of retirements whose frames have since become durable.
  log.ReleaseRetired();

  // (4) The global init stream: records below the frontier belong to finished SSFs. Drains
  // trim it as the frontier moves; the scan releases only what the durability and checkpoint
  // clamps held back then. Counts trimmed *records*, not scans.
  stats_.init_records_trimmed += static_cast<int64_t>(TrimInitStream(*cluster_));
}

}  // namespace halfmoon::core
