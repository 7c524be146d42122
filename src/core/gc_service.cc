#include "src/core/gc_service.h"

#include <string>
#include <variant>

#include "src/sharedlog/log_record.h"

namespace halfmoon::core {

using sharedlog::SeqNum;
using sharedlog::TagId;

void ReleaseBelowFrontier(runtime::Cluster& cluster, FrontierRelease* released) {
  sharedlog::ShardedLog& log = cluster.log_space();
  kvstore::KvState& kv = cluster.kv_state();
  const SimTime now = cluster.scheduler().Now();
  const SeqNum frontier = cluster.BoundedFrontier();
  if (frontier == 0) return;  // No record lies below it.
  released->init_records_trimmed +=
      static_cast<int64_t>(log.Trim(now, sharedlog::kInitTagId, frontier - 1));
  // The write-log tag id is the object's handle in the versioned store (DeleteVersioned moves
  // no registry slot, so the stream stays valid). The mark comes from the stream, so a
  // repeated entry, or one whose record a kill rolled back, finds nothing below it.
  for (TagId tag = cluster.PopWriteLogBelow(frontier); tag != sharedlog::kInvalidTagId;
       tag = cluster.PopWriteLogBelow(frontier)) {
    SeqNum marked = log.LatestSeqNoAtMost(tag, frontier - 1);
    if (marked == sharedlog::kInvalidSeqNum) continue;
    for (SeqNum seqnum : *log.tags().LiveStream(tag)) {
      if (seqnum >= marked) break;
      std::optional<std::string_view> version = log.Get(seqnum)->fields.FindStr(kFieldVersion);
      released->versions_deleted += version.has_value() && kv.DeleteVersioned(now, tag, *version);
    }
    released->write_records_trimmed += static_cast<int64_t>(log.Trim(now, tag, marked - 1));
  }
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
  // Drains release garbage as the frontier passes it: a scan takes what the clamps held back
  // then, and frees the slots of retired step logs whose frames have become durable.
  ReleaseBelowFrontier(*cluster_, &stats_);
  cluster_->log_space().ReleaseRetired();
}

}  // namespace halfmoon::core
