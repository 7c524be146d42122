#include "src/runtime/cluster.h"

#include <algorithm>

#include "src/common/check.h"

namespace halfmoon::runtime {
namespace {

// Every misuse check, run from the mem-initializer list so it precedes the log's
// construction; each message names the field.
const ClusterConfig& Validated(const ClusterConfig& config) {
  HM_CHECK_MSG(config.durable || !config.checkpoint,
               "ClusterConfig: checkpoint = true needs durable = true (the checkpoint tier "
               "compacts the durable journal)");
  if (config.model_queueing) {
    // A station with no servers never serves: the first request would wait forever and the
    // run would drain with the invocation still pending.
    HM_CHECK_MSG(config.sequencer_servers >= 1, "ClusterConfig: sequencer_servers must be >= 1");
    HM_CHECK_MSG(config.storage_servers >= 1, "ClusterConfig: storage_servers must be >= 1");
    HM_CHECK_MSG(config.db_servers >= 1, "ClusterConfig: db_servers must be >= 1");
  }
  // Tag ids carry their shard in one byte (TagRegistry::SetShardCount).
  HM_CHECK_MSG(config.log_shards >= 1 && config.log_shards <= 256,
               "ClusterConfig: log_shards must be in [1, 256]");
  HM_CHECK_MSG(config.function_nodes >= 1, "ClusterConfig: function_nodes must be >= 1");
  // Zero worker slots would park every invocation on the node's semaphore forever.
  HM_CHECK_MSG(config.workers_per_node >= 1, "ClusterConfig: workers_per_node must be >= 1");
  // The batch controller doubles a widened window: a negative one would double to overflow.
  HM_CHECK_MSG(config.append_batch_window >= 0,
               "ClusterConfig: append_batch_window must be >= 0");
  // Checked before the size_t cast: a negative cap would wrap to a huge one.
  HM_CHECK_MSG(config.append_batch_max >= 1, "ClusterConfig: append_batch_max must be >= 1");
  // Depth 0 or below would silently run one round at a time.
  HM_CHECK_MSG(config.append_batch_pipeline >= 1,
               "ClusterConfig: append_batch_pipeline must be >= 1");
  // A slice that walks nothing never finishes a round: the daemon livelocks writing
  // zero-frame slices and the scheduler never drains.
  HM_CHECK_MSG(config.checkpoint_slice >= 1, "ClusterConfig: checkpoint_slice must be >= 1");
  return config;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(Validated(config)),
      scheduler_(config.queue_mode),
      rng_(config.seed),
      models_(config.calibration),
      log_space_(static_cast<uint32_t>(config.log_shards)) {
  if (config.model_queueing) {
    // One sequencer station per log shard: sequencer rounds bound for different shards no
    // longer contend, which is the shard-scaling mechanism (DESIGN.md §9).
    sequencer_stations_.reserve(static_cast<size_t>(config.log_shards));
    for (int s = 0; s < config.log_shards; ++s) {
      sequencer_stations_.push_back(
          std::make_unique<sim::ServiceStation>(&scheduler_, config.sequencer_servers));
    }
    storage_station_ =
        std::make_unique<sim::ServiceStation>(&scheduler_, config.storage_servers);
    db_station_ = std::make_unique<sim::ServiceStation>(&scheduler_, config.db_servers);
  }
  sharedlog::AppendBatchConfig batch;
  batch.enabled = config.group_commit_appends;
  batch.window = config.append_batch_window;
  batch.max_batch = static_cast<size_t>(config.append_batch_max);
  batch.pipeline_depth = config.append_batch_pipeline;
  // One slot per shard; null slots (model_queueing off) make sequencing a plain delay.
  std::vector<sim::ServiceStation*> sequencer_ptrs(log_space_.shard_count(), nullptr);
  for (size_t s = 0; s < sequencer_stations_.size(); ++s) {
    sequencer_ptrs[s] = sequencer_stations_[s].get();
  }
  nodes_.reserve(config.function_nodes);
  for (int i = 0; i < config.function_nodes; ++i) {
    nodes_.push_back(std::make_unique<FunctionNode>(
        i, &scheduler_, &rng_, &models_, &log_space_, &kv_state_, sequencer_ptrs,
        storage_station_.get(), db_station_.get(), config.workers_per_node, batch,
        config.log_read_cache));
  }

  // Batch-round fault injection (batch.depart / batch.reply): the batcher probes through
  // these hooks so sharedlog never names the runtime's injector or exception types. The
  // probe costs nothing when no schedule is armed (FailureInjector::ShouldCrash draws no
  // randomness at probability 0), which keeps fault-free runs bit-identical.
  for (auto& node : nodes_) {
    node->log().InstallCrashHooks(
        [this](const char* site) { return injector_.ShouldCrash(rng_, site); },
        [](const char* site) { throw SsfCrashed{std::string(site)}; });
  }

  // Durable medium (DESIGN.md §13): one journal per storage domain. The services draw flush
  // latencies from their own derived RNG streams (distinct salts), so attaching them never
  // perturbs the main sample sequence — and durable = false, which skips this block
  // entirely, stays bit-identical to the pre-storage engine.
  if (config.durable) {
    log_durability_ =
        std::make_unique<storage::DurabilityService>(&scheduler_, &models_, config.seed);
    kv_durability_ =
        std::make_unique<storage::DurabilityService>(&scheduler_, &models_, ~config.seed);
    log_space_.AttachDurability(log_durability_.get());
    kv_state_.AttachDurability(kv_durability_.get());
    for (auto& node : nodes_) {
      node->log().SetDurability(log_durability_.get());
      node->kv().SetDurability(kv_durability_.get());
      node->kv().InstallCrashHook(
          [](std::string_view site) { throw SsfCrashed{std::string(site)}; });
    }
  }

  // Incremental checkpointing + journal compaction (DESIGN.md §14): one background service
  // walking both storage domains into sibling checkpoint stores. Like the durability
  // services it draws pacing samples from its OWN derived RNG stream, and when disabled it
  // is simply never constructed — bit-identical to the PR 9 durable engine.
  if (config.checkpoint) {
    log_ckpt_ = std::make_unique<storage::CheckpointStore>();
    kv_ckpt_ = std::make_unique<storage::CheckpointStore>();
    ckpt_service_ =
        std::make_unique<storage::CheckpointService>(&scheduler_, &models_, config.seed);
    ckpt_service_->SetSliceBudget(config.checkpoint_slice);
    ckpt_service_->SetAutoTriggerBytes(config.checkpoint_trigger_bytes);
    ckpt_service_->InstallCrashProbe(
        [this](const char* site) { return injector_.ShouldCrash(rng_, site); });
    storage::CheckpointService::Target log_target;
    log_target.domain = storage::kCkptLogDomain;
    log_target.journal = log_durability_.get();
    log_target.store = log_ckpt_.get();
    log_target.begin_walk = [this] { log_space_.BeginCheckpointWalk(); };
    log_target.write_slice = [this](storage::CheckpointStore* store, int64_t budget,
                                    int64_t* frames) {
      return log_space_.WriteCheckpointSlice(store, budget, frames);
    };
    log_target.watermark_floor = [this] { return log_durability_->durable_seq(); };
    ckpt_service_->AddTarget(std::move(log_target));
    storage::CheckpointService::Target kv_target;
    kv_target.domain = storage::kCkptKvDomain;
    kv_target.journal = kv_durability_.get();
    kv_target.store = kv_ckpt_.get();
    kv_target.begin_walk = [this] { kv_state_.BeginCheckpointWalk(); };
    kv_target.write_slice = [this](storage::CheckpointStore* store, int64_t budget,
                                   int64_t* frames) {
      return kv_state_.WriteCheckpointSlice(store, budget, frames);
    };
    kv_target.watermark_floor = [] { return uint64_t{0}; };  // Seqnums are a log concept.
    ckpt_service_->AddTarget(std::move(kv_target));
  }

  // Index propagation: every committed seqnum reaches each function node's index replica
  // after a sampled delay, enabling the cheap local logReadPrev path (§4.1).
  log_space_.SetCommitListener([this](sharedlog::SeqNum seqnum) { OnCommit(seqnum); });
}

void Cluster::OnCommit(sharedlog::SeqNum seqnum) {
  ++index_propagation_commits_;
  // Checkpoint rounds are driven by journal growth off the commit path — the service never
  // free-runs a timer, so a drained scheduler stays drainable. No-op (and no RNG draw)
  // unless the growth threshold tripped.
  if (ckpt_service_ != nullptr) ckpt_service_->MaybeAutoTrigger();
  // The delay is sampled before branching on the mode, so coalesced and per-commit runs draw
  // the identical rng sequence — a prerequisite for bit-identical simulations.
  SimDuration delay = models_.index_propagation.Sample(rng_);
  if (log_durability_ != nullptr) {
    // Write-ahead index propagation: remote replicas only ever learn durable seqnums, so no
    // node can index a record a crash could un-commit. Propagation (the sampled network
    // delay) starts once the record's flush lands; a kill drops the callbacks of lost
    // seqnums, which is exactly the set no replica may learn.
    log_durability_->WhenDurable(seqnum,
                                 [this, seqnum, delay] { DeliverCommit(seqnum, delay); });
    return;
  }
  DeliverCommit(seqnum, delay);
}

void Cluster::DeliverCommit(sharedlog::SeqNum seqnum, SimDuration delay) {
  if (!config_.coalesce_index_propagation) {
    // Reference mode: one scheduler event per committed seqnum.
    ++index_propagation_ticks_;
    scheduler_.Post(delay, [this, seqnum] {
      for (auto& node : nodes_) {
        node->log().AdvanceIndex(seqnum);
      }
    });
    return;
  }
  SimTime arrival = scheduler_.Now() + delay;
  // This commit carries the largest seqnum so far (commits arrive in seqnum order). Any
  // pending arrival at or after `arrival` is now redundant: by the time it would fire, every
  // replica already sits at this larger seqnum, and AdvanceIndex is a monotonic max. Dropping
  // the dominated suffix keeps the deque strictly increasing in (arrival, seqnum) and is
  // where the coalescing happens — a burst of commits whose arrivals land out of order
  // collapses to a single surviving delivery.
  while (!pending_index_.empty() && pending_index_.back().first >= arrival) {
    pending_index_.pop_back();
  }
  pending_index_.emplace_back(arrival, seqnum);
  // Keep the invariant: a wake-up exists at exactly the earliest pending arrival. Only
  // schedule when this arrival becomes the new earliest; otherwise the existing wake-up
  // covers it (the tick re-arms for whatever remains).
  if (arrival < index_wakeup_) {
    index_wakeup_ = arrival;
    scheduler_.Post(delay, [this] { IndexPropagationTick(); });
  }
}

void Cluster::IndexPropagationTick() {
  SimTime now = scheduler_.Now();
  sharedlog::SeqNum advance = 0;
  // The deque is increasing in both fields, so the due prefix's last seqnum is its largest.
  while (!pending_index_.empty() && pending_index_.front().first <= now) {
    advance = pending_index_.front().second;
    pending_index_.pop_front();
  }
  if (advance > 0) {
    // One pass over the nodes no matter how many commits arrived in this window: AdvanceIndex
    // is a monotonic max, so advancing straight to the largest arrived seqnum is equivalent
    // to replaying the arrivals one by one.
    ++index_propagation_ticks_;
    for (auto& node : nodes_) {
      node->log().AdvanceIndex(advance);
    }
  }
  if (index_wakeup_ <= now) index_wakeup_ = kNoWakeup;  // This was the armed wake-up.
  if (pending_index_.empty()) return;
  SimTime next = pending_index_.front().first;
  if (next < index_wakeup_) {
    index_wakeup_ = next;
    scheduler_.Post(next - now, [this] { IndexPropagationTick(); });
  }
}

void Cluster::KillRestartSequencer() {
  HM_CHECK_MSG(log_durability_ != nullptr, "KillRestart* requires ClusterConfig.durable");
  // The ordering/replication tier dies: the log journal's volatile tail, its in-flight
  // flush, and every record past the durable frontier are lost. Waiters on lost records fail
  // (in-attempt ones abort their attempts); restart replays the durable prefix. The
  // checkpoint daemon rides the same tier: its in-flight round is abandoned and both stores'
  // unflushed tails die — the durable images and manifests survive for recovery.
  if (ckpt_service_ != nullptr) ckpt_service_->Kill();
  log_durability_->Kill();
  ReplayLogJournal();
  for (auto& node : nodes_) {
    node->log().ResetSoftState(log_durability_->durable_seq());
  }
  // Pending index arrivals were all gated through WhenDurable, so every queued seqnum is
  // durable and survives the kill — replay just rebuilt the records they refer to.
}

void Cluster::KillRestartStorage() {
  HM_CHECK_MSG(kv_durability_ != nullptr, "KillRestart* requires ClusterConfig.durable");
  // The shared storage tier dies: both journals lose their volatile tails at one instant.
  kv_durability_->Kill();
  KillRestartSequencer();
  kv_state_.ResetVolatile(scheduler_.Now());
  ReplayKvJournal();
}

void Cluster::KillRestartFunctionNode(int i) {
  HM_CHECK_MSG(log_durability_ != nullptr, "KillRestart* requires ClusterConfig.durable");
  // A function node holds no authoritative state — only its index replica and payload cache
  // die. The restarted node re-syncs through uncached reads and future propagation.
  nodes_[static_cast<size_t>(i)]->log().ResetSoftState(0);
}

void Cluster::ReplayLogJournal() {
  // Shared driver (DESIGN.md §13, §14): image + replay-suffix when a valid checkpoint
  // manifest exists, strict full replay otherwise (always, when the tier is off).
  last_log_recovery_ = sharedlog::RestoreLogFromJournal(scheduler_.Now(), &log_space_,
                                                        log_durability_.get(), log_ckpt_.get());
  // The kill may have lost the kTrim frame of a write-log release, whose queue entry is
  // long popped: queue every restored write log holding two records or more at its second
  // one, so the next frontier advance takes that garbage again (DESIGN.md §13).
  for (sharedlog::TagId tag : log_space_.LiveTagsWithPrefix(sharedlog::kWriteLogPrefix)) {
    const sharedlog::TagStream& stream = *log_space_.tags().LiveStream(tag);
    if (stream.size() >= 2) QueueWriteLog(tag, stream[1]);
  }
}

void Cluster::ReplayKvJournal() {
  SimTime now = scheduler_.Now();
  last_kv_recovery_ = storage::RecoverFromJournal(
      storage::kCkptKvDomain, *kv_durability_, kv_ckpt_.get(),
      [&](storage::FrameType type, storage::Cursor cursor) {
        kv_state_.RestoreCheckpointFrame(now, type, cursor);
      },
      [&](storage::FrameType type, storage::Cursor cursor, bool fuzzy) {
        kv_state_.RestoreFrame(now, type, cursor, fuzzy);
      });
}

int64_t Cluster::TotalLogAppends() const {
  int64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->log().stats().appends + node->log().stats().cond_appends;
  }
  return total;
}

int64_t Cluster::TotalLoggedBytes() const {
  int64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->log().stats().appended_bytes;
  }
  return total;
}

int64_t Cluster::TotalLoggedBytesByClass(int cls) const {
  int64_t total = 0;
  for (const auto& node : nodes_) {
    const auto& by_class = node->log().stats().appended_bytes_by_class;
    if (cls >= 0 && cls < static_cast<int>(by_class.size())) total += by_class[cls];
  }
  return total;
}

int64_t Cluster::TotalLogReads() const {
  int64_t total = 0;
  for (const auto& node : nodes_) {
    const auto& s = node->log().stats();
    total += s.read_prev_cached + s.read_prev_uncached + s.read_next + s.stream_reads;
  }
  return total;
}

int64_t Cluster::TotalDbOps() const {
  int64_t total = 0;
  for (const auto& node : nodes_) {
    const auto& s = node->kv().stats();
    total += s.reads + s.plain_writes + s.cond_writes + s.versioned_reads +
             s.versioned_writes + s.deletes;
  }
  return total;
}

}  // namespace halfmoon::runtime
