// The simulated cluster: the paper's testbed in one object.
//
// Mirrors the §6 setup — a gateway plus eight function nodes, a logging layer (sequencer +
// storage nodes) and DynamoDB as external storage. Each function node has a bounded worker
// pool (invocations queue when all workers are busy — this produces Fig. 11's saturation), a
// shared-log client with a trailing index replica, and a KV client.

#ifndef HALFMOON_RUNTIME_CLUSTER_H_
#define HALFMOON_RUNTIME_CLUSTER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/kvstore/kv_client.h"
#include "src/kvstore/kv_state.h"
#include "src/runtime/failure_injector.h"
#include "src/sharedlog/log_client.h"
#include "src/sharedlog/log_recovery.h"
#include "src/sharedlog/sharded_log.h"
#include "src/sim/scheduler.h"
#include "src/sim/service_station.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"

namespace halfmoon::runtime {

// Every default below is a plain constant, and nothing reads the environment: experiments
// pin the fields they vary in code. The Cluster runs on ONE single-threaded scheduler
// (DESIGN.md §10): protocol execution shares state synchronously across components, which
// is what keeps faultcheck schedules replayable.
struct ClusterConfig {
  // §6: eight function nodes; worker slots bound per-node concurrency.
  int function_nodes = 8;
  int workers_per_node = 16;

  // Logging layer: one sequencer node, three storage nodes (§6 setup). Server counts model
  // each service's internal parallelism.
  int sequencer_servers = 6;
  int storage_servers = 12;

  // Tag-partitioned log shards (DESIGN.md §9). Each shard gets its own sequencer station and
  // per-node batcher queue, so appends to tags on different shards commit in parallel
  // simulated time. 1 (the default) is bit-identical to the unsharded log; committed content
  // is shard-count-invariant (asserted by the shard-equivalence tests).
  int log_shards = 1;

  // Node-local consistent payload cache in every LogClient (DESIGN.md §9): logReadPrev hits
  // validated against the index replica skip the storage hop and the index walk. Off by
  // default to keep the calibrated latency model (and bit-identity with earlier baselines).
  bool log_read_cache = false;

  // External storage (DynamoDB scales well; generous parallelism).
  int db_servers = 48;

  // Disable to run microbenchmarks without queueing effects.
  bool model_queueing = true;

  // Coalesce index propagation: commit arrivals within a propagation window are drained by a
  // single wake-up event that advances every node's index replica to the largest arrived
  // seqnum, instead of one scheduler event per committed record. Each node still observes
  // every propagated seqnum at exactly its sampled arrival time, so simulation results are
  // bit-identical to the per-commit reference mode (kept for the determinism tests).
  bool coalesce_index_propagation = true;

  // Node-local group commit for the append path (see sharedlog/append_batcher.h): appends
  // issued while a node's sequencer round is in flight share the next round. Committed
  // records and protocol outcomes are identical to the per-request reference mode (asserted
  // by the equivalence tests); only timing differs. window/max/pipeline knobs mirror
  // AppendBatchConfig. append_batch_pipeline > 1 keeps that many sequencer rounds in flight
  // per node-shard, committed strictly in departure order (DESIGN.md §12); 1 runs one round
  // at a time, bit-identical to the pre-pipelining loop.
  bool group_commit_appends = true;
  SimDuration append_batch_window = 0;
  int append_batch_max = 64;
  int append_batch_pipeline = 1;

  // Event-queue implementation for the scheduler: the timer wheel (default) or the
  // binary-heap reference mode, which fires the exact same event order (equivalence-tested)
  // at O(log n) per event.
  sim::QueueMode queue_mode = sim::QueueMode::kTimerWheel;

  // Durable medium + crash-restart recovery (DESIGN.md §13). When set, the shared log and
  // the KV store journal every mutation to simulated devices with a write-ahead ordering
  // contract (acks and index propagation gate on the flush), and the cluster supports
  // whole-node KillRestart* with log-replay recovery. When clear, no durability service is
  // ever constructed and the simulation — including its RNG draws — is bit-identical to the
  // pre-storage engine.
  bool durable = false;

  // Incremental checkpointing + journal compaction (DESIGN.md §14). Requires `durable`
  // (there is no journal to compact otherwise): the constructor aborts on checkpoint without
  // durable. When clear, no checkpoint service or store is ever constructed — bit-identical
  // to the durable engine without checkpoints.
  bool checkpoint = false;
  // Walk items per checkpoint slice before the daemon yields to foreground traffic.
  int64_t checkpoint_slice = 4096;
  // Journal growth in bytes that auto-triggers a round (0 = explicit TriggerRound only). Large
  // enough that short runs never checkpoint spontaneously.
  int64_t checkpoint_trigger_bytes = 64 << 20;

  uint64_t seed = 1;
  LatencyCalibration calibration;
};

// One function node: a worker pool plus its clients to the logging layer and the KV store.
class FunctionNode {
 public:
  FunctionNode(int id, sim::Scheduler* scheduler, Rng* rng, const LatencyModels* models,
               sharedlog::ShardedLog* log_space, kvstore::KvState* kv_state,
               std::vector<sim::ServiceStation*> sequencers, sim::ServiceStation* storage,
               sim::ServiceStation* db, int workers, sharedlog::AppendBatchConfig batch,
               bool read_cache)
      : id_(id),
        workers_(scheduler, workers),
        log_(scheduler, rng, models, log_space, std::move(sequencers), storage, batch,
             read_cache),
        kv_(scheduler, rng, models, kv_state, db) {}

  int id() const { return id_; }
  sim::Semaphore& workers() { return workers_; }
  sharedlog::LogClient& log() { return log_; }
  kvstore::KvClient& kv() { return kv_; }

 private:
  int id_;
  sim::Semaphore workers_;
  sharedlog::LogClient log_;
  kvstore::KvClient kv_;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Scheduler& scheduler() { return scheduler_; }
  Rng& rng() { return rng_; }
  const LatencyModels& models() const { return models_; }
  const ClusterConfig& config() const { return config_; }

  sharedlog::ShardedLog& log_space() { return log_space_; }
  kvstore::KvState& kv_state() { return kv_state_; }
  FailureInjector& failure_injector() { return injector_; }

  // ---- Durable medium + crash-restart recovery (DESIGN.md §13) ----

  // Null unless config.durable. The log and KV layers journal to separate services (separate
  // devices with separate flush streams): a sequencer loss must not take the KV journal's
  // volatile tail with it.
  storage::DurabilityService* log_durability() { return log_durability_.get(); }
  storage::DurabilityService* kv_durability() { return kv_durability_.get(); }

  // ---- Incremental checkpointing + compaction (DESIGN.md §14) ----

  // Null unless config.durable && config.checkpoint.
  storage::CheckpointService* checkpoint_service() { return ckpt_service_.get(); }
  storage::CheckpointStore* log_checkpoint_store() { return log_ckpt_.get(); }

  // What the last KillRestart* actually did per domain: image + replay-suffix (and how many
  // torn/corrupt manifests it skipped), or full replay. Tests and the check.sh smoke assert
  // the suffix path is really taken.
  const sharedlog::LogRecoveryStats& last_log_recovery() const { return last_log_recovery_; }
  const sharedlog::LogRecoveryStats& last_kv_recovery() const { return last_kv_recovery_; }

  // Whole-node loss + immediate restart, atomic at the current instant. Each wipes the
  // domain's volatile state, fails in-flight durability waiters (waiters inside an SSF
  // attempt abort it into the retry loop), replays the durable journal prefix to rebuild the
  // tag indices / version index, and rolls the nodes' soft state back to the durable
  // frontier. Require config.durable.
  void KillRestartStorage();    // Log + KV journals: the shared storage tier dies.
  void KillRestartSequencer();  // Log journal only: ordering/replication tier dies.
  void KillRestartFunctionNode(int i);  // Node i's soft state (index replica, caches).

  // Largest frontier GC may trim to: records at or above it may not be durable yet, and
  // trimming them could release a record whose KV side effects survive a crash while the
  // record itself does not. kMaxSeqNum when durability is off.
  sharedlog::SeqNum DurableTrimBound() const {
    return log_durability_ == nullptr ? sharedlog::kMaxSeqNum
                                      : log_durability_->durable_seq() + 1;
  }

  // GC clamp while a checkpoint round is walking the indices (DESIGN.md §14): the walk must
  // not race trims past the watermark it started from. kMaxSeqNum when no round is in
  // flight (or no checkpoint tier exists).
  sharedlog::SeqNum CheckpointBound() const {
    if (ckpt_service_ == nullptr) return sharedlog::kMaxSeqNum;
    uint64_t bound = ckpt_service_->CheckpointBound();
    return bound > sharedlog::kMaxSeqNum ? sharedlog::kMaxSeqNum : bound;
  }

  int node_count() const { return static_cast<int>(nodes_.size()); }
  FunctionNode& node(int i) { return *nodes_[i]; }

  // Round-robin node selection, the gateway's dispatch policy.
  FunctionNode& PickNode() {
    FunctionNode& n = *nodes_[next_node_];
    next_node_ = (next_node_ + 1) % nodes_.size();
    return n;
  }

  // ---- Running-workflow frontier (GC condition (b) of §4.5 and the §4.7 switch wait) ----

  // The runtime's workflow ledger reports each root's init seqnum once the root's Init lands
  // and withdraws it once the whole workflow has drained. Children are never reported: the
  // root's init record is older than every member's and holds the frontier until the
  // workflow drains (DESIGN.md §5, child cursors).
  void AddRunningRoot(sharedlog::SeqNum init_seqnum) { running_roots_.insert(init_seqnum); }
  void RemoveRunningRoot(sharedlog::SeqNum init_seqnum) { running_roots_.erase(init_seqnum); }

  // Roots currently holding the frontier. Tests assert this returns to zero as workflows
  // drain.
  size_t live_tracking_entries() const { return running_roots_.size(); }

  // The GC/switch frontier: the largest seqnum t such that every SSF whose init record has
  // seqnum < t has finished (§4.7). O(1): the smallest running root's init seqnum.
  sharedlog::SeqNum RunningFrontier() const {
    return running_roots_.empty() ? log_space_.next_seqnum() : *running_roots_.begin();
  }

  // The frontier GC acts on (DESIGN.md §7.2): RunningFrontier clamped by DurableTrimBound and
  // CheckpointBound, so no trim passes a record a kill could roll back or one an in-flight
  // checkpoint round may still walk. Both the drain path and GcService read it.
  sharedlog::SeqNum BoundedFrontier() const {
    return std::min({RunningFrontier(), DurableTrimBound(), CheckpointBound()});
  }

  // ---- Superseded write-log records (GC condition (a) of §4.5, DESIGN.md §7.1) ----
  // Queues write log `tag` for core::ReleaseBelowFrontier once the frontier passes `seqnum`.
  void QueueWriteLog(sharedlog::TagId tag, sharedlog::SeqNum seqnum) {
    write_logs_.emplace(seqnum, tag);
  }
  // Pops one queued write log whose seqnum lies below `frontier`; kInvalidTagId when none does.
  sharedlog::TagId PopWriteLogBelow(sharedlog::SeqNum frontier) {
    if (write_logs_.empty() || write_logs_.top().first >= frontier) return sharedlog::kInvalidTagId;
    sharedlog::TagId tag = write_logs_.top().second;
    write_logs_.pop();
    return tag;
  }
  size_t queued_write_logs() const { return write_logs_.size(); }

  // Number of index-propagation wake-up events that performed an advance, and the number of
  // commit notifications they covered. Their ratio measures how much event-queue pressure
  // propagation coalescing removes (the reference mode schedules one event per commit).
  int64_t index_propagation_ticks() const { return index_propagation_ticks_; }
  int64_t index_propagation_commits() const { return index_propagation_commits_; }

  // Aggregate logging statistics across all function nodes.
  int64_t TotalLogAppends() const;
  int64_t TotalLogReads() const;
  int64_t TotalDbOps() const;

  // Simulated bytes of committed log records across all nodes — the §4.6 storage currency.
  // The per-class variant slices by append class (see LogClientStats::appended_bytes_by_class;
  // protocol classes come from core::LogAppendClass).
  int64_t TotalLoggedBytes() const;
  int64_t TotalLoggedBytesByClass(int cls) const;

 private:
  ClusterConfig config_;
  sim::Scheduler scheduler_;
  Rng rng_;
  LatencyModels models_;

  sharedlog::ShardedLog log_space_;
  kvstore::KvState kv_state_;

  // One sequencer station per log shard (empty when queueing is off).
  std::vector<std::unique_ptr<sim::ServiceStation>> sequencer_stations_;
  std::unique_ptr<sim::ServiceStation> storage_station_;
  std::unique_ptr<sim::ServiceStation> db_station_;

  std::unique_ptr<storage::DurabilityService> log_durability_;  // Null unless durable.
  std::unique_ptr<storage::DurabilityService> kv_durability_;   // Null unless durable.

  // Null unless durable && checkpoint (DESIGN.md §14).
  std::unique_ptr<storage::CheckpointStore> log_ckpt_;
  std::unique_ptr<storage::CheckpointStore> kv_ckpt_;
  std::unique_ptr<storage::CheckpointService> ckpt_service_;
  sharedlog::LogRecoveryStats last_log_recovery_;
  sharedlog::LogRecoveryStats last_kv_recovery_;

  std::vector<std::unique_ptr<FunctionNode>> nodes_;
  size_t next_node_ = 0;

  void OnCommit(sharedlog::SeqNum seqnum);
  // Schedules the index-propagation delivery of `seqnum` with the already-sampled `delay`
  // (factored out of OnCommit so the durable mode can defer it to the flush callback).
  void DeliverCommit(sharedlog::SeqNum seqnum, SimDuration delay);
  void IndexPropagationTick();

  // Journal replay halves of the KillRestart* entry points.
  void ReplayLogJournal();
  void ReplayKvJournal();

  static constexpr SimTime kNoWakeup = std::numeric_limits<SimTime>::max();

  FailureInjector injector_;

  std::set<sharedlog::SeqNum> running_roots_;  // Ordered: begin() is the frontier.
  // (seqnum, write-log tag), smallest seqnum on top: commits of one round reach their
  // attempts out of order, and a retry replays an old one, so no FIFO would stay sorted.
  using WriteLogEntry = std::pair<sharedlog::SeqNum, sharedlog::TagId>;
  std::priority_queue<WriteLogEntry, std::vector<WriteLogEntry>, std::greater<>> write_logs_;

  // Pending index-propagation arrivals (arrival time, committed seqnum), strictly increasing
  // in both fields. Commits enter in seqnum order; an older commit whose sampled arrival is
  // not earlier than a newer commit's arrival is dropped on entry — the newer, larger seqnum
  // reaches every replica first and AdvanceIndex is a monotonic max, so delivering the older
  // one later would be a no-op. What survives is the Pareto frontier of (arrival, seqnum),
  // which is why one wake-up can cover a whole burst of commits. Invariant: whenever the
  // deque is non-empty, a wake-up is scheduled at exactly the front arrival time, so every
  // surviving arrival is processed at its sampled time — never early, never late.
  std::deque<std::pair<SimTime, sharedlog::SeqNum>> pending_index_;
  SimTime index_wakeup_ = kNoWakeup;
  int64_t index_propagation_ticks_ = 0;
  int64_t index_propagation_commits_ = 0;
};

}  // namespace halfmoon::runtime

#endif  // HALFMOON_RUNTIME_CLUSTER_H_
