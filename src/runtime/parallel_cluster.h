// The shard-parallel cluster: one log shard per worker thread (DESIGN.md §10).
//
// Where runtime::Cluster turns the whole testbed on ONE scheduler, a ParallelCluster gives
// every log shard its own event loop: shard p's ShardedLog, its sequencer ServiceStation, its
// storage station, its AppendBatchers, and the function-node clients that generate shard p's
// traffic all live on worker p — either a real OS thread driven by sim::ParallelEngine
// (parallel = true) or a slice of one shared single-threaded Scheduler (parallel = false,
// which routes everything through exactly today's event loop). The two modes
// run the same partitions, the same RNG streams, and the same message timestamps; with one
// partition they are bit-identical, and at any partition count they commit the same records
// in the same per-tag order (pinned by parallel_cluster_test).
//
// Cross-shard traffic goes through ParallelCluster::Append with a remote owner: a request
// message to the owner's loop (which runs the full local append path there — batcher,
// sequencer queueing, commit) and a reply message back, each leg clamped to the conservative
// lookahead floor (ClampCrossShard). That message path is the ONLY thing that ever crosses
// workers, which is what makes the conservative window protocol of sim::ParallelEngine
// sufficient: there is no shared mutable simulation state, only timestamped messages.
//
// Scope: ParallelCluster partitions the *log layer* and its load. Full SSF protocol
// execution (workflows, KV, GC, switching — everything layered on runtime::Cluster) stays on
// the single-threaded engine; DESIGN.md §10.4 records why (faultcheck schedule replay
// addresses single-scheduler event indices).

#ifndef HALFMOON_RUNTIME_PARALLEL_CLUSTER_H_
#define HALFMOON_RUNTIME_PARALLEL_CLUSTER_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/metrics/latency_recorder.h"
#include "src/sharedlog/log_client.h"
#include "src/sharedlog/log_recovery.h"
#include "src/sharedlog/sharded_log.h"
#include "src/sim/parallel.h"
#include "src/sim/scheduler.h"
#include "src/sim/service_station.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"

namespace halfmoon::runtime {

struct ParallelClusterConfig {
  // Worker threads == log shards. Each partition is a full log stack (shard + sequencer +
  // clients); 1 degenerates to a plain single-log, single-thread cluster.
  int partitions = 4;

  // false: all partitions share one single-threaded Scheduler (today's event loop); true:
  // one OS thread per partition under the conservative engine. Everything else — component
  // wiring, RNG streams, latency samples, message timestamps — is identical.
  bool parallel = false;

  // Function-node clients per partition (the per-shard analogue of function_nodes).
  int clients_per_partition = 2;

  // Per-shard service capacity, mirroring ClusterConfig's sequencer/storage stations.
  int sequencer_servers = 6;
  int storage_servers = 12;

  // Node-local group commit, as in ClusterConfig. Each partition's batchers pipeline
  // independently, so cross-partition appends overlap both across shards and across rounds
  // within a shard (DESIGN.md §12).
  bool group_commit_appends = true;
  SimDuration append_batch_window = 0;
  int append_batch_max = 64;
  int append_batch_pipeline = 1;

  // Durable storage tier (DESIGN.md §13): each partition gets its own journal + group
  // flusher on its own event loop, and appends only ack after their frames are flush-
  // ordered — the same write-ahead contract as ClusterConfig::durable, shard-parallel.
  // false constructs no storage machinery at all and stays bit-identical to the
  // pre-storage engine.
  bool durable = false;

  // Checkpoint + compaction tier (DESIGN.md §14): each partition gets its own sibling
  // checkpoint store. Rounds are explicit (LogPartition::CheckpointNow between drains) —
  // there is no background daemon on the worker loops, so the conservative-window protocol
  // and the cross-mode determinism pins are untouched. Requires durable = true (the
  // constructor aborts otherwise).
  bool checkpoint = false;

  sim::QueueMode queue_mode = sim::QueueMode::kTimerWheel;
  uint64_t seed = 1;
  LatencyCalibration calibration;
};

// One log shard and everything that turns with it, owned by one worker.
class LogPartition {
 public:
  LogPartition(int id, sim::Scheduler* scheduler, uint64_t seed, const LatencyModels* models,
               const ParallelClusterConfig& config);

  int id() const { return id_; }
  sim::Scheduler& scheduler() { return *scheduler_; }
  Rng& rng() { return rng_; }
  sharedlog::ShardedLog& log() { return log_; }
  const sharedlog::ShardedLog& log() const { return log_; }
  sharedlog::LogClient& client(int i) { return *clients_[static_cast<size_t>(i)]; }
  const sharedlog::LogClient& client(int i) const { return *clients_[static_cast<size_t>(i)]; }
  int client_count() const { return static_cast<int>(clients_.size()); }

  // This partition's thread-local append-latency recorder (merged by the main thread after
  // the run; see LatencyRecorder's threading contract).
  metrics::LatencyRecorder& append_latency() { return append_latency_; }
  const metrics::LatencyRecorder& append_latency() const { return append_latency_; }

  // Cross-shard append requests this partition *initiated* (thread-local by the same rule as
  // the recorders: only this partition's worker bumps it; the main thread sums after join).
  int64_t remote_appends_out() const { return remote_appends_out_; }

  // This partition's journal (nullptr when config.durable is false). Partition-local like
  // everything else here: only this partition's worker ever touches it during the run.
  storage::DurabilityService* durability() { return durability_.get(); }
  const storage::DurabilityService* durability() const { return durability_.get(); }

  // This partition's checkpoint store (nullptr unless durable && checkpoint).
  storage::CheckpointStore* checkpoint_store() { return ckpt_.get(); }
  const storage::CheckpointStore* checkpoint_store() const { return ckpt_.get(); }

  // Quiesced checkpoint round (call between Run() drains, on the main thread): walks the
  // whole live index in one pass, stamps the manifest, truncates the journal below the cut
  // and the store below the new image. Sharp rather than fuzzy — nothing is volatile at a
  // drain, so no replay suffix is ever needed for the image itself.
  void CheckpointNow();

  // Whole-partition crash-restart: volatile tails die, the log re-arises from the newest
  // valid checkpoint image plus the journal suffix (full replay when no image exists).
  sharedlog::LogRecoveryStats RestartFromJournal();

 private:
  friend class ParallelCluster;
  // Partition-local index propagation: every commit reaches this partition's client replicas
  // after a sampled delay (the per-commit reference path of Cluster::OnCommit).
  void OnCommit(sharedlog::SeqNum seqnum);

  int id_;
  sim::Scheduler* scheduler_;
  Rng rng_;
  const LatencyModels* models_;
  sharedlog::ShardedLog log_{1};
  sim::ServiceStation sequencer_;
  sim::ServiceStation storage_;
  std::unique_ptr<storage::DurabilityService> durability_;  // Durable tier only.
  std::unique_ptr<storage::CheckpointStore> ckpt_;          // Checkpoint tier only.
  std::vector<std::unique_ptr<sharedlog::LogClient>> clients_;
  metrics::LatencyRecorder append_latency_;
  int64_t remote_appends_out_ = 0;
};

class ParallelCluster {
 public:
  explicit ParallelCluster(const ParallelClusterConfig& config);
  ParallelCluster(const ParallelCluster&) = delete;
  ParallelCluster& operator=(const ParallelCluster&) = delete;

  const ParallelClusterConfig& config() const { return config_; }
  int partitions() const { return static_cast<int>(parts_.size()); }
  LogPartition& partition(int p) { return *parts_[static_cast<size_t>(p)]; }
  const LogPartition& partition(int p) const { return *parts_[static_cast<size_t>(p)]; }

  // Interns `name` in partition `owner`'s registry (call before Run; tag ids are
  // per-partition because each partition is its own log).
  sharedlog::TagId InternTag(int owner, const std::string& name) {
    return partition(owner).log().tags().Intern(name);
  }

  // Starts a fire-and-forget load task on partition p's event loop. Call before Run.
  void Spawn(int p, sim::Task<void> task) { partition(p).scheduler().Spawn(std::move(task)); }

  // Appends from partition `from`'s client `client`. When `owner == from` this is the plain
  // local append path; otherwise the request crosses to `owner`'s loop (conservative message,
  // >= CrossShardLookahead each way), commits there through the full local path, and the
  // seqnum rides a reply message back. `tags` are ids in the OWNER's registry. Records the
  // end-to-end latency in `from`'s thread-local recorder.
  sim::Task<sharedlog::SeqNum> Append(int from, int client, int owner,
                                      std::vector<sharedlog::TagId> tags, FieldMap fields);

  // Runs to global drain; returns the largest virtual end time across partitions.
  SimTime Run();

  // ---- Post-run aggregation (main thread, after the join) ----
  uint64_t TotalEventsProcessed() const;
  int64_t TotalLogAppends() const;
  sharedlog::LogClientStats AggregateClientStats() const;  // LogClientStats::Add fold.
  metrics::LatencyRecorder MergedAppendLatency() const;    // LatencyRecorder::Merge fold.
  // FNV-1a content checksum of every partition's per-tag streams, folded order-independently
  // across tags: the cross-mode / cross-run equivalence pin.
  uint64_t ContentChecksum() const;

  uint64_t windows() const { return engine_ ? engine_->windows() : 0; }
  uint64_t messages_routed() const { return engine_ ? engine_->messages_routed() : 0; }
  int64_t remote_appends() const;

 private:
  friend class LogPartition;

  // The cross-worker transport: identical timestamps in both modes. In single-thread mode
  // every partition shares scheduler 0, so a "message" is a plain Post on it.
  template <typename F>
  void Send(int from, int to, SimDuration delay, F&& fn) {
    if (engine_) {
      engine_->Send(from, to, delay, std::forward<F>(fn));
    } else {
      HM_CHECK(delay >= CrossShardLookahead());
      shared_scheduler_->Post(delay, std::forward<F>(fn));
    }
  }

  // In-flight cross-shard append state; lives in the awaiting coroutine's frame on the
  // sender's thread. The owner thread moves the payload out and writes the result; the
  // barrier protocol orders those accesses against the sender's.
  struct RemoteAppend {
    ParallelCluster* cluster;
    int from;
    int owner;
    int client;
    std::vector<sharedlog::TagId> tags;
    FieldMap fields;
    sharedlog::SeqNum result = sharedlog::kInvalidSeqNum;
    std::coroutine_handle<> waiter = nullptr;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle);
    sharedlog::SeqNum await_resume() const noexcept { return result; }
  };

  sim::Task<void> ServeRemote(RemoteAppend* call);

  // One clamped cross-shard hop, sampled from the uncached-read (network round trip) model
  // of the given partition's RNG stream.
  SimDuration CrossHop(LogPartition& part) {
    return ClampCrossShard(models_.log_read_uncached.Sample(part.rng()));
  }

  ParallelClusterConfig config_;
  LatencyModels models_;
  std::unique_ptr<sim::ParallelEngine> engine_;       // Parallel mode only.
  std::unique_ptr<sim::Scheduler> shared_scheduler_;  // Single-thread mode only.
  std::vector<std::unique_ptr<LogPartition>> parts_;
};

}  // namespace halfmoon::runtime

#endif  // HALFMOON_RUNTIME_PARALLEL_CLUSTER_H_
