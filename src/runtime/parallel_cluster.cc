#include "src/runtime/parallel_cluster.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/sharedlog/log_record.h"

namespace halfmoon::runtime {

namespace {

// Per-partition RNG stream derivation: splitmix-style so neighbouring partition ids do not
// produce correlated lognormal draws. Identical in both modes — the streams, and therefore
// every sampled latency, do not depend on threading.
uint64_t PartitionSeed(uint64_t seed, int id) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(id + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

uint64_t FnvU64(uint64_t h, uint64_t v) { return FnvBytes(h, &v, sizeof(v)); }

uint64_t FnvStr(uint64_t h, const std::string& s) { return FnvBytes(h, s.data(), s.size()); }

}  // namespace

LogPartition::LogPartition(int id, sim::Scheduler* scheduler, uint64_t seed,
                           const LatencyModels* models, const ParallelClusterConfig& config)
    : id_(id),
      scheduler_(scheduler),
      rng_(PartitionSeed(seed, id)),
      models_(models),
      sequencer_(scheduler, config.sequencer_servers),
      storage_(scheduler, config.storage_servers) {
  sharedlog::AppendBatchConfig batch{
      .enabled = config.group_commit_appends,
      .window = config.append_batch_window,
      .max_batch = static_cast<size_t>(config.append_batch_max),
      .pipeline_depth = config.append_batch_pipeline,
  };
  // Durable tier (DESIGN.md §13): one journal per partition, on the partition's own event
  // loop — flushes are partition-local timestamped events, so both threading modes see them
  // identically. The service draws flush latencies from its own stream derived from the
  // partition seed; config.durable = false skips this entirely (bit-identity with the
  // pre-storage engine, as in runtime::Cluster).
  if (config.durable) {
    durability_ = std::make_unique<storage::DurabilityService>(scheduler_, models_,
                                                               PartitionSeed(seed, id));
    log_.AttachDurability(durability_.get());
    // The checkpoint store is pure state (no RNG, no events), so constructing it cannot
    // perturb the determinism pins; rounds only ever run via CheckpointNow between drains.
    if (config.checkpoint) ckpt_ = std::make_unique<storage::CheckpointStore>();
  }
  clients_.reserve(static_cast<size_t>(config.clients_per_partition));
  for (int i = 0; i < config.clients_per_partition; ++i) {
    clients_.push_back(std::make_unique<sharedlog::LogClient>(
        scheduler_, &rng_, models_, &log_, std::vector<sim::ServiceStation*>{&sequencer_},
        &storage_, batch, /*read_cache=*/false));
    if (durability_ != nullptr) clients_.back()->SetDurability(durability_.get());
  }
  log_.SetCommitListener([this](sharedlog::SeqNum seqnum) { OnCommit(seqnum); });
}

void LogPartition::OnCommit(sharedlog::SeqNum seqnum) {
  // Partition-local by construction: the commit fires on this partition's event loop and the
  // index update is posted back onto the same loop, so no cross-thread access happens here.
  // The delay is sampled before branching on the durable mode, so both modes draw the
  // identical rng sequence from this stream.
  SimDuration delay = models_->index_propagation.Sample(rng_);
  if (durability_ != nullptr) {
    // Write-ahead index propagation (DESIGN.md §13): replicas only learn durable seqnums.
    // The callback fires on this partition's loop once the record's flush lands.
    durability_->WhenDurable(seqnum, [this, seqnum, delay] {
      scheduler_->Post(delay, [this, seqnum] {
        for (auto& client : clients_) client->AdvanceIndex(seqnum);
      });
    });
    return;
  }
  scheduler_->Post(delay, [this, seqnum] {
    for (auto& client : clients_) client->AdvanceIndex(seqnum);
  });
}

void LogPartition::CheckpointNow() {
  HM_CHECK_MSG(durability_ != nullptr && ckpt_ != nullptr,
               "CheckpointNow needs the durable + checkpoint tiers attached");
  // Quiesced: everything acked is flushed, so the cut covers the whole log and the image is
  // sharp (recovery still runs the same image + suffix driver; the suffix is just empty).
  HM_CHECK(durability_->durable_offset() == durability_->tail_offset());
  uint64_t cut = durability_->durable_offset();
  uint64_t image_start = ckpt_->tail();
  HM_CHECK(image_start == ckpt_->durable());
  log_.BeginCheckpointWalk();
  int64_t frames = 0;
  while (!log_.WriteCheckpointSlice(ckpt_.get(), /*budget=*/1 << 20, &frames)) {
  }
  ckpt_->Flush();
  storage::CheckpointManifest m;
  m.domain = storage::kCkptLogDomain;
  m.cut = cut;
  m.image_start = image_start;
  m.frame_count = static_cast<uint64_t>(frames);
  m.checksum = storage::ChecksumImage(*ckpt_, image_start, ckpt_->durable());
  m.watermark_floor = durability_->durable_seq();
  ckpt_->AppendFrame(storage::FrameType::kCkptManifest, storage::EncodeManifest(m));
  ckpt_->Flush();
  durability_->TruncateTo(cut);
  ckpt_->TruncatePrefix(image_start);
}

sharedlog::LogRecoveryStats LogPartition::RestartFromJournal() {
  HM_CHECK_MSG(durability_ != nullptr, "RestartFromJournal needs the durable tier attached");
  durability_->Kill();
  if (ckpt_ != nullptr) ckpt_->DropVolatile();
  return sharedlog::RestoreLogFromJournal(scheduler_->Now(), &log_, durability_.get(),
                                          ckpt_.get());
}

ParallelCluster::ParallelCluster(const ParallelClusterConfig& config)
    : config_(config), models_(config.calibration) {
  HM_CHECK(config.partitions >= 1);
  HM_CHECK_MSG(config.durable || !config.checkpoint,
               "ParallelClusterConfig: checkpoint = true needs durable = true (the checkpoint "
               "tier compacts the durable journal)");
  // Checked before LogPartition's size_t cast: a negative cap would wrap to a huge one.
  HM_CHECK_MSG(config.append_batch_max >= 1,
               "ParallelClusterConfig: append_batch_max must be >= 1");
  // Depth 0 or below would silently run one round at a time.
  HM_CHECK_MSG(config.append_batch_pipeline >= 1,
               "ParallelClusterConfig: append_batch_pipeline must be >= 1");
  // A station with no servers never serves, and a partition without clients cannot take the
  // remote calls routed to it (ServeRemote picks a proxy modulo client_count()).
  HM_CHECK_MSG(config.sequencer_servers >= 1,
               "ParallelClusterConfig: sequencer_servers must be >= 1");
  HM_CHECK_MSG(config.storage_servers >= 1,
               "ParallelClusterConfig: storage_servers must be >= 1");
  HM_CHECK_MSG(config.clients_per_partition >= 1,
               "ParallelClusterConfig: clients_per_partition must be >= 1");
  if (config.parallel) {
    engine_ = std::make_unique<sim::ParallelEngine>(config.partitions, CrossShardLookahead(),
                                                    config.queue_mode);
  } else {
    shared_scheduler_ = std::make_unique<sim::Scheduler>(config.queue_mode);
  }
  parts_.reserve(static_cast<size_t>(config.partitions));
  for (int p = 0; p < config.partitions; ++p) {
    sim::Scheduler* sched = engine_ ? &engine_->scheduler(p) : shared_scheduler_.get();
    parts_.push_back(
        std::make_unique<LogPartition>(p, sched, config.seed, &models_, config));
  }
}

sim::Task<sharedlog::SeqNum> ParallelCluster::Append(int from, int client, int owner,
                                                     std::vector<sharedlog::TagId> tags,
                                                     FieldMap fields) {
  LogPartition& src = partition(from);
  SimTime start = src.scheduler().Now();
  sharedlog::SeqNum seq;
  if (owner == from) {
    seq = co_await src.client(client).Append(std::move(tags), std::move(fields));
  } else {
    ++src.remote_appends_out_;
    RemoteAppend call{this,          from, owner, client, std::move(tags),
                      std::move(fields)};
    seq = co_await call;
  }
  src.append_latency().Record(src.scheduler().Now() - start);
  co_return seq;
}

void ParallelCluster::RemoteAppend::await_suspend(std::coroutine_handle<> handle) {
  waiter = handle;
  // Request leg: sender's thread samples the hop from ITS stream (deterministic regardless of
  // which thread the owner's loop runs on) and ships a pointer to this frame. The frame stays
  // alive until await_resume: the sender coroutine is suspended right here until the reply
  // message resumes it.
  RemoteAppend* self = this;
  SimDuration request_leg = cluster->CrossHop(cluster->partition(from));
  cluster->Send(from, owner, request_leg, [self] {
    // Now on the OWNER's event loop: run the full local append path there.
    ParallelCluster* pc = self->cluster;
    pc->partition(self->owner).scheduler().Spawn(pc->ServeRemote(self));
  });
}

sim::Task<void> ParallelCluster::ServeRemote(RemoteAppend* call) {
  LogPartition& owner = partition(call->owner);
  // The owner-side proxy client: requests from remote partitions fan over the owner's clients
  // deterministically by the requester's client index.
  int proxy = call->client % owner.client_count();
  sharedlog::SeqNum seq =
      co_await owner.client(proxy).Append(std::move(call->tags), std::move(call->fields));
  // Reply leg, sampled from the OWNER's stream on the owner's thread.
  SimDuration reply_leg = CrossHop(owner);
  Send(call->owner, call->from, reply_leg, [call, seq] {
    // Back on the sender's loop. Write the result into the suspended frame and resume it.
    call->result = seq;
    call->waiter.resume();
  });
}

SimTime ParallelCluster::Run() {
  if (engine_) return engine_->Run();
  return shared_scheduler_->Run();
}

uint64_t ParallelCluster::TotalEventsProcessed() const {
  if (engine_) return engine_->TotalEventsProcessed();
  return shared_scheduler_->events_processed();
}

int64_t ParallelCluster::TotalLogAppends() const {
  sharedlog::LogClientStats stats = AggregateClientStats();
  return stats.appends + stats.cond_appends;
}

sharedlog::LogClientStats ParallelCluster::AggregateClientStats() const {
  sharedlog::LogClientStats total;
  for (const auto& part : parts_) {
    for (int i = 0; i < part->client_count(); ++i) total.Add(part->client(i).stats());
  }
  return total;
}

metrics::LatencyRecorder ParallelCluster::MergedAppendLatency() const {
  metrics::LatencyRecorder merged;
  for (const auto& part : parts_) merged.Merge(part->append_latency());
  return merged;
}

int64_t ParallelCluster::remote_appends() const {
  int64_t total = 0;
  for (const auto& part : parts_) total += part->remote_appends_out();
  return total;
}

uint64_t ParallelCluster::ContentChecksum() const {
  // Per-tag stream hash: tag NAME (ids are partition-local), then every record's field map in
  // committed stream order. Seqnums are deliberately left out — the contract across modes is
  // "same records, same per-tag order", and this hash pins exactly that. Tag hashes fold into
  // the result with XOR, so the checksum is independent of tag/partition enumeration order.
  uint64_t combined = 0;
  for (const auto& part : parts_) {
    const sharedlog::ShardedLog& log = part->log();
    for (sharedlog::TagId tag : log.LiveTagsWithPrefix("")) {
      uint64_t h = kFnvOffset;
      h = FnvStr(h, log.tags().Name(tag));
      for (const sharedlog::LogRecordPtr& record :
           log.ReadStreamUpTo(tag, sharedlog::kMaxSeqNum)) {
        h = FnvU64(h, 0x1ull);  // Record separator.
        for (const auto& [key, field] : record->fields) {
          h = FnvStr(h, key);
          if (const int64_t* iv = std::get_if<int64_t>(&field)) {
            h = FnvU64(h, static_cast<uint64_t>(*iv));
          } else {
            h = FnvStr(h, std::get<std::string>(field));
          }
        }
      }
      combined ^= h;
    }
  }
  return combined;
}

}  // namespace halfmoon::runtime
