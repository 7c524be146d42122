// Latency-modelled client of the external state, one per function node.
//
// Op latencies are calibrated to Table 1 of the paper (DynamoDB): reads 1.88/4.60 ms,
// conditional writes 2.47/5.86 ms (median/p99); plain writes are cheaper, which is why the
// paper's unsafe baseline beats Halfmoon-write's log-free-but-conditional writes (§6.1).
// A shared ServiceStation models the store's finite capacity.

#ifndef HALFMOON_KVSTORE_KV_CLIENT_H_
#define HALFMOON_KVSTORE_KV_CLIENT_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/kvstore/kv_state.h"
#include "src/sim/scheduler.h"
#include "src/sim/service_station.h"
#include "src/sim/task.h"

namespace halfmoon::storage {
class DurabilityService;
}  // namespace halfmoon::storage

namespace halfmoon::kvstore {

struct KvClientStats {
  int64_t reads = 0;
  int64_t plain_writes = 0;
  int64_t cond_writes = 0;
  int64_t cond_write_rejects = 0;
  int64_t versioned_reads = 0;
  int64_t versioned_writes = 0;
  int64_t deletes = 0;
};

class KvClient {
 public:
  KvClient(sim::Scheduler* scheduler, Rng* rng, const LatencyModels* models, KvState* state,
           sim::ServiceStation* station)
      : scheduler_(scheduler), rng_(rng), models_(models), state_(state), station_(station) {}

  // Every key, value and version id below is borrowed across the awaits, not copied into the
  // task's frame: the caller keeps the bytes alive until the task completes. The protocol
  // callers (core/protocols.cc) pass their own parameters and locals, and version ids that
  // view a LogRecordPtr held in their own frame; the store copies what it keeps.
  sim::Task<std::optional<Value>> Get(const std::string& key);
  // Read that also returns the stored version tuple, used by the transitional protocol and by
  // post-switch dual reads to compare the freshness of the LATEST slot against the write log
  // (§5.2). DualRead spawns it joinably and joins it before its own frame ends.
  sim::Task<std::optional<std::pair<Value, VersionTuple>>> GetWithVersion(const std::string& key);
  sim::Task<void> Put(std::string_view key, std::string_view value);
  sim::Task<bool> CondPut(std::string_view key, std::string_view value, VersionTuple version);

  sim::Task<void> PutVersioned(ObjectId object, std::string_view version_id,
                               std::string_view value);
  sim::Task<std::optional<Value>> GetVersioned(ObjectId object, std::string_view version_id);
  sim::Task<bool> DeleteVersioned(ObjectId object, std::string_view version_id);

  const KvClientStats& stats() const { return stats_; }

  // Write-ahead gate (DESIGN.md §13): with a durability service attached, every applied
  // mutation waits for its journal frame to become durable before the reply leg fires, so the
  // caller never observes an acknowledged-but-volatile write.
  void SetDurability(storage::DurabilityService* durability) { durability_ = durability; }

  // Invoked when a kill destroys a mutation this client was waiting on. KvClient runs only
  // inside function attempts, so the hook unconditionally aborts the attempt (the runtime's
  // retry loop re-executes it against the rolled-back state).
  void InstallCrashHook(std::function<void(std::string_view)> thrower) {
    crash_thrower_ = std::move(thrower);
  }

 private:
  // Round trip: request leg, station occupancy, `body` at the store, reply leg.
  sim::Task<void> Round(SimDuration total_latency);
  // Waits for the most recent journal frame; aborts the attempt if a kill wiped it.
  sim::Task<void> AwaitDurable(std::string_view site);

  sim::Scheduler* scheduler_;
  Rng* rng_;
  const LatencyModels* models_;
  KvState* state_;
  sim::ServiceStation* station_;
  storage::DurabilityService* durability_ = nullptr;
  std::function<void(std::string_view)> crash_thrower_;
  KvClientStats stats_;
};

}  // namespace halfmoon::kvstore

#endif  // HALFMOON_KVSTORE_KV_CLIENT_H_
