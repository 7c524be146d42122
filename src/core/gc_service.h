// Garbage collection of log records and stale object versions (§4.5).
//
// Garbage goes when the frontier t passes it: t is the largest seqnum such that every SSF
// whose init record has seqnum < t has finished (condition (b)), clamped so no trim passes a
// record a kill could roll back or one a checkpoint round still fences
// (Cluster::BoundedFrontier). Each workflow drain (SsfRuntime::MaybeFinishWorkflow, DESIGN.md
// §7.1, §7.2) calls ReleaseBelowFrontier, which trims the init records below t and, in every
// write log queued with a record below t, the records before the latest one under t, with
// the object versions they name (condition (a): that marked record supersedes them), then
// retires the members' step logs. A scan (RunOnce) is only the backstop for what the
// durability and checkpoint clamps held back at a drain: it calls the same routine and frees
// the registry slots of retired step-log tags whose kRetire frames are durable.
//
// Modeling note: GC mutations are applied directly to the storage state (no simulated
// latency). The paper observes that runtime performance is insensitive to the GC interval
// (§6.3); charging GC traffic to the data-path stations would only distort that.

#ifndef HALFMOON_CORE_GC_SERVICE_H_
#define HALFMOON_CORE_GC_SERVICE_H_

#include <cstddef>
#include <cstdint>

#include "src/runtime/cluster.h"
#include "src/sim/task.h"

namespace halfmoon::core {

// What frontier advances released (§4.5): init records of finished roots, and write-log
// records a later record supersedes with the versions they name. RuntimeStats counts the
// drains' releases, GcStats a scan's own.
struct FrontierRelease {
  int64_t init_records_trimmed = 0;
  int64_t write_records_trimmed = 0;
  int64_t versions_deleted = 0;
};

struct GcStats : FrontierRelease {
  int64_t scans = 0;
  int64_t step_logs_trimmed = 0;  // Always 0 (see RuntimeStats); the benchmark reads it.
};

// Releases what the cluster's bounded frontier has passed, adding it to *released: trims the
// global init stream below the frontier, then pops every write log queued below it
// (Cluster::QueueWriteLog), marks its latest record below the frontier, deletes the versions
// its earlier records name and trims them. The one release of either kind: called at every
// workflow drain and by each scan.
void ReleaseBelowFrontier(runtime::Cluster& cluster, FrontierRelease* released);

class GcService {
 public:
  GcService(runtime::Cluster* cluster, SimDuration interval)
      : cluster_(cluster), interval_(interval) {}

  // Spawns the periodic loop. Runs until Stop() (benchmarks drive the scheduler with
  // RunUntil, so a pending tick past the horizon is harmless).
  void Start();
  void Stop() { stopped_ = true; }

  // One scan; exposed for deterministic tests and the benchmark.
  void RunOnce();

  const GcStats& stats() const { return stats_; }

 private:
  sim::Task<void> Loop();

  runtime::Cluster* cluster_;
  SimDuration interval_;
  bool stopped_ = false;
  GcStats stats_;
};

}  // namespace halfmoon::core

#endif  // HALFMOON_CORE_GC_SERVICE_H_
