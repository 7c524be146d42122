// Garbage collection of log records and stale object versions (§4.5).
//
// Periodically invoked by the runtime. Each scan:
//   1. computes the frontier t: the largest seqnum such that every SSF whose init record has
//      seqnum < t has finished (condition (b) of §4.5);
//   2. for every per-object write log, marks the latest record with seqnum < t and deletes
//      all records preceding it together with their object versions (condition (a): the
//      marked record supersedes them; condition (b): no running or future SSF can still seek
//      backward past the marked record). The sweep walks the tag registry's unretired ids
//      in id order, skips streams with fewer than two entries before reading their names,
//      and reads only the garbage prefix below the marked record;
//   3. frees the registry slots of retired step-log tags whose kRetire frames are durable.
//      The step logs themselves (Halfmoon-write's read logs, the version half of
//      Halfmoon-read's write pairs) live exactly as long as their workflow, so SsfRuntime
//      retires them when it drains, not at a scan (DESIGN.md §7.1);
//   4. trims the global init stream up to the frontier. A record there belongs to a finished
//      root once the frontier passes it, so SsfRuntime trims the stream whenever a drain
//      moves the frontier; the scan is only the backstop for trims the durability and
//      checkpoint clamps deferred. Both call TrimInitStream (DESIGN.md §7.1).
//
// Modeling note: GC mutations are applied directly to the storage state (no simulated
// latency). The paper observes that runtime performance is insensitive to the GC interval
// (§6.3); charging GC traffic to the data-path stations would only distort that. All GC work
// is still counted in GcStats.

#ifndef HALFMOON_CORE_GC_SERVICE_H_
#define HALFMOON_CORE_GC_SERVICE_H_

#include <cstddef>
#include <cstdint>

#include "src/runtime/cluster.h"
#include "src/sim/task.h"

namespace halfmoon::core {

struct GcStats {
  int64_t scans = 0;
  int64_t step_logs_trimmed = 0;  // Always 0 (see RuntimeStats); the benchmark reads it.
  int64_t write_records_trimmed = 0;
  int64_t versions_deleted = 0;
  int64_t init_records_trimmed = 0;  // By the backstop only; drains count in RuntimeStats.
};

// Trims the global init stream below the cluster's bounded frontier and returns the number
// of records released. The one init-stream trim: called at every workflow drain and by each
// scan's step (4).
size_t TrimInitStream(runtime::Cluster& cluster);

class GcService {
 public:
  GcService(runtime::Cluster* cluster, SimDuration interval)
      : cluster_(cluster), interval_(interval) {}

  // Spawns the periodic loop. Runs until Stop() (benchmarks drive the scheduler with
  // RunUntil, so a pending tick past the horizon is harmless).
  void Start();
  void Stop() { stopped_ = true; }

  // One full scan; exposed for deterministic tests.
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
