// Bounded-depth schedule explorer.
//
// Enumerates multi-fault schedules for a workload and runs each one in a fresh simulated
// cluster, checking every execution against the consistency oracle:
//   * depth 0 — the fault-free baseline (also records the site trace that seeds enumeration);
//   * depth 1 — one crash per traced (site, occurrence);
//   * depth 2 — for each first crash, second faults drawn from the *faulted* run's trace
//     suffix (the prefix up to the first crash is deterministic, so suffix positions are
//     meaningful): a second crash (dying inside retry/recovery), a scheduled peer instance,
//     a GC scan at a chosen hit, or the start of a protocol switch;
//   * node kills (opt-in, durable clusters only) — kill + restart a whole node at a traced
//     hit, replay its journals, and run the remaining invocations against recovered state;
//     the family also pairs a GC scan at a hit with a storage kill at or shortly after it,
//     so kills land before and after the scan's tag retirements become durable.
// Failing schedules are greedily shrunk (drop one fault at a time while the failure persists)
// and reported with their printable form, which Schedule::Parse replays deterministically —
// same seed, same schedule, same verdict.

#ifndef HALFMOON_FAULTCHECK_EXPLORER_H_
#define HALFMOON_FAULTCHECK_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/core/env.h"
#include "src/faultcheck/oracle.h"
#include "src/faultcheck/schedule.h"
#include "src/faultcheck/workload.h"
#include "src/runtime/failure_injector.h"

namespace halfmoon::faultcheck {

struct ExplorerOptions {
  core::ProtocolKind protocol = core::ProtocolKind::kHalfmoonRead;
  bool enable_switching = false;
  core::ProtocolKind switch_target = core::ProtocolKind::kHalfmoonWrite;
  uint64_t seed = 1;

  // Shared-log shard count for every cluster the sweep spins up. Sweeping N > 1 re-checks
  // the oracle against the tag-partitioned log's cross-shard merge order.
  int log_shards = 1;

  // Append-pipeline depth for every cluster the sweep spins up. Sweeping depth > 1 makes the
  // batch.depart/batch.reply sites race crashed-function retries against rounds still in
  // flight, and the depth-2 crash-pair family then covers crashes between two concurrently
  // in-flight rounds.
  int pipeline_depth = 1;

  // Platform timing: a tight duplicate delay makes scheduled peers actually race.
  SimDuration duplicate_delay = Milliseconds(1);

  // Testing-only protocol mutation, plumbed to RuntimeConfig (the negative control).
  bool drop_commit_append = false;

  // Runs every cluster with RuntimeConfig::advisor on: SSFs resolve per-object protocols
  // from "switch:k:<key>" transition streams, and kAdvisorFire points become meaningful.
  bool advisor_mode = false;

  // Runs every cluster the sweep spins up on the journaled storage tier (DESIGN.md §13)
  // instead of the volatile store. Node-kill fault points require it.
  bool durable = false;

  // Depth-1 node-kill family: kill + restart a whole node at each strided trace position,
  // for every domain listed below, then let the remaining invocations run against the
  // replayed state; plus GC scan × storage kill pairs at each position. Requires durable.
  bool node_kills = false;
  std::vector<std::string> kill_domains = {"store", "seq", "fn0"};

  // Checkpoint family (requires durable; every cluster then runs with the checkpoint
  // tier attached): trigger a checkpoint round at each strided trace position — alone, with
  // the daemon crashing inside the round (ckpt.write / ckpt.install / ckpt.truncate), and
  // with whole-node kills landing mid-round and right after it, so recovery comes up from a
  // partial image, an untruncated manifest, or the freshly compacted journal (DESIGN.md §14).
  bool checkpoints = false;

  // Which depth-2 families to enumerate.
  bool crash_pairs = true;
  bool crash_plus_peer = true;
  bool crash_plus_gc = true;
  bool crash_plus_switch = false;   // Only meaningful with enable_switching.
  bool crash_plus_advisor = false;  // Only meaningful with advisor_mode.

  // Sweep bounds for smoke mode. Strides subsample candidates; second_limit caps the number
  // of second-fault positions per first crash (-1 = unbounded). The full sweep sets all
  // three to exhaustive (see tests/faultcheck/explorer_test.cc and HM_FAULTCHECK_FULL).
  int first_stride = 1;
  int second_stride = 1;
  int second_limit = -1;

  bool shrink_failures = true;

  // After the invocations drain, run one final GC scan and re-check the oracle — catches GC
  // collecting state that is still observable.
  bool final_gc_check = true;
};

struct FailingSchedule {
  Schedule schedule;   // As explored.
  Schedule minimized;  // After greedy shrinking (== schedule when shrinking is off).
  std::string reason;  // The oracle's failure message for `schedule`.
};

struct ExplorerReport {
  int64_t baseline_sites = 0;  // Crash sites traced by the fault-free run.
  int64_t explored_none = 0;
  int64_t explored_single = 0;
  int64_t explored_pairs = 0;
  int64_t explored_peer = 0;
  int64_t explored_gc = 0;
  int64_t explored_switch = 0;
  int64_t explored_advisor = 0;
  int64_t explored_kill = 0;
  int64_t explored_gc_kill = 0;
  int64_t explored_ckpt = 0;
  std::vector<FailingSchedule> failures;

  int64_t TotalExplored() const {
    return explored_none + explored_single + explored_pairs + explored_peer + explored_gc +
           explored_switch + explored_advisor + explored_kill + explored_gc_kill +
           explored_ckpt;
  }
  bool AllPassed() const { return failures.empty(); }

  // One line for CI logs: explored-schedule counts per family plus the failure count.
  std::string Summary() const;
};

class Explorer {
 public:
  Explorer(Workload workload, ExplorerOptions options);

  // Full bounded sweep: baseline, depth-1, and the enabled depth-2 families.
  ExplorerReport Run();

  struct RunOutcome {
    OracleVerdict verdict;
    std::vector<runtime::FailureInjector::TraceEntry> trace;  // When record_trace.
    int64_t crashes = 0;  // Runtime stats of the run, for tests.
    int64_t peers = 0;
  };

  // Executes the workload once under `schedule` in a fresh cluster and checks the oracle.
  RunOutcome RunSchedule(const Schedule& schedule, bool record_trace = false);

  // Greedy minimization: repeatedly drops any single fault whose removal keeps the schedule
  // failing, until no single removal does.
  Schedule Shrink(const Schedule& failing);

  const Workload& workload() const { return workload_; }
  const ExplorerOptions& options() const { return options_; }

 private:
  void NoteVerdict(const Schedule& schedule, const OracleVerdict& verdict,
                   ExplorerReport* report);

  Workload workload_;
  ExplorerOptions options_;
};

}  // namespace halfmoon::faultcheck

#endif  // HALFMOON_FAULTCHECK_EXPLORER_H_
