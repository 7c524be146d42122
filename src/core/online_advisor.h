// Online cost-model advisor (DESIGN.md §11): background per-object protocol steering.
//
// In advisor mode the runtime counts every state access in a space-bounded workload sketch
// (src/metrics/workload_sketch.h). This service is the consumer: a background coroutine that
// incrementally walks the interned keyspace (a bounded slice of dense TagIds per tick, so a
// million-object keyspace never causes a scan spike), estimates each object's windowed
// read/write mix from the sketch, evaluates the §4.6 runtime criterion, and — when an object
// sits on the wrong side of the boundary — fires a pauseless §4.7 switch of the object's
// transition stream through SwitchManager::SwitchObject.
//
// Three dampers keep the advisor from thrashing on noisy estimates:
//   * a ratio deadband around the boundary (|r - r*| <= margin means "leave it alone"),
//   * a per-object dwell time (an object switches at most once per dwell window),
//   * a global token bucket bounding the cluster-wide switch rate.
// All suppressed decisions are counted per cause in OnlineAdvisorStats, so benches and tests
// can assert the dampers actually engage.

#ifndef HALFMOON_CORE_ONLINE_ADVISOR_H_
#define HALFMOON_CORE_ONLINE_ADVISOR_H_

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "src/common/time.h"
#include "src/core/advisor.h"
#include "src/core/env.h"
#include "src/core/switch_manager.h"
#include "src/sim/task.h"

namespace halfmoon::core {

class SsfRuntime;

struct OnlineAdvisorConfig {
  // Scan cadence and per-tick bound: at most `ids_per_tick` dense TagIds are examined per
  // tick, so a sweep over N live tags takes ceil(N / ids_per_tick) ticks regardless of N.
  SimDuration tick = Milliseconds(50);
  int ids_per_tick = 4096;

  // Sliding-window epoch length: the sketch's previous window is dropped and the current one
  // rotated out every `epoch`, so estimates track roughly the last 1-2 epochs of traffic.
  SimDuration epoch = Milliseconds(200);

  // Decision dampers (see file comment).
  double margin = 0.08;        // Deadband half-width around the boundary read ratio.
  int64_t min_ops = 16;        // Below this many windowed ops an object is never judged.
  SimDuration dwell = Milliseconds(400);  // Per-object minimum time between switches.
  double switch_rate = 512.0;  // Token-bucket refill, switches per simulated second.
  double switch_burst = 64.0;  // Token-bucket capacity.

  // Cost-model inputs for the boundary ratio (only write_cost_ratio matters at runtime).
  WorkloadProfile profile;
};

struct OnlineAdvisorStats {
  int64_t ticks = 0;
  int64_t sweeps = 0;  // Completed full passes over the keyspace.
  int64_t objects_evaluated = 0;
  int64_t switches_fired = 0;
  int64_t suppressed_min_ops = 0;
  int64_t suppressed_deadband = 0;
  int64_t suppressed_dwell = 0;
  int64_t suppressed_tokens = 0;
  int64_t suppressed_busy = 0;  // Object's previous transition still in flight.
};

// The pure §4.6 decision: given windowed read/write estimates and the boundary read ratio,
// returns the protocol the object should run, or nullopt when the evidence is too thin
// (< min_ops) or the ratio lies inside the deadband. Exposed standalone so the drift bench
// and property tests exercise exactly the shipped decision rule.
std::optional<ProtocolKind> AdvisorDecision(int64_t reads, int64_t writes, double boundary,
                                            double margin, int64_t min_ops);

class OnlineAdvisor {
 public:
  // `runtime` must be in advisor mode (HM_CHECKed); `switcher` executes the transitions.
  OnlineAdvisor(SsfRuntime* runtime, SwitchManager* switcher, OnlineAdvisorConfig config);

  // Spawns the periodic loop on the cluster scheduler; runs until Stop().
  void Start();
  void Stop() { stopped_ = true; }

  // One tick: advance the sketch epoch if due, then examine the next slice of the keyspace.
  // Exposed for deterministic tests (and used by the loop).
  void RunOnce();

  const OnlineAdvisorStats& stats() const { return stats_; }
  double boundary() const { return boundary_; }

 private:
  sim::Task<void> Loop();
  sim::Task<void> DriveSwitch(sharedlog::TagId transition_tag, ProtocolKind target);

  // True if a switch token was available (and consumed) at simulated time `now`.
  bool TakeToken(SimTime now);

  SsfRuntime* runtime_;
  SwitchManager* switcher_;
  OnlineAdvisorConfig config_;
  double boundary_;  // RuntimeBoundaryReadRatio(config_.profile), fixed at construction.
  bool stopped_ = false;

  size_t cursor_ = 0;          // Next dense TagId to examine.
  SimTime last_epoch_at_ = 0;  // Last sketch-epoch rotation.
  double tokens_;              // Token bucket; starts full.
  SimTime last_refill_at_ = 0;
  // Last switch fired per transition tag (dwell enforcement). Grows with the number of
  // objects that actually switched, not with the keyspace.
  std::unordered_map<sharedlog::TagId, SimTime> last_switch_;

  OnlineAdvisorStats stats_;
};

}  // namespace halfmoon::core

#endif  // HALFMOON_CORE_ONLINE_ADVISOR_H_
