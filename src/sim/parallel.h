// Conservative-time parallel simulation: one event loop per worker, on a real OS thread.
//
// A ParallelEngine owns W sim::Schedulers and runs them on W threads. Correctness follows the
// classic conservative (Chandy–Misra/YAWNS-style windowed) discipline, phrased here as the
// shared-watermark rule of DESIGN.md §10: a worker may only advance its local virtual clock
// past a time T once every peer has published a lower bound >= T on the timestamps it can
// still produce. The engine runs in barrier-delimited rounds:
//
//   1. Every worker publishes the time of its earliest pending event (its lower bound).
//   2. The round's watermark m is the global minimum; the safe window is [m, m + lookahead).
//      Because every cross-worker message is delayed by at least `lookahead` (enforced by
//      Send), no event fired inside the window — on any worker — can produce a message with
//      a timestamp inside the window. Workers therefore execute their window events with no
//      interleaved communication at all.
//   3. At the window barrier, outgoing messages are routed to their destination workers,
//      which merge them into their event queues in (time, sender, send-seq) order before
//      publishing the next lower bound.
//
// Determinism: every quantity that shapes execution — the published bounds, the watermark,
// the window contents, the message sets, and the merge order — is a pure function of the
// simulation state, never of OS thread timing. A parallel run is bit-reproducible: same
// events, same order, same virtual timestamps on every run and on any machine. (This is
// stronger than the content-determinism the tests pin, and it is what makes parallel-mode
// failures replayable.)
//
// Threading contract: scheduler(w) and all simulation state reachable from it belong to
// worker w's thread while Run() is in flight. The main thread may touch any scheduler before
// Run() (to spawn load) and after Run() returns (to harvest results); the thread fork/join
// and the barriers provide the happens-before edges. Send() is the ONLY cross-worker channel
// and may be called solely from the sending worker's own window (or from the main thread
// before Run()).

#ifndef HALFMOON_SIM_PARALLEL_H_
#define HALFMOON_SIM_PARALLEL_H_

#include <barrier>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/sim/scheduler.h"

namespace halfmoon::sim {

class ParallelEngine {
 public:
  // `lookahead` is the minimum virtual latency of any cross-worker interaction (see
  // latency_model.h: kMinCrossShardLatencyMs). Larger lookahead = wider windows = fewer
  // barriers per virtual second; it must never exceed the real minimum cross-worker delay.
  ParallelEngine(int workers, SimDuration lookahead,
                 QueueMode mode = QueueMode::kTimerWheel);
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  int workers() const { return static_cast<int>(workers_.size()); }
  SimDuration lookahead() const { return lookahead_; }
  Scheduler& scheduler(int w) { return workers_[static_cast<size_t>(w)]->sched; }

  // Schedules `fn` on worker `to`'s loop at scheduler(from).Now() + delay. The delay must be
  // >= lookahead — the conservative protocol is unsound otherwise, so this is a hard check,
  // and callers clamp sampled latencies up to the floor (see ClampCrossShard).
  // A self-send (to == from) goes straight into the local queue; a cross send is buffered
  // and delivered at the next window barrier, merged deterministically.
  template <typename F>
  void Send(int from, int to, SimDuration delay, F&& fn) {
    HM_CHECK(delay >= lookahead_);
    Worker& src = *workers_[static_cast<size_t>(from)];
    SimTime time = src.sched.Now() + delay;
    if (to == from) {
      src.sched.PostAt(time, std::forward<F>(fn));
      return;
    }
    src.outbox.push_back(CrossMsg{time, from, to, src.send_seq++,
                                  InlineCallback(std::forward<F>(fn))});
  }

  // Runs every worker to global drain (all queues empty, no message in flight) and returns
  // the largest virtual end time across workers. Spawns workers() OS threads; call at most
  // once. With a single worker the engine degenerates to Scheduler::Run() exactly: same
  // events, same (time, seq) order, no thread is spawned.
  SimTime Run();

  // Synchronization rounds executed and cross-worker messages routed (bench accounting).
  uint64_t windows() const { return windows_; }
  uint64_t messages_routed() const { return messages_routed_; }

  // Events fired across all workers (the wall-clock throughput numerator).
  uint64_t TotalEventsProcessed() const;

 private:
  // A cross-worker event: `fn` runs on worker `to` at virtual time `time`. (from, seq) make
  // the barrier merge a total order, so delivery is deterministic run to run.
  struct CrossMsg {
    SimTime time;
    int from;
    int to;
    uint64_t seq;
    InlineCallback fn;
  };

  struct Worker {
    explicit Worker(QueueMode mode) : sched(mode) {}

    Scheduler sched;
    std::vector<CrossMsg> outbox;  // Filled by the owner during its window.
    std::vector<CrossMsg> staged;  // Routed at the barrier; drained by the owner.
    SimTime next = Scheduler::kMaxSimTime;  // Published lower bound.
    uint64_t send_seq = 0;
  };

  void WorkerLoop(int w);
  // Barrier completions; each runs on exactly one thread while all workers are parked.
  void ComputeWindow();   // Publishes watermark + horizon, detects global drain.
  void RouteMessages();   // Moves every outbox message to its destination's staging area.
  void DeliverStaged(Worker& worker);

  SimDuration lookahead_;
  std::vector<std::unique_ptr<Worker>> workers_;
  SimTime horizon_ = 0;
  bool done_ = false;
  bool ran_ = false;
  uint64_t windows_ = 0;
  uint64_t messages_routed_ = 0;

  // Two phase barriers per round: bounds -> window. Completions run engine phase logic.
  struct BoundsPhase {
    ParallelEngine* engine;
    void operator()() noexcept { engine->ComputeWindow(); }
  };
  struct WindowPhase {
    ParallelEngine* engine;
    void operator()() noexcept { engine->RouteMessages(); }
  };
  std::barrier<BoundsPhase> bounds_barrier_;
  std::barrier<WindowPhase> window_barrier_;
};

}  // namespace halfmoon::sim

#endif  // HALFMOON_SIM_PARALLEL_H_
