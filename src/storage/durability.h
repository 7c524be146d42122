// The durability service: a journaled block buffer with a background group-flusher and the
// write-ahead ordering contract the rest of the system builds on (DESIGN.md §13).
//
// Writers append journal frames (AppendFrame) and then either
//   * co_await WaitOffset/WaitSeq — the external-acknowledgement gate: an append's reply leg
//     or a KV mutation's reply leg only fires after the frame is flush-ordered, so every
//     externally-known seqnum/value is durable; or
//   * register WhenDurable callbacks — how the cluster gates index propagation, so remote
//     nodes only ever learn of durable seqnums.
//
// One flusher runs at a time: it snapshots the tail, pays one durable_flush latency sample,
// flushes everything up to the snapshot in one device write (natural group-flush — frames
// appended during the flush ride the next round), then resumes satisfied waiters and fires
// callbacks in order. Kill() models node loss: the volatile tail, the in-flight flush, all
// unsatisfied waiters (resumed with ok=false) and undelivered callbacks die; the device and
// the durable frontier survive for Replay.

#ifndef HALFMOON_STORAGE_DURABILITY_H_
#define HALFMOON_STORAGE_DURABILITY_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/storage/block_buffer.h"
#include "src/storage/block_device.h"
#include "src/storage/journal.h"

namespace halfmoon::storage {

class DurabilityService {
 public:
  struct Stats {
    int64_t frames = 0;             // Journal frames appended.
    int64_t appended_bytes = 0;     // Logical journal bytes (frame headers included).
    int64_t flushes = 0;            // Flush rounds completed.
    int64_t kills = 0;              // Kill() invocations.
    int64_t failed_waits = 0;       // Waiters resumed with ok=false by a kill.
    int64_t dropped_callbacks = 0;  // WhenDurable callbacks lost to a kill.
    int64_t durable_bytes_dropped = 0;  // Journal bytes released by TruncateTo compaction.
  };

  // The service draws flush latencies from its OWN derived RNG stream so that attaching it
  // (durable = true) never perturbs the sample sequence of the main simulation stream — and
  // durable = false, which simply never constructs one, stays bit-identical to the
  // pre-storage engine (the golden checksums pin this).
  DurabilityService(sim::Scheduler* scheduler, const LatencyModels* models, uint64_t seed)
      : scheduler_(scheduler),
        models_(models),
        rng_(seed ^ 0x9E3779B97F4A7C15ull),
        buffer_(&device_) {}
  DurabilityService(const DurabilityService&) = delete;
  DurabilityService& operator=(const DurabilityService&) = delete;

  // Appends one journal frame and kicks the flusher; returns the offset one past the frame —
  // the threshold its writer hands to WaitOffset.
  uint64_t AppendFrame(FrameType type, std::string_view payload);

  // Associates `seqnum` with the journal offset its record frame ends at. Commits happen in
  // append order, so both sequences are monotone (asserted).
  void NoteCommit(uint64_t seqnum, uint64_t end_offset);

  uint64_t durable_offset() const { return buffer_.durable(); }
  uint64_t tail_offset() const { return buffer_.tail(); }
  // Highest seqnum whose record frame is durable (0 = none yet).
  uint64_t durable_seq() const { return durable_seq_; }
  bool SeqDurable(uint64_t seqnum) const { return seqnum <= durable_seq_; }

  // Awaitable durability gate. Resumes with true once the threshold is durable, or false if a
  // kill destroyed the awaited bytes first. Registration is race-free as long as the awaiting
  // coroutine does not suspend between the mutation and the co_await (the call sites do not).
  struct Waiter {
    DurabilityService* svc = nullptr;
    uint64_t threshold = 0;
    bool by_seq = false;
    bool ok = true;
    Waiter* next = nullptr;
    std::coroutine_handle<> handle = nullptr;

    bool await_ready() const noexcept {
      if (svc == nullptr) return true;
      return by_seq ? svc->SeqDurable(threshold) : svc->durable_offset() >= threshold;
    }
    bool await_suspend(std::coroutine_handle<> h) {
      // Fail fast when the awaited bytes can never become durable: a kill between the
      // mutation and this registration wiped them (the threshold lies beyond every pending
      // commit / beyond the journal tail). Suspending would hang forever — or worse, resume
      // on an unrelated record that later reuses the rolled-back seqnum.
      if (svc->Lost(*this)) {
        ok = false;
        ++svc->stats_.failed_waits;
        return false;  // Resume immediately with ok=false.
      }
      handle = h;
      svc->AddWaiter(this);
      return true;
    }
    bool await_resume() const noexcept { return ok; }
  };

  Waiter WaitSeq(uint64_t seqnum) { return Waiter{this, seqnum, /*by_seq=*/true}; }
  Waiter WaitOffset(uint64_t offset) { return Waiter{this, offset, /*by_seq=*/false}; }

  // Kills so far: the epoch a record commits in. A seqnum alone cannot tell, after a
  // suspension, whether its record outlived a kill — replay hands the seqnums a kill rolled
  // back to new records — so a committer that suspends before waiting remembers the epoch.
  uint64_t epoch() const { return epoch_; }
  // WaitSeq for a record committed in `epoch`: resumes with false at once when a kill since
  // then struck before the record was durable.
  Waiter WaitCommitted(uint64_t seqnum, uint64_t epoch) {
    if (epoch != epoch_ && seqnum > kill_frontiers_[epoch]) {
      ++stats_.failed_waits;
      return Waiter{nullptr, seqnum, /*by_seq=*/true, /*ok=*/false};
    }
    return WaitSeq(seqnum);
  }

  // Runs `fn` once `seqnum` is durable — synchronously if it already is. Callers register in
  // commit order (asserted); a kill drops the callbacks of lost seqnums.
  void WhenDurable(uint64_t seqnum, std::function<void()> fn);

  // Simulated node loss. The device and the durable frontier survive; everything volatile —
  // journal tail, in-flight flush, waiters, callbacks, commit bookkeeping — dies.
  void Kill();

  // Compaction (DESIGN.md §14): releases the journal prefix below `offset`, a frame boundary
  // at or below the durable frontier. Only legal once a checkpoint manifest covering the
  // prefix is itself durable — recovery then replays [offset, durable) on top of the image.
  void TruncateTo(uint64_t offset) {
    HM_CHECK_MSG(offset <= buffer_.durable(), "journal truncation past the durable frontier");
    stats_.durable_bytes_dropped += static_cast<int64_t>(buffer_.TruncatePrefix(offset));
  }

  // First surviving journal offset (0 until the first truncation). Full replay is only
  // possible from here; recovery below it needs a checkpoint image.
  uint64_t retained_offset() const { return buffer_.retained(); }

  // Replays every whole frame of the surviving durable prefix in append order (restart
  // recovery). The `from` overload starts at a manifest's cut instead.
  void Replay(const std::function<void(FrameType, Cursor)>& fn) const {
    ReplayFrames(buffer_, buffer_.durable(), fn);
  }
  void Replay(uint64_t from, const std::function<void(FrameType, Cursor)>& fn) const {
    ReplayFrames(buffer_, from, buffer_.durable(), fn);
  }

  const Stats& stats() const { return stats_; }
  const BlockBuffer& buffer() const { return buffer_; }
  const BlockDevice& device() const { return device_; }
  // Write amplification so far: device bytes moved per logical journal byte.
  double WriteAmplification() const {
    if (stats_.appended_bytes == 0) return 0.0;
    return static_cast<double>(device_.stats().bytes_written) /
           static_cast<double>(stats_.appended_bytes);
  }

 private:
  friend struct Waiter;

  // True when `w`'s threshold was destroyed by a kill: no pending commit reaches the awaited
  // seqnum / the journal tail sits below the awaited offset. Monotone commit bookkeeping
  // makes this exact — a live threshold is always covered by pending_commits_ / the tail.
  bool Lost(const Waiter& w) const {
    if (w.by_seq) {
      return w.threshold > durable_seq_ &&
             (pending_commits_.empty() || pending_commits_.back().first < w.threshold);
    }
    return w.threshold > buffer_.tail();
  }

  void AddWaiter(Waiter* w);
  void MaybeStartFlush();
  sim::Task<void> FlushLoop(uint64_t epoch);
  // Advances durable_seq_ past flushed commits, resumes satisfied waiters (FIFO order) and
  // fires due callbacks.
  void AdvanceDurable();

  sim::Scheduler* scheduler_;
  const LatencyModels* models_;
  Rng rng_;
  BlockDevice device_;
  BlockBuffer buffer_;

  uint64_t epoch_ = 0;  // Bumped by Kill(); stale flushes see the mismatch and die.
  std::vector<uint64_t> kill_frontiers_;  // durable_seq_ at the kill that ended each epoch.
  bool flush_inflight_ = false;
  uint64_t durable_seq_ = 0;

  // (seqnum, end offset) of committed-but-not-yet-durable records; monotone in both fields.
  std::deque<std::pair<uint64_t, uint64_t>> pending_commits_;
  // WhenDurable registrations, monotone in seqnum.
  std::deque<std::pair<uint64_t, std::function<void()>>> callbacks_;
  // Intrusive FIFO of suspended waiters (they live in the awaiting coroutines' frames).
  Waiter* waiters_head_ = nullptr;
  Waiter* waiters_tail_ = nullptr;

  Stats stats_;
};

}  // namespace halfmoon::storage

#endif  // HALFMOON_STORAGE_DURABILITY_H_
