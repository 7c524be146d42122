// The discrete-event scheduler: a virtual clock plus a time-ordered event queue.
//
// Exactly one coroutine runs at any moment; everything that "blocks" (delays, I/O latencies,
// semaphores, events) suspends the coroutine and registers a wake-up in the queue. Ties in
// time are broken by insertion order, which makes whole simulations deterministic for a fixed
// RNG seed.
//
// The queue is the hottest loop of the whole simulator, so events never touch the heap: an
// event is either a raw coroutine handle (PostResume, the dominant case — every Delay and
// station hop) or a small callable stored inline in the event itself (Post). Callables larger
// than the inline buffer fail to compile; shrink the capture list or move the state behind a
// pointer instead of regressing the hot loop with type-erased heap allocations.
//
// Spawn allocates nothing either once warm: the root frame of a detached task comes from the
// coroutine frame pool (task.h), and the Scheduler tracks live detached tasks through an
// intrusive list threaded through their root promises (DetachedHook), not a hash set.
//
// Two queue implementations share the same observable contract (see QueueMode):
//   * kTimerWheel (default) — a hierarchical timer wheel: O(1) schedule, amortized O(1)
//     dispatch. Five levels of 64 slots each; level L slots are 2^(13+6L) ns wide, so the
//     wheel spans ~2.4 h of virtual time and a far-future overflow heap catches the rest.
//     The wheel never ticks through empty slots: per-level occupancy bitmaps jump straight
//     to the next occupied slot, and virtual time advances only when an event fires.
//   * kPriorityQueue — the pre-wheel binary heap (O(log n) per event). Kept as the reference
//     implementation: equivalence tests replay identical event storms through both modes and
//     require bit-identical firing orders, and the hot-path bench uses it as the baseline.

#ifndef HALFMOON_SIM_SCHEDULER_H_
#define HALFMOON_SIM_SCHEDULER_H_

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/sim/task.h"

namespace halfmoon::sim {

// A move-only type-erased callable with fixed inline storage and no heap fallback.
class InlineCallback {
 public:
  static constexpr size_t kInlineSize = 48;

  InlineCallback() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineSize,
                  "scheduler callback exceeds the inline event buffer; shrink its captures");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "scheduler callback is over-aligned for the inline event buffer");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "scheduler callbacks must be nothrow-movable (the event queue relocates)");
    new (storage_) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::value;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  ~InlineCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct OpsFor {
    static void Invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops value{&Invoke, &Relocate, &Destroy};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

namespace internal {

// Links a live detached task's root promise into its Scheduler's list. The Scheduler's own
// hook is the list's sentinel, so linking and unlinking touch no heap and need no owner
// pointer. A hook starts (and ends) linked to itself.
struct DetachedHook {
  DetachedHook* prev = this;
  DetachedHook* next = this;

  DetachedHook() = default;
  DetachedHook(const DetachedHook&) = delete;
  DetachedHook& operator=(const DetachedHook&) = delete;

  void LinkAfter(DetachedHook* head) {
    prev = head;
    next = head->next;
    next->prev = this;
    head->next = this;
  }
  void Unlink() {
    prev->next = next;
    next->prev = prev;
    prev = next = this;
  }
};

}  // namespace internal

// Which event-queue implementation a Scheduler runs on. Both honor the same contract:
// events fire in (time, insertion-seq) order, so same-seed simulations are bit-identical
// across modes.
enum class QueueMode {
  kTimerWheel,     // Hierarchical timer wheel (default, the fast path).
  kPriorityQueue,  // Binary-heap reference implementation (equivalence tests, baselines).
};

class Scheduler {
 public:
  explicit Scheduler(QueueMode mode = QueueMode::kTimerWheel) : mode_(mode) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Destroys any detached task chains still suspended (periodic loops parked on a Delay
  // when the simulation ends would otherwise leak their coroutine frames).
  ~Scheduler();

  QueueMode mode() const { return mode_; }

  SimTime Now() const { return now_; }

  // Registers `fn` to run at Now() + delay. The callable is stored inline in the event.
  template <typename F>
  void Post(SimDuration delay, F&& fn) {
    HM_CHECK(delay >= 0);
    Enqueue(Event{now_ + delay, next_seq_++, {}, InlineCallback(std::forward<F>(fn))});
  }

  // Schedules a coroutine resume at Now() + delay. Stores the raw handle — no callable, no
  // type erasure, no allocation.
  void PostResume(SimDuration delay, std::coroutine_handle<> handle) {
    HM_CHECK(delay >= 0);
    Enqueue(Event{now_ + delay, next_seq_++, handle, {}});
  }

  // Registers `fn` at an absolute virtual time (tests schedule faults at fixed instants this
  // way). `time` must not lie in the past; it may land inside the currently staged slot,
  // where the event is filed in (time, seq) position like any other enqueue.
  template <typename F>
  void PostAt(SimTime time, F&& fn) {
    HM_CHECK(time >= now_);
    Enqueue(Event{time, next_seq_++, {}, InlineCallback(std::forward<F>(fn))});
  }

  // Runs events until the queue drains. Returns the final simulated time.
  SimTime Run() {
    while (PrepareNext(std::numeric_limits<SimTime>::max())) {
      FireNext();
    }
    return now_;
  }

  // Runs events with time <= deadline; the clock ends at min(deadline, drain time).
  // Events scheduled beyond the deadline stay queued.
  SimTime RunUntil(SimTime deadline) {
    while (PrepareNext(deadline)) {
      FireNext();
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
    return now_;
  }

  bool empty() const {
    return mode_ == QueueMode::kPriorityQueue ? queue_.empty() : size_ == 0;
  }
  size_t pending_events() const {
    return mode_ == QueueMode::kPriorityQueue ? queue_.size() : size_;
  }

  // Total events fired since construction (throughput accounting for the hot-path bench).
  uint64_t events_processed() const { return events_processed_; }

  // Awaitable virtual-time sleep: `co_await scheduler.Delay(Milliseconds(2));`
  struct DelayAwaiter {
    Scheduler* scheduler;
    SimDuration delay;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      scheduler->PostResume(delay, handle);
    }
    void await_resume() const noexcept {}
  };

  DelayAwaiter Delay(SimDuration d) { return DelayAwaiter{this, d}; }

  // Starts a fire-and-forget task at the current time. The coroutine frame self-destructs on
  // completion; an exception escaping a detached task aborts the simulation (detached work
  // must handle its own failures — SSF crashes are caught by the runtime, never here).
  void Spawn(Task<void> task);

 private:
  // Wheel geometry. Level L covers slots of 2^(kSlotShift + L*kLevelBits) ns; the top level's
  // "lap" (64 top slots) spans 2^(kSlotShift + kLevels*kLevelBits) ns ≈ 2.4 h. Events beyond
  // the current top lap wait in the overflow heap.
  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;
  static constexpr uint64_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr int kLevels = 5;
  static constexpr int kSlotShift = 13;  // Level-0 slot width: 8.2 µs.
  static constexpr int Shift(int level) { return kSlotShift + level * kLevelBits; }

  // Two-variant event: a coroutine resume (handle set) or an inline callable (fn set).
  struct Event {
    SimTime time;
    uint64_t seq;
    std::coroutine_handle<> handle;
    InlineCallback fn;

    void Fire() {
      if (handle) {
        handle.resume();
      } else {
        fn();
      }
    }

    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void Enqueue(Event&& event) {
    if (mode_ == QueueMode::kPriorityQueue) {
      queue_.push(std::move(event));
      return;
    }
    ++size_;
    Place(std::move(event));
  }

  // Files an event into the active run, a wheel slot, or the overflow heap. An event belongs
  // at the lowest level whose parent slot (the level-above slot containing `slot_base_`) also
  // contains the event's time: this "no wrap past the lap boundary" rule keeps every level's
  // events strictly later than all lower-level events, so dispatch can drain levels in order.
  void Place(Event&& event) {
    if (run_pos_ < run_.size() && event.time < run_slot_end_) {
      // The event lands inside the slot currently being fired. Its seq is larger than every
      // queued peer's, so ordering by time alone puts it exactly where (time, seq) would.
      auto it = std::upper_bound(
          run_.begin() + static_cast<ptrdiff_t>(run_pos_), run_.end(), event.time,
          [](SimTime t, const Event& e) { return t < e.time; });
      run_.insert(it, std::move(event));
      return;
    }
    for (int level = 0; level < kLevels; ++level) {
      int parent_shift = Shift(level + 1);
      if ((event.time >> parent_shift) == (slot_base_ >> parent_shift)) {
        size_t idx = (static_cast<uint64_t>(event.time) >> Shift(level)) & kSlotMask;
        occupied_[level] |= uint64_t{1} << idx;
        slots_[static_cast<size_t>(level) * kSlotsPerLevel + idx].push_back(std::move(event));
        return;
      }
    }
    overflow_.push(std::move(event));
  }

  // Advances the wheel until the next event to fire sits at run_[run_pos_], without firing
  // anything. Returns false if the queue is empty or the next event is past `bound`; never
  // moves slot_base_ past `bound`, so events enqueued after an early return still satisfy
  // time >= slot_base_.
  bool PrepareNext(SimTime bound) {
    if (mode_ == QueueMode::kPriorityQueue) {
      return !queue_.empty() && queue_.top().time <= bound;
    }
    while (true) {
      if (run_pos_ < run_.size()) return run_[run_pos_].time <= bound;
      if (run_pos_ != 0) {
        run_.clear();
        run_pos_ = 0;
      }
      if (size_ == 0) return false;
      if (occupied_[0] != 0) {
        // Materialize the nearest occupied level-0 slot as the next run, sorted by
        // (time, seq) to honor the FIFO tie-break exactly as the reference heap does.
        uint64_t cur = (static_cast<uint64_t>(slot_base_) >> kSlotShift) & kSlotMask;
        int k = std::countr_zero(std::rotr(occupied_[0], static_cast<int>(cur)));
        SimTime start = slot_base_ + (static_cast<SimTime>(k) << kSlotShift);
        if (start > bound) return false;
        size_t idx = (cur + static_cast<uint64_t>(k)) & kSlotMask;
        occupied_[0] &= ~(uint64_t{1} << idx);
        slot_base_ = start;
        run_slot_end_ = start + (SimTime{1} << kSlotShift);
        std::swap(run_, slots_[idx]);
        std::sort(run_.begin(), run_.end(), [](const Event& a, const Event& b) {
          if (a.time != b.time) return a.time < b.time;
          return a.seq < b.seq;
        });
        continue;
      }
      bool cascaded = false;
      for (int level = 1; level < kLevels; ++level) {
        if (occupied_[level] == 0) continue;
        // All lower levels are empty, so the earliest pending event is in this level's
        // nearest occupied slot: jump straight to it and redistribute downwards.
        int shift = Shift(level);
        uint64_t cur = (static_cast<uint64_t>(slot_base_) >> shift) & kSlotMask;
        int k = std::countr_zero(std::rotr(occupied_[level], static_cast<int>(cur)));
        HM_CHECK(k > 0);  // The current slot was drained when slot_base_ entered it.
        SimTime start = ((slot_base_ >> shift) + k) << shift;
        if (start > bound) return false;
        size_t idx = (cur + static_cast<uint64_t>(k)) & kSlotMask;
        occupied_[level] &= ~(uint64_t{1} << idx);
        slot_base_ = start;
        std::vector<Event>& slot = slots_[static_cast<size_t>(level) * kSlotsPerLevel + idx];
        for (Event& e : slot) Place(std::move(e));
        slot.clear();
        cascaded = true;
        break;
      }
      if (cascaded) continue;
      HM_CHECK(!overflow_.empty());
      if (overflow_.top().time > bound) return false;
      // The whole wheel is empty: jump to the overflow minimum's lap and pull in every
      // overflow event that now fits inside the wheel horizon.
      slot_base_ = (overflow_.top().time >> kSlotShift) << kSlotShift;
      while (!overflow_.empty() &&
             (overflow_.top().time >> Shift(kLevels)) == (slot_base_ >> Shift(kLevels))) {
        Event e = std::move(const_cast<Event&>(overflow_.top()));
        overflow_.pop();
        Place(std::move(e));
      }
    }
  }

  // Fires the event staged by PrepareNext (wheel) or sitting at the heap top (reference).
  void FireNext() {
    Event event = [this] {
      if (mode_ == QueueMode::kPriorityQueue) {
        // Moving out of the top of a priority_queue requires a const_cast; the element is
        // popped immediately afterwards so the broken ordering invariant is never observed.
        Event e = std::move(const_cast<Event&>(queue_.top()));
        queue_.pop();
        return e;
      }
      --size_;
      return std::move(run_[run_pos_++]);
    }();
    HM_CHECK(event.time >= now_);
    now_ = event.time;
    ++events_processed_;
    event.Fire();
  }

  QueueMode mode_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;

  // Timer-wheel state. `slot_base_` is the (level-0-aligned) start of the slot the wheel has
  // advanced to; every queued event satisfies time >= slot_base_. `run_` holds the events of
  // the slot being fired, sorted by (time, seq), with run_pos_ marking the next to fire.
  SimTime slot_base_ = 0;
  SimTime run_slot_end_ = 0;
  size_t run_pos_ = 0;
  size_t size_ = 0;
  std::vector<Event> run_;
  std::array<std::vector<Event>, static_cast<size_t>(kLevels) * kSlotsPerLevel> slots_;
  std::array<uint64_t, kLevels> occupied_{};
  std::priority_queue<Event, std::vector<Event>, std::greater<>> overflow_;

  // Reference-mode state (kPriorityQueue only).
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;

  // Sentinel of the list of live detached tasks' root promises. A root that completes
  // unlinks itself; roots still linked at destruction are suspended mid-loop and are
  // destroyed by ~Scheduler, which tears down the whole await chain (each co_await operand
  // lives in its awaiter's frame).
  internal::DetachedHook detached_;
};

}  // namespace halfmoon::sim

#endif  // HALFMOON_SIM_SCHEDULER_H_
