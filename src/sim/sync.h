// Synchronization primitives for simulated coroutines: Event, Semaphore, WaitGroup, and
// JoinHandle (await the result of a concurrently spawned task).
//
// All wake-ups go through the scheduler queue (never inline resumes), which keeps the
// "one coroutine at a time" discipline and makes wake ordering FIFO and deterministic.

#ifndef HALFMOON_SIM_SYNC_H_
#define HALFMOON_SIM_SYNC_H_

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"

namespace halfmoon::sim {

// A manual-reset event. Awaiting a set event completes immediately; Set() wakes all waiters.
class Event {
 public:
  explicit Event(Scheduler* scheduler) : scheduler_(scheduler) {}

  void Set() {
    set_ = true;
    for (std::coroutine_handle<> waiter : waiters_) {
      scheduler_->PostResume(0, waiter);
    }
    waiters_.clear();
  }

  void Reset() { set_ = false; }

  struct Awaiter {
    Event* event;
    bool await_ready() const noexcept { return event->set_; }
    void await_suspend(std::coroutine_handle<> handle) { event->waiters_.push_back(handle); }
    void await_resume() const noexcept {}
  };

  Awaiter operator co_await() { return Awaiter{this}; }

 private:
  Scheduler* scheduler_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// A counting semaphore with FIFO wake-up, used to model bounded executor slots.
class Semaphore {
 public:
  Semaphore(Scheduler* scheduler, int64_t permits)
      : scheduler_(scheduler), permits_(permits) {
    HM_CHECK(permits >= 0);
  }

  struct AcquireAwaiter {
    Semaphore* semaphore;
    bool await_ready() const noexcept {
      if (semaphore->permits_ > 0) {
        --semaphore->permits_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      semaphore->waiters_.push_back(handle);
    }
    void await_resume() const noexcept {}
  };

  AcquireAwaiter Acquire() { return AcquireAwaiter{this}; }

  void Release() {
    if (!waiters_.empty()) {
      // Hand the permit directly to the oldest waiter.
      std::coroutine_handle<> waiter = waiters_.front();
      waiters_.pop_front();
      scheduler_->PostResume(0, waiter);
    } else {
      ++permits_;
    }
  }

  int64_t available() const { return permits_; }
  size_t queue_length() const { return waiters_.size(); }

 private:
  Scheduler* scheduler_;
  int64_t permits_;
  std::deque<std::coroutine_handle<>> waiters_;
};

// RAII permit holder for Semaphore.
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore* semaphore) : semaphore_(semaphore) {}
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  SemaphoreGuard(SemaphoreGuard&& other) noexcept
      : semaphore_(std::exchange(other.semaphore_, nullptr)) {}
  ~SemaphoreGuard() {
    if (semaphore_ != nullptr) semaphore_->Release();
  }

 private:
  Semaphore* semaphore_;
};

// Counts outstanding work items; Wait() suspends until the count returns to zero.
class WaitGroup {
 public:
  explicit WaitGroup(Scheduler* scheduler) : done_event_(scheduler) {
    done_event_.Set();  // Zero outstanding items initially.
  }

  void Add(int64_t n = 1) {
    HM_CHECK(n > 0);
    if (count_ == 0) done_event_.Reset();
    count_ += n;
  }

  void Done() {
    HM_CHECK(count_ > 0);
    if (--count_ == 0) done_event_.Set();
  }

  int64_t count() const { return count_; }

  Event::Awaiter Wait() { return done_event_.operator co_await(); }

 private:
  int64_t count_ = 0;
  Event done_event_;
};

// Shared completion state behind JoinHandle<T>.
namespace internal {

template <typename T>
struct JoinState {
  Scheduler* scheduler = nullptr;
  bool done = false;
  std::exception_ptr exception;
  std::optional<T> value;
  std::vector<std::coroutine_handle<>> waiters;

  void Finish() {
    done = true;
    for (std::coroutine_handle<> waiter : waiters) {
      scheduler->PostResume(0, waiter);
    }
    waiters.clear();
  }
};

template <>
struct JoinState<void> {
  Scheduler* scheduler = nullptr;
  bool done = false;
  std::exception_ptr exception;
  std::vector<std::coroutine_handle<>> waiters;

  void Finish() {
    done = true;
    for (std::coroutine_handle<> waiter : waiters) {
      scheduler->PostResume(0, waiter);
    }
    waiters.clear();
  }
};

}  // namespace internal

// Handle to a task spawned with SpawnJoinable. Awaiting it yields the task's result (moving it
// out — await at most once for non-void T) and rethrows any exception the task ended with.
template <typename T>
class JoinHandle {
 public:
  JoinHandle() = default;
  explicit JoinHandle(std::shared_ptr<internal::JoinState<T>> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ && state_->done; }

  struct Awaiter {
    internal::JoinState<T>* state;

    bool await_ready() const noexcept { return state->done; }
    void await_suspend(std::coroutine_handle<> handle) { state->waiters.push_back(handle); }
    T await_resume() {
      if (state->exception) std::rethrow_exception(state->exception);
      if constexpr (!std::is_void_v<T>) {
        HM_CHECK_MSG(state->value.has_value(), "JoinHandle awaited more than once");
        return std::move(*state->value);
      }
    }
  };

  Awaiter operator co_await() const {
    HM_CHECK_MSG(state_ != nullptr, "awaiting an empty JoinHandle");
    return Awaiter{state_.get()};
  }

 private:
  std::shared_ptr<internal::JoinState<T>> state_;
};

namespace internal {

template <typename T>
Task<void> RunJoinable(std::shared_ptr<JoinState<T>> state, Task<T> task) {
  try {
    if constexpr (std::is_void_v<T>) {
      co_await std::move(task);
    } else {
      state->value.emplace(co_await std::move(task));
    }
  } catch (...) {
    state->exception = std::current_exception();
  }
  state->Finish();
}

}  // namespace internal

// Spawns `task` concurrently and returns a handle that can be awaited for its result.
template <typename T>
JoinHandle<T> SpawnJoinable(Scheduler& scheduler, Task<T> task) {
  auto state = std::make_shared<internal::JoinState<T>>();
  state->scheduler = &scheduler;
  scheduler.Spawn(internal::RunJoinable<T>(state, std::move(task)));
  return JoinHandle<T>(std::move(state));
}

}  // namespace halfmoon::sim

#endif  // HALFMOON_SIM_SYNC_H_
