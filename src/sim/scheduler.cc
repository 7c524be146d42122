#include "src/sim/scheduler.h"

#include <cstdio>
#include <cstdlib>

namespace halfmoon::sim {
namespace {

// A self-destructing root coroutine used to anchor detached tasks. Its frame comes from the
// frame pool and is destroyed automatically at final_suspend (suspend_never), after the
// awaited task has completed and been destroyed with it. The promise unlinks itself from its
// scheduler's list in its destructor, which runs both on natural completion and on explicit
// destroy.
struct Detached {
  struct promise_type : internal::PooledFrame, internal::DetachedHook {
    ~promise_type() { Unlink(); }

    Detached get_return_object() {
      return Detached{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept {
      std::fprintf(stderr, "fatal: exception escaped a detached sim task\n");
      std::abort();
    }
  };

  std::coroutine_handle<promise_type> handle;
};

Detached RunDetached(Task<void> task) { co_await std::move(task); }

}  // namespace

void Scheduler::Spawn(Task<void> task) {
  Detached detached = RunDetached(std::move(task));
  detached.handle.promise().LinkAfter(&detached_);
  PostResume(0, detached.handle);
}

Scheduler::~Scheduler() {
  // Each destroy unlinks its root, so the list's first entry is always the next live one.
  // Pending queue events may hold handles into the destroyed chains; they are never fired,
  // only dropped.
  while (detached_.next != &detached_) {
    auto* root = static_cast<Detached::promise_type*>(detached_.next);
    std::coroutine_handle<Detached::promise_type>::from_promise(*root).destroy();
  }
}

}  // namespace halfmoon::sim
