// Task<T>: the coroutine type every simulated activity is written in.
//
// Tasks are lazy (they start when first awaited) and use symmetric transfer so that deep
// call chains of `co_await` neither recurse on the stack nor bounce through the scheduler.
// A Task owns its coroutine frame; awaiting a task transfers control into it and resumes the
// awaiter when the task completes. Exceptions thrown inside a task propagate to the awaiter,
// which is how injected SSF crashes unwind through protocol code back to the runtime.
//
// Coroutine frames come from per-thread free lists (FramePool below, DESIGN.md §7.7): every
// simulated operation creates and destroys a handful of frames, and a frame freed by one task
// is the next task's frame of the same size class, so steady-state invocations cost no heap
// round-trip for their frames.

#ifndef HALFMOON_SIM_TASK_H_
#define HALFMOON_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/common/check.h"

namespace halfmoon::sim {

template <typename T>
class Task;

namespace internal {

// Per-thread free lists of coroutine frames in 64 B size classes up to 1 KiB. A freed frame
// goes to the head of its class's list and serves the next frame of that class; larger frames
// use global new and delete. Pooled frames are never handed back to the heap: each class
// keeps its high-water mark of live frames.
//
// There is no knob. Under AddressSanitizer (detected at compile time) every frame uses global
// new, so use-after-free and leaks of frames stay visible to the checker. Refills call
// ::operator new, so a replaced global operator new (an allocation counter) sees them.
class FramePool {
 public:
  static constexpr size_t kClassBytes = 64;
  static constexpr size_t kMaxPooledBytes = 1024;
  static constexpr size_t kClasses = kMaxPooledBytes / kClassBytes;
#if defined(__SANITIZE_ADDRESS__)
  static constexpr bool kEnabled = false;
#else
  static constexpr bool kEnabled = true;
#endif

  static void* Allocate(size_t size) {
    if constexpr (kEnabled) {
      if (size != 0 && size <= kMaxPooledBytes) {
        const size_t c = ClassOf(size);
        if (Node* node = heads_[c]; node != nullptr) {
          heads_[c] = node->next;
          return node;
        }
        return ::operator new((c + 1) * kClassBytes);
      }
    }
    return ::operator new(size);
  }

  static void Free(void* frame, size_t size) noexcept {
    if constexpr (kEnabled) {
      if (size != 0 && size <= kMaxPooledBytes) {
        const size_t c = ClassOf(size);
        heads_[c] = new (frame) Node{heads_[c]};
        return;
      }
    }
    ::operator delete(frame, size);
  }

  // Frames parked on this thread's free list for frames of `size` bytes; 0 for sizes the
  // pool does not serve. Walks the list: for tests and diagnostics, not the hot path.
  static size_t FreeFrames(size_t size) {
    if (!kEnabled || size == 0 || size > kMaxPooledBytes) return 0;
    size_t n = 0;
    for (const Node* node = heads_[ClassOf(size)]; node != nullptr; node = node->next) ++n;
    return n;
  }

 private:
  struct Node {
    Node* next;
  };

  static size_t ClassOf(size_t size) { return (size - 1) / kClassBytes; }

  // Trivially destructible, so a frame freed during static or thread teardown still finds
  // a valid list to join.
  static constinit inline thread_local Node* heads_[kClasses] = {};
};

// Gives a promise type's coroutine frames to FramePool.
struct PooledFrame {
  static void* operator new(size_t size) { return FramePool::Allocate(size); }
  static void operator delete(void* frame, size_t size) noexcept {
    FramePool::Free(frame, size);
  }
};

// Transfers control back to the awaiting coroutine (if any) when a task finishes.
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> handle) noexcept {
    std::coroutine_handle<> continuation = handle.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct TaskPromise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace internal

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = internal::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle handle) : handle_(handle) {}

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }

  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  struct Awaiter {
    Handle handle;

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
      handle.promise().continuation = awaiting;
      return handle;  // Symmetric transfer: start (or resume into) the task.
    }

    T await_resume() {
      auto& promise = handle.promise();
      if (promise.exception) {
        std::rethrow_exception(promise.exception);
      }
      if constexpr (!std::is_void_v<T>) {
        HM_CHECK_MSG(promise.value.has_value(), "Task finished without a value");
        return std::move(*promise.value);
      }
    }
  };

  // Tasks are single-shot: awaiting consumes the result.
  Awaiter operator co_await() && {
    HM_CHECK_MSG(handle_, "co_await on an empty Task");
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

namespace internal {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace internal

}  // namespace halfmoon::sim

#endif  // HALFMOON_SIM_TASK_H_
