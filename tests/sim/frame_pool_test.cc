// The coroutine frame pool (task.h) and the Scheduler's intrusive list of detached tasks
// (scheduler.h).

#include <array>
#include <coroutine>
#include <cstddef>
#include <memory>

#include <gtest/gtest.h>

#include "src/sim/scheduler.h"
#include "src/sim/task.h"

namespace halfmoon::sim {
namespace {

using internal::FramePool;

constexpr size_t kClasses = FramePool::kClasses;

// Free frames per size class; class c serves frames of ((c * 64), (c + 1) * 64] bytes.
std::array<size_t, kClasses> FreeCounts() {
  std::array<size_t, kClasses> counts{};
  for (size_t c = 0; c < kClasses; ++c) {
    counts[c] = FramePool::FreeFrames((c + 1) * FramePool::kClassBytes);
  }
  return counts;
}

// Yields the address of the awaiting coroutine's frame without suspending.
struct FrameAddress {
  void* address = nullptr;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> handle) noexcept {
    address = handle.address();
    return false;
  }
  void* await_resume() const noexcept { return address; }
};

Task<void> RecordFrame(void** out) { *out = co_await FrameAddress{}; }

// Frames with a buffer that lives across a suspension point, so the buffer is in the frame.
template <size_t N>
Task<void> BufferedFrame(void** out) {
  std::array<char, N> buffer{};
  buffer[N - 1] = 1;
  *out = co_await FrameAddress{};
  buffer[0] = buffer[N - 1];
  if (buffer[0] != 1) *out = nullptr;
}

// Frame sizes are the compiler's choice, so a test learns which size class a coroutine's
// frame belongs to by watching which free list its frame joins when an unstarted task is
// destroyed. Returns that class's largest frame size, or 0 if no list grew (unpooled).
template <typename MakeTask>
size_t PooledBytesOf(MakeTask make) {
  auto task = make();
  std::array<size_t, kClasses> during = FreeCounts();
  task = {};  // Destroys the unstarted frame.
  std::array<size_t, kClasses> after = FreeCounts();
  size_t bytes = 0;
  for (size_t c = 0; c < kClasses; ++c) {
    if (after[c] == during[c] + 1) {
      EXPECT_EQ(bytes, 0u) << "one destroyed frame joined two lists";
      bytes = (c + 1) * FramePool::kClassBytes;
    } else {
      EXPECT_EQ(after[c], during[c]) << "class " << c;
    }
  }
  return bytes;
}

TEST(FramePoolTest, FreedFrameServesTheNextFrameOfItsClassOnly) {
  if (!FramePool::kEnabled) GTEST_SKIP() << "frames use global new under AddressSanitizer";
  void* freed = FramePool::Allocate(100);  // Class (64, 128].
  FramePool::Free(freed, 100);
  void* smaller = FramePool::Allocate(64);    // Class (0, 64].
  void* larger = FramePool::Allocate(129);    // Class (128, 192].
  EXPECT_NE(smaller, freed);
  EXPECT_NE(larger, freed);
  void* same_class = FramePool::Allocate(128);
  EXPECT_EQ(same_class, freed);
  FramePool::Free(same_class, 128);
  FramePool::Free(larger, 129);
  FramePool::Free(smaller, 64);
}

TEST(FramePoolTest, CoroutineFramesAreReusedWithinTheirSizeClass) {
  if (!FramePool::kEnabled) GTEST_SKIP() << "frames use global new under AddressSanitizer";
  void* unused = nullptr;
  const size_t small = PooledBytesOf([&] { return RecordFrame(&unused); });
  const size_t large = PooledBytesOf([&] { return BufferedFrame<600>(&unused); });
  ASSERT_NE(small, 0u);
  ASSERT_NE(large, 0u);
  ASSERT_NE(small, large);

  // Park a known block at the head of the small class: the next small frame must take it.
  void* block = FramePool::Allocate(small);
  FramePool::Free(block, small);
  // A frame of another class leaves it where it is...
  const size_t before = FramePool::FreeFrames(small);
  Task<void> other = BufferedFrame<600>(&unused);
  EXPECT_EQ(FramePool::FreeFrames(small), before);
  // ...and the next frame of its own class gets exactly that block.
  void* frame = nullptr;
  Scheduler scheduler;
  scheduler.Spawn(RecordFrame(&frame));
  scheduler.Run();
  EXPECT_EQ(frame, block);
}

TEST(FramePoolTest, FramesLargerThanOneKibBypassThePool) {
  if (!FramePool::kEnabled) GTEST_SKIP() << "frames use global new under AddressSanitizer";
  void* unused = nullptr;
  EXPECT_EQ(PooledBytesOf([&] { return BufferedFrame<4096>(&unused); }), 0u);

  // The boundary, through the allocation API itself.
  std::array<size_t, kClasses> before = FreeCounts();
  FramePool::Free(FramePool::Allocate(FramePool::kMaxPooledBytes + 1),
                  FramePool::kMaxPooledBytes + 1);
  EXPECT_EQ(FreeCounts(), before);
  void* top = FramePool::Allocate(FramePool::kMaxPooledBytes);
  const size_t parked = FramePool::FreeFrames(FramePool::kMaxPooledBytes);
  FramePool::Free(top, FramePool::kMaxPooledBytes);
  EXPECT_EQ(FramePool::FreeFrames(FramePool::kMaxPooledBytes), parked + 1);
}

TEST(FramePoolTest, TaskDestroyedBeforeItRanReturnsItsFrame) {
  if (!FramePool::kEnabled) GTEST_SKIP() << "frames use global new under AddressSanitizer";
  void* unused = nullptr;
  EXPECT_NE(PooledBytesOf([&] { return RecordFrame(&unused); }), 0u);
}

// Counts its own destruction into the owning scheduler's tally.
struct Tally {
  int* destroyed;
  explicit Tally(int* d) : destroyed(d) {}
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;
  ~Tally() { ++*destroyed; }
};

Task<void> ParkFor(Scheduler* scheduler, SimDuration delay, int* destroyed) {
  Tally tally(destroyed);
  co_await scheduler->Delay(delay);
}

TEST(DetachedRegistryTest, EachSchedulerDestroysExactlyItsOwnSuspendedTasks) {
  auto a = std::make_unique<Scheduler>();
  auto b = std::make_unique<Scheduler>();
  int destroyed_a = 0;
  int destroyed_b = 0;
  // Interleaved spawns, so the two lists' roots sit side by side in the pool's blocks. Every
  // third task finishes early and unlinks itself from the middle of its list.
  for (int i = 0; i < 12; ++i) {
    const SimDuration delay = i % 3 == 0 ? Milliseconds(1) : Seconds(3600);
    a->Spawn(ParkFor(a.get(), delay, &destroyed_a));
    b->Spawn(ParkFor(b.get(), delay, &destroyed_b));
  }
  a->RunUntil(Seconds(1));
  b->RunUntil(Seconds(1));
  EXPECT_EQ(destroyed_a, 4);  // The finished ones.
  EXPECT_EQ(destroyed_b, 4);

  a.reset();
  EXPECT_EQ(destroyed_a, 12);
  EXPECT_EQ(destroyed_b, 4);  // B's parked tasks are untouched...
  b->RunUntil(Seconds(2));    // ...and B still runs.
  b->Spawn(ParkFor(b.get(), Seconds(3600), &destroyed_b));
  b->RunUntil(Seconds(3));
  EXPECT_EQ(destroyed_b, 4);
  b.reset();
  EXPECT_EQ(destroyed_b, 13);
}

TEST(DetachedRegistryTest, CompletedTasksLeaveNothingForTheDestructor) {
  int destroyed = 0;
  {
    Scheduler scheduler;
    for (int i = 0; i < 5; ++i) {
      scheduler.Spawn(ParkFor(&scheduler, Milliseconds(i), &destroyed));
    }
    scheduler.Run();
    EXPECT_EQ(destroyed, 5);
  }
  EXPECT_EQ(destroyed, 5);
}

}  // namespace
}  // namespace halfmoon::sim
