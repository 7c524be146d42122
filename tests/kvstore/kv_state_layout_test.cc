// Tests of the KV store's entry layout (DESIGN.md §7.8): each LATEST slot and each stored
// version is one exact-size block {key or version id, value}, rewritten in place when the
// value keeps its size and into a new block when it does not, and an object's versions are a
// flat array sorted by id that a checkpoint walk resumes in by binary search.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/kvstore/kv_client.h"
#include "src/kvstore/kv_state.h"
#include "src/sim/scheduler.h"
#include "src/storage/checkpoint.h"
#include "src/storage/journal.h"

namespace halfmoon::kvstore {
namespace {

using storage::Cursor;
using storage::FrameType;

constexpr ObjectId kObj = 7;

// One kCkptKvVersion frame of an image.
struct EmittedVersion {
  ObjectId object;
  std::string id;
  bool operator==(const EmittedVersion&) const = default;
};

// Runs a whole checkpoint walk of `kv` into a fresh store and installs the image into `into`.
void CopyThroughImage(KvState& kv, KvState* into) {
  storage::CheckpointStore store;
  const uint64_t start = store.tail();
  kv.BeginCheckpointWalk();
  int64_t frames = 0;
  while (!kv.WriteCheckpointSlice(&store, /*budget=*/1000, &frames)) {
  }
  store.Flush();
  storage::ReplayFrames(store.buffer(), start, store.tail(), [&](FrameType type, Cursor cursor) {
    into->RestoreCheckpointFrame(0, type, cursor);
  });
}

// Reads `key` through a KvClient: the value and the stored version tuple.
std::optional<std::pair<Value, VersionTuple>> GetWithVersion(KvState* kv, const std::string& key) {
  sim::Scheduler scheduler;
  Rng rng(3);
  LatencyModels models;
  KvClient client(&scheduler, &rng, &models, kv, nullptr);
  std::optional<std::pair<Value, VersionTuple>> result;
  scheduler.Spawn([](KvClient* client, const std::string* key,
                     std::optional<std::pair<Value, VersionTuple>>* result) -> sim::Task<void> {
    *result = co_await client->GetWithVersion(*key);
  }(&client, &key, &result));
  scheduler.Run();
  return result;
}

int64_t LatestBytes(const std::string& key, const Value& value) {
  return static_cast<int64_t>(key.size() + value.size() + sizeof(VersionTuple));
}

// Values that grow, shrink, keep their size with new bytes, empty out and grow again, so a
// rewrite takes both the new-block and the in-place path, each way round.
const std::vector<Value>& SizeChangingValues() {
  static const std::vector<Value> values = {
      "abc", std::string(40, 'g'), "xy", "zw", "", std::string(40, 'h'), std::string(40, 'i'),
      "q"};
  return values;
}

TEST(KvStateLayoutTest, LatestValuesRoundTripAcrossSizeChanges) {
  KvState kv;
  kv.Put(0, "neighbour", "untouched");
  uint64_t counter = 0;
  for (const Value& value : SizeChangingValues()) {
    SCOPED_TRACE("value of " + std::to_string(value.size()) + " bytes");
    kv.Put(0, "plain", value);
    ASSERT_TRUE(kv.CondPut(0, "cond", value, VersionTuple{1, ++counter}));
    for (const std::string key : {"plain", "cond"}) {
      EXPECT_EQ(kv.Get(key), value) << key;
      auto read = GetWithVersion(&kv, key);
      ASSERT_TRUE(read.has_value()) << key;
      EXPECT_EQ(read->first, value) << key;
      EXPECT_EQ(read->second, key == "plain" ? VersionTuple{} : (VersionTuple{1, counter}));
    }
    EXPECT_EQ(kv.Get("neighbour"), "untouched");
    const int64_t bytes = LatestBytes("neighbour", "untouched") + LatestBytes("plain", value) +
                          LatestBytes("cond", value);
    EXPECT_EQ(kv.CurrentBytes(), bytes);

    KvState restored;
    CopyThroughImage(kv, &restored);
    EXPECT_EQ(restored.key_count(), 3u);
    EXPECT_EQ(restored.Get("plain"), value);
    EXPECT_EQ(restored.Get("cond"), value);
    EXPECT_EQ(restored.GetVersion("cond"), (VersionTuple{1, counter}));
    EXPECT_EQ(restored.CurrentBytes(), bytes);
  }
}

TEST(KvStateLayoutTest, VersionValuesRoundTripAcrossSizeChanges) {
  KvState kv;
  kv.PutVersioned(0, kObj, "a", "before");
  kv.PutVersioned(0, kObj, "c", "after");
  for (const Value& value : SizeChangingValues()) {
    SCOPED_TRACE("value of " + std::to_string(value.size()) + " bytes");
    kv.PutVersioned(0, kObj, "b", value);
    EXPECT_EQ(kv.GetVersioned(kObj, "b"), value);
    EXPECT_EQ(kv.GetVersioned(kObj, "a"), "before");
    EXPECT_EQ(kv.GetVersioned(kObj, "c"), "after");
    EXPECT_EQ(kv.VersionCount(kObj), 3u);
    KvState restored;
    CopyThroughImage(kv, &restored);
    EXPECT_EQ(restored.GetVersioned(kObj, "b"), value);
    EXPECT_EQ(restored.VersionCount(kObj), 3u);
    EXPECT_EQ(restored.CurrentBytes(), kv.CurrentBytes());
  }
}

// A retried SSF re-creates the version it already wrote, possibly after its neighbours were
// inserted around it: the re-put replaces the entry in place in the sorted array, and the
// gauge counts it once, at its new size.
TEST(KvStateLayoutTest, RePutVersionedReplacesWithoutDoubleCounting) {
  KvState kv;
  kv.PutVersioned(0, kObj, "ver-b", "first");
  kv.PutVersioned(0, kObj, "ver-a", "x");
  kv.PutVersioned(0, kObj, "ver-c", "y");
  const int64_t others = 2 * static_cast<int64_t>(sizeof(ObjectId) + 5 + 1);
  for (const Value& value : {Value("first"), Value("a longer value than before"), Value("s")}) {
    kv.PutVersioned(0, kObj, "ver-b", value);
    EXPECT_EQ(kv.VersionCount(kObj), 3u);
    EXPECT_EQ(kv.GetVersioned(kObj, "ver-b"), value);
    EXPECT_EQ(kv.CurrentBytes(),
              others + static_cast<int64_t>(sizeof(ObjectId) + 5 + value.size()));
  }
  EXPECT_EQ(kv.GetVersioned(kObj, "ver-a"), "x");
  EXPECT_EQ(kv.GetVersioned(kObj, "ver-c"), "y");
  EXPECT_EQ(kv.versioned_object_count(), 1u);
}

// Walks `kv` with a budget of two frames per slice, running `between` after the first slice.
// Returns the versions the walk emitted, in emission order.
template <typename Between>
std::vector<EmittedVersion> WalkWith(KvState& kv, Between between) {
  storage::CheckpointStore store;
  const uint64_t start = store.tail();
  kv.BeginCheckpointWalk();
  int64_t frames = 0;
  bool done = kv.WriteCheckpointSlice(&store, /*budget=*/2, &frames);
  EXPECT_FALSE(done);
  between();
  while (!done) done = kv.WriteCheckpointSlice(&store, /*budget=*/2, &frames);
  store.Flush();
  std::vector<EmittedVersion> emitted;
  storage::ReplayFrames(store.buffer(), start, store.tail(), [&](FrameType type, Cursor cursor) {
    ASSERT_EQ(type, FrameType::kCkptKvVersion);
    ObjectId object = cursor.U64();
    emitted.push_back(EmittedVersion{object, std::string(cursor.Str())});
  });
  EXPECT_EQ(frames, static_cast<int64_t>(emitted.size()));
  return emitted;
}

TEST(KvStateLayoutTest, WalkResumesPastItsCursorWhenTheCursorVersionIsDeleted) {
  KvState kv;
  for (const char* id : {"v3", "v1", "v5", "v2", "v4"}) kv.PutVersioned(0, kObj, id, "x");
  kv.PutVersioned(0, kObj + 1, "w1", "y");
  // The first slice emits v1 and v2, leaving the cursor on v2; v2 then goes.
  auto emitted = WalkWith(kv, [&] { ASSERT_TRUE(kv.DeleteVersioned(0, kObj, "v2")); });
  const std::vector<EmittedVersion> expected = {
      {kObj, "v1"}, {kObj, "v2"}, {kObj, "v3"}, {kObj, "v4"}, {kObj, "v5"}, {kObj + 1, "w1"}};
  EXPECT_EQ(emitted, expected);
}

TEST(KvStateLayoutTest, WalkResumesPastItsCursorWhenVersionsAreInsertedAroundIt) {
  KvState kv;
  for (const char* id : {"b", "d", "f"}) kv.PutVersioned(0, kObj, id, "x");
  kv.PutVersioned(0, kObj + 1, "m", "y");
  // The first slice emits b and d. "a" lands behind the cursor (the replay suffix carries it)
  // and "z" ahead of it, where the walk still reaches it.
  auto emitted = WalkWith(kv, [&] {
    kv.PutVersioned(0, kObj, "a", "new");
    kv.PutVersioned(0, kObj, "z", "new");
  });
  const std::vector<EmittedVersion> expected = {
      {kObj, "b"}, {kObj, "d"}, {kObj, "f"}, {kObj, "z"}, {kObj + 1, "m"}};
  EXPECT_EQ(emitted, expected);
}

// Fuzzy suffix replay over an image that already holds a CondPut's version: a plain Put
// replayed before it overwrote the value, so the equal-version CondPut frame must set the
// value again — into a block of the CondPut value's size.
TEST(KvStateLayoutTest, FuzzyEqualVersionCondPutRewritesTheValue) {
  const VersionTuple version{5, 1};
  const Value cond_value = "the conditional write's value";
  KvState kv;
  std::string image_frame;
  storage::PutStr(&image_frame, "k");
  storage::PutStr(&image_frame, cond_value);
  storage::PutU64(&image_frame, version.cursor_ts);
  storage::PutU64(&image_frame, version.counter);
  kv.RestoreCheckpointFrame(0, FrameType::kCkptKvLatest, Cursor(image_frame));

  std::string put_frame;
  storage::PutStr(&put_frame, "k");
  storage::PutStr(&put_frame, "p");
  kv.RestoreFrame(0, FrameType::kKvPut, Cursor(put_frame), /*fuzzy=*/true);
  EXPECT_EQ(kv.Get("k"), "p");

  // The journaled CondPut frame has the image frame's payload layout.
  kv.RestoreFrame(0, FrameType::kKvCondPut, Cursor(image_frame), /*fuzzy=*/true);
  EXPECT_EQ(kv.Get("k"), cond_value);
  EXPECT_EQ(kv.GetVersion("k"), version);
  EXPECT_EQ(kv.CurrentBytes(), LatestBytes("k", cond_value));
  EXPECT_EQ(kv.key_count(), 1u);
}

}  // namespace
}  // namespace halfmoon::kvstore
