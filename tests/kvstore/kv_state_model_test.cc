// Model test for the KV store's latest-slot and versioned-object tables and its durable tier:
// seeded random sequences of Put, CondPut, PutVersioned and DeleteVersioned run against a
// KvState (with a journal and a checkpoint store) and against a naive model, with checkpoint
// walks advancing one small slice per step while new keys keep arriving, partial journal
// flushes, node kills and clean restarts. After every step the store must agree with the model. After every kill
// or restart, image + suffix recovery and full replay must each rebuild exactly the
// acknowledged state, and every completed walk must have emitted exactly the latest slots
// that existed when its round started. Object ids are drawn sparsely up to 2^20, some sharing
// their low bits, as write-log tag ids are among the step-log ids interned between them.
//
// Tier-1 runs a few short seeds; HM_FAULTCHECK_FULL=1 runs many longer ones.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/env.h"
#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/kvstore/kv_state.h"
#include "src/sim/scheduler.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"
#include "src/storage/journal.h"

namespace halfmoon::kvstore {
namespace {

using storage::Cursor;
using storage::FrameType;

constexpr size_t kObjects = 24;
constexpr ObjectId kMaxObjectId = ObjectId{1} << 20;

struct ModelState {
  struct Latest {
    Value value;
    VersionTuple version;
  };
  std::map<std::string, Latest> latest;
  std::map<ObjectId, std::map<std::string, Value>> versions;

  // The store's byte gauge, recomputed from scratch.
  int64_t Bytes() const {
    int64_t bytes = 0;
    for (const auto& [key, slot] : latest) {
      bytes += static_cast<int64_t>(key.size() + slot.value.size() + sizeof(VersionTuple));
    }
    for (const auto& [object, by_id] : versions) {
      for (const auto& [id, value] : by_id) {
        bytes += static_cast<int64_t>(sizeof(ObjectId) + id.size() + value.size());
      }
    }
    return bytes;
  }
};

// One journaled mutation, replayable onto a model.
struct ModelOp {
  FrameType type;
  std::string key;  // Latest key, or version id.
  Value value;
  VersionTuple version;
  ObjectId object = 0;
  uint64_t frame_end = 0;

  void ApplyTo(ModelState* m) const {
    switch (type) {
      case FrameType::kKvPut:
        m->latest[key].value = value;
        break;
      case FrameType::kKvCondPut:
        m->latest[key] = ModelState::Latest{value, version};
        break;
      case FrameType::kKvPutVersioned:
        m->versions[object][key] = value;
        break;
      case FrameType::kKvDeleteVersioned:
        m->versions[object].erase(key);
        if (m->versions[object].empty()) m->versions.erase(object);
        break;
      default:
        FAIL() << "unexpected op type";
    }
  }
};

class KvModelRun {
 public:
  explicit KvModelRun(uint64_t seed) : rng_(seed), journal_(&scheduler_, &models_, seed) {
    kv_.AttachDurability(&journal_);
    // Half the ids are spread over [0, 2^20]; the other half come in runs that share their
    // low 16 bits, so the version index's probing and growth see clustered ids too.
    std::set<ObjectId> ids;
    while (ids.size() < kObjects / 2) {
      ids.insert(static_cast<ObjectId>(rng_.UniformInt(0, static_cast<int64_t>(kMaxObjectId))));
    }
    while (ids.size() < kObjects) {
      const auto low = static_cast<ObjectId>(rng_.UniformInt(0, (1 << 16) - 1));
      for (ObjectId high = 0; high < 4 && ids.size() < kObjects; ++high) {
        ids.insert((high << 16) | low);
      }
    }
    objects_.assign(ids.begin(), ids.end());
  }

  void Step() {
    const int64_t roll = rng_.UniformInt(0, 99);
    if (roll < 25) {
      Put();
    } else if (roll < 50) {
      CondPut();
    } else if (roll < 66) {
      PutVersioned();
    } else if (roll < 76) {
      DeleteVersioned();
    } else if (roll < 86) {
      Flush();
    } else if (roll < 93) {
      Checkpoint();
    } else if (roll < 97) {
      Kill();
    } else {
      Restart();
    }
    if (walk_open_) WalkSlice();
    Check(live_, "after step");
  }

  int walks() const { return walks_; }
  int image_recoveries() const { return image_recoveries_; }

  // Every key of the newest image is live in the store (keys are never deleted), so
  // installing the image's latest slots on top of it must abort at the first one.
  void ExpectReinstallAborts() {
    ASSERT_TRUE(has_image_);
    storage::InstalledManifest manifest;
    ASSERT_TRUE(storage::FindLatestValidManifest(store_, storage::kCkptKvDomain, &manifest));
    EXPECT_DEATH(storage::ReplayImage(store_, manifest,
                                      [&](FrameType type, Cursor cursor) {
                                        if (type != FrameType::kCkptKvLatest) return;
                                        kv_.RestoreCheckpointFrame(Now(), type, cursor);
                                      }),
                 "installs a latest slot twice");
  }

 private:
  SimTime Now() { return scheduler_.Now(); }

  // Mostly existing keys; a steady trickle of new ones, so walks see inserts behind them.
  std::string PickKey() {
    if (keys_.empty() || rng_.Bernoulli(0.2)) {
      keys_.push_back("key:" + std::to_string(keys_.size()));
      return keys_.back();
    }
    return keys_[static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(keys_.size()) - 1))];
  }

  // Unique values of varied size; some exceed a block, so frames cross block and page edges.
  Value NextValue() {
    size_t pad = rng_.Bernoulli(0.05) ? static_cast<size_t>(rng_.UniformInt(4096, 20000))
                                      : static_cast<size_t>(rng_.UniformInt(0, 60));
    return "v" + std::to_string(++values_) + std::string(pad, 'p');
  }

  std::string PickVersionId() { return "ver" + std::to_string(rng_.UniformInt(0, 9)); }

  ObjectId PickObject() {
    const int64_t last = static_cast<int64_t>(kObjects) - 1;
    return objects_[static_cast<size_t>(rng_.UniformInt(0, last))];
  }

  void Record(ModelOp op) {
    op.ApplyTo(&live_);
    op.frame_end = kv_.last_journal_offset();
    pending_.push_back(std::move(op));
  }

  void Put() {
    std::string key = PickKey();
    Value value = NextValue();
    kv_.Put(Now(), key, value);
    Record(ModelOp{FrameType::kKvPut, key, value, {}});
  }

  void CondPut() {
    std::string key = PickKey();
    Value value = NextValue();
    VersionTuple version{static_cast<uint64_t>(rng_.UniformInt(0, 30)),
                         static_cast<uint64_t>(rng_.UniformInt(0, 3))};
    auto it = live_.latest.find(key);
    const bool expect = (it == live_.latest.end() ? VersionTuple{} : it->second.version) < version;
    ASSERT_EQ(kv_.CondPut(Now(), key, value, version), expect) << key;
    if (expect) Record(ModelOp{FrameType::kKvCondPut, key, value, version});
  }

  void PutVersioned() {
    ObjectId object = PickObject();
    std::string id = PickVersionId();
    Value value = NextValue();
    kv_.PutVersioned(Now(), object, id, value);
    Record(ModelOp{FrameType::kKvPutVersioned, id, value, {}, object});
  }

  void DeleteVersioned() {
    ObjectId object = PickObject();
    std::string id = PickVersionId();
    auto it = live_.versions.find(object);
    const bool expect = it != live_.versions.end() && it->second.contains(id);
    ASSERT_EQ(kv_.DeleteVersioned(Now(), object, id), expect) << object << "/" << id;
    if (expect) Record(ModelOp{FrameType::kKvDeleteVersioned, id, {}, {}, object});
  }

  // Lets the group-flusher run for a while: some, all or none of the tail becomes durable.
  void Flush() {
    scheduler_.RunUntil(Now() + rng_.UniformInt(0, 3000));
    Settle();
  }

  // Folds the mutations whose frames are durable into the acknowledged state.
  void Settle() {
    const uint64_t durable = journal_.durable_offset();
    size_t n = 0;
    while (n < pending_.size() && pending_[n].frame_end <= durable) pending_[n++].ApplyTo(&acked_);
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(n));
  }

  // Starts a checkpoint round (as CheckpointService does: cut at the durable frontier); the
  // walk then advances one small slice per step.
  void Checkpoint() {
    if (walk_open_) return;
    walk_cut_ = journal_.durable_offset();
    walk_image_start_ = store_.tail();
    walk_frames_ = 0;
    walk_expected_.clear();
    for (const auto& [key, slot] : live_.latest) walk_expected_.insert(key);
    kv_.BeginCheckpointWalk();
    walk_open_ = true;
  }

  void WalkSlice() {
    int64_t frames = 0;
    bool done = kv_.WriteCheckpointSlice(&store_, /*budget=*/3, &frames);
    walk_frames_ += frames;
    store_.Flush();
    if (!done) return;
    // The manifest may only land once the journal covers everything the image reflects.
    scheduler_.Run();
    Settle();
    CheckWalkEmittedRoundStartSlots();
    storage::CheckpointManifest m;
    m.domain = storage::kCkptKvDomain;
    m.cut = walk_cut_;
    m.image_start = walk_image_start_;
    m.frame_count = static_cast<uint64_t>(walk_frames_);
    m.checksum = storage::ChecksumImage(store_, walk_image_start_, store_.tail());
    store_.AppendFrame(FrameType::kCkptManifest, storage::EncodeManifest(m));
    store_.Flush();
    walk_open_ = false;
    has_image_ = true;
    ++walks_;
  }

  void CheckWalkEmittedRoundStartSlots() {
    std::multiset<std::string> emitted;
    storage::ReplayFrames(store_.buffer(), walk_image_start_, store_.tail(),
                          [&](FrameType type, Cursor cursor) {
                            if (type == FrameType::kCkptKvLatest) {
                              emitted.insert(std::string(cursor.Str()));
                            }
                          });
    EXPECT_EQ(emitted, std::multiset<std::string>(walk_expected_.begin(), walk_expected_.end()))
        << "the walk must emit each round-start slot once and no later insert";
  }

  // Node loss: the journal's and the store's volatile tails die, and so does any walk. Only
  // the acknowledged (durable) mutations survive.
  void Kill() {
    Settle();
    journal_.Kill();
    store_.DropVolatile();
    walk_open_ = false;
    pending_.clear();
    live_ = acked_;
    Recover();
  }

  // Clean crash-restart: everything flushed first.
  void Restart() {
    scheduler_.Run();
    Settle();
    walk_open_ = false;
    Recover();
  }

  // Rebuilds the store both ways — image + suffix when an image exists, then strict full
  // replay — and checks each against the acknowledged state.
  void Recover() {
    if (has_image_) {
      kv_.ResetVolatile(Now());
      storage::RecoveryStats stats = RecoverKv(&store_);
      EXPECT_TRUE(stats.used_checkpoint);
      Check(acked_, "image + suffix");
      ++image_recoveries_;
    }
    kv_.ResetVolatile(Now());
    storage::RecoveryStats stats = RecoverKv(nullptr);
    EXPECT_FALSE(stats.used_checkpoint);
    Check(acked_, "full replay");
  }

  storage::RecoveryStats RecoverKv(const storage::CheckpointStore* store) {
    SimTime now = Now();
    return storage::RecoverFromJournal(
        storage::kCkptKvDomain, journal_, store,
        [&](FrameType type, Cursor cursor) { kv_.RestoreCheckpointFrame(now, type, cursor); },
        [&](FrameType type, Cursor cursor, bool fuzzy) {
          kv_.RestoreFrame(now, type, cursor, fuzzy);
        });
  }

  void Check(const ModelState& model, const char* when) const {
    SCOPED_TRACE(when);
    const KvState& kv = kv_;
    ASSERT_EQ(kv.key_count(), model.latest.size());
    for (const auto& [key, slot] : model.latest) {
      ASSERT_EQ(kv.Get(key), slot.value) << key;
      ASSERT_EQ(kv.GetVersion(key), slot.version) << key;
    }
    EXPECT_FALSE(kv.Get("never-written").has_value());
    size_t objects = 0;
    for (ObjectId object : objects_) {
      auto it = model.versions.find(object);
      const size_t count = it == model.versions.end() ? 0 : it->second.size();
      ASSERT_EQ(kv.VersionCount(object), count) << object;
      if (count == 0) continue;
      ++objects;
      for (const auto& [id, value] : it->second) {
        ASSERT_EQ(kv.GetVersioned(object, id), value) << object << "/" << id;
      }
    }
    EXPECT_EQ(kv.versioned_object_count(), objects);
    EXPECT_EQ(kv.VersionCount(kMaxObjectId + 1), 0u);  // Beyond every id drawn.
    EXPECT_EQ(kv.CurrentBytes(), model.Bytes());
  }

  Rng rng_;
  sim::Scheduler scheduler_;
  LatencyModels models_;
  storage::DurabilityService journal_;
  storage::CheckpointStore store_;
  KvState kv_;

  ModelState live_;   // Everything applied.
  ModelState acked_;  // Everything whose journal frame is durable.
  std::vector<ModelOp> pending_;
  std::vector<std::string> keys_;
  std::vector<ObjectId> objects_;  // The run's kObjects distinct object ids.
  int64_t values_ = 0;

  bool walk_open_ = false;
  bool has_image_ = false;
  uint64_t walk_cut_ = 0;
  uint64_t walk_image_start_ = 0;
  int64_t walk_frames_ = 0;
  std::set<std::string> walk_expected_;

  int walks_ = 0;
  int image_recoveries_ = 0;
};

TEST(KvStateModelTest, RandomSequencesMatchTheModel) {
  const bool full = EnvBool("HM_FAULTCHECK_FULL", false);
  const uint64_t seeds = full ? 64 : 6;
  const int steps = full ? 6000 : 2000;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    KvModelRun run(seed);
    for (int step = 0; step < steps; ++step) {
      run.Step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(run.walks(), 0);
    EXPECT_GT(run.image_recoveries(), 0);
    run.ExpectReinstallAborts();
  }
}

}  // namespace
}  // namespace halfmoon::kvstore
