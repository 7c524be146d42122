// Model test for the tag table: seeded random sequences of interning, appends, cond-appends,
// trims, retirements, releases, crash-restart replays and checkpoints run against a
// ShardedLog (with a journal and a checkpoint store) and against a naive model — per name,
// the live seqnums and the logical length, plus the set of retired names. After every step
// the log must agree with the model (the name-ordered listing of live streams included),
// every unretired id must be reachable without an abort, the registry's and the record
// store's pages must follow live ids (the halving rule of sparse_pages.h), and a full replay
// and an image + suffix recovery must both rebuild the same state.
//
// Tier-1 runs a few short seeds; HM_FAULTCHECK_FULL=1 runs many longer ones.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/env.h"
#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/sharedlog/log_recovery.h"
#include "src/sharedlog/sharded_log.h"
#include "src/sim/scheduler.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"
#include "tests/testing/live_streams.h"
#include "tests/testing/state_checksum.h"

namespace halfmoon::sharedlog {
namespace {

using testing::FnvStr;
using testing::LiveStreamNames;
using testing::FnvU64;
using testing::kFnvOffset;

// Content checksum of the log as the live paths see it: every open id with its name, its
// stream's logical length and records (seqnum, tags, step), plus the allocator and the
// record count. Closed ids are left out, so a recovery releasing a durable retirement (the
// id goes from retiring to retired) leaves the checksum alone.
uint64_t LogChecksum(const ShardedLog& log) {
  const TagRegistry& tags = log.tags();
  uint64_t h = FnvU64(kFnvOffset, log.next_seqnum());
  h = FnvU64(h, tags.size());
  h = FnvU64(h, log.live_records());
  for (TagId id = tags.NextUnretired(0); id < tags.size(); id = tags.NextUnretired(id + 1)) {
    if (tags.Closed(id)) continue;
    h = FnvU64(h, id);
    h = FnvStr(h, tags.Name(id));
    h = FnvU64(h, log.StreamLength(id));
    for (const LogRecordPtr& record : log.ReadStream(id)) {
      h = FnvU64(h, record->seqnum);
      for (TagId tag : record->tags) h = FnvU64(h, tag);
      h = FnvU64(h, static_cast<uint64_t>(record->fields.GetInt("step")));
    }
  }
  return h;
}

struct ModelStream {
  std::vector<SeqNum> live;
  size_t length = 0;
};

class ModelRun {
 public:
  ModelRun(uint64_t seed, uint32_t shards)
      : rng_(seed), log_(shards), journal_(&scheduler_, &models_, seed) {
    log_.AttachDurability(&journal_);
  }

  void Step() {
    const int64_t roll = rng_.UniformInt(0, 99);
    if (roll < 16 || open_.empty()) {
      Intern();
    } else if (roll < 44) {
      Append();
    } else if (roll < 54) {
      CondAppend();
    } else if (roll < 62) {
      Trim();
    } else if (roll < 80) {
      Retire();
    } else if (roll < 86) {
      Release();
    } else if (roll < 93) {
      Checkpoint();
    } else {
      Restart();
    }
    if (walk_open_) WalkSlice();
    Check("after step");
  }

  // What the run exercised: a registry page compacted to its live slots, and the image +
  // suffix recoveries.
  bool compacted() const { return compacted_; }
  int image_recoveries() const { return image_recoveries_; }

 private:
  SimTime Now() { return scheduler_.Now(); }
  TagId Id(const std::string& name) { return ids_.at(name); }

  // A random open (live, unretired) name; objects ("k:") never retire.
  const std::string& PickOpen() {
    auto it = open_.begin();
    std::advance(it, rng_.UniformInt(0, static_cast<int64_t>(open_.size()) - 1));
    return it->first;
  }

  FieldMap Fields() {
    FieldMap f;
    f.SetStr("op", "w");
    f.SetInt("step", ++step_);
    return f;
  }

  void Intern() {
    // Few objects, so that pages of retired instances turn sparse and compact.
    const bool object = rng_.Bernoulli(0.05);
    const std::string name = (object ? "k:" : "t") + std::to_string(names_++);
    ids_[name] = log_.tags().Intern(name);
    open_[name];
  }

  void Append() {
    std::vector<std::string> names = {PickOpen()};
    if (rng_.Bernoulli(0.4)) {
      const std::string& other = PickOpen();
      if (other != names[0]) names.push_back(other);
    }
    std::vector<TagId> ids;
    for (const std::string& name : names) ids.push_back(Id(name));
    SeqNum seqnum = log_.Append(Now(), ids, Fields());
    for (const std::string& name : names) {
      open_[name].live.push_back(seqnum);
      ++open_[name].length;
    }
  }

  void CondAppend() {
    const std::string name = PickOpen();
    ModelStream& model = open_[name];
    TagId id = Id(name);
    // Half the time aim at the occupied last offset: a conflict naming its record.
    const bool conflict = !model.live.empty() && rng_.Bernoulli(0.5);
    size_t pos = conflict ? model.length - 1 : model.length;
    CondAppendResult result = log_.CondAppend(Now(), std::vector<TagId>{id}, Fields(), id, pos);
    ASSERT_EQ(result.ok, !conflict) << name;
    if (conflict) {
      EXPECT_EQ(result.existing_seqnum, model.live.back());
      return;
    }
    model.live.push_back(result.seqnum);
    ++model.length;
  }

  void Trim() {
    const std::string name = PickOpen();
    ModelStream& model = open_[name];
    SeqNum upto = model.live.empty()
                      ? log_.next_seqnum()
                      : model.live[static_cast<size_t>(rng_.UniformInt(
                            0, static_cast<int64_t>(model.live.size()) - 1))];
    size_t expected = static_cast<size_t>(
        std::upper_bound(model.live.begin(), model.live.end(), upto) - model.live.begin());
    EXPECT_EQ(log_.Trim(Now(), Id(name), upto), expected) << name;
    model.live.erase(model.live.begin(), model.live.begin() + static_cast<ptrdiff_t>(expected));
  }

  void Retire() {
    std::string name = PickOpen();
    for (int tries = 0; name.starts_with("k:") && tries < 4; ++tries) name = PickOpen();
    if (name.starts_with("k:")) return;
    EXPECT_EQ(log_.Retire(Now(), Id(name)), open_[name].live.size()) << name;
    open_.erase(name);
    retired_.insert(name);
  }

  // Drains the journal's flushes, then releases every durable retirement.
  void Release() {
    scheduler_.Run();
    log_.ReleaseRetired();
    EXPECT_EQ(log_.pending_retirements(), 0u);
  }

  // Starts a checkpoint round: the walk then advances one small slice per step, so the
  // image interleaves with later mutations exactly as the daemon's does.
  void Checkpoint() {
    if (walk_open_) return;
    scheduler_.Run();
    walk_cut_ = journal_.durable_offset();
    walk_image_start_ = store_.tail();
    walk_frames_ = 0;
    log_.BeginCheckpointWalk();
    walk_open_ = true;
  }

  void WalkSlice() {
    int64_t frames = 0;
    bool done = log_.WriteCheckpointSlice(&store_, /*budget=*/5, &frames);
    walk_frames_ += frames;
    store_.Flush();
    if (!done) return;
    // The manifest may only land once the journal covers everything the image reflects.
    scheduler_.Run();
    storage::CheckpointManifest m;
    m.domain = storage::kCkptLogDomain;
    m.cut = walk_cut_;
    m.image_start = walk_image_start_;
    m.frame_count = static_cast<uint64_t>(walk_frames_);
    m.checksum = storage::ChecksumImage(store_, walk_image_start_, store_.tail());
    m.watermark_floor = journal_.durable_seq();
    store_.AppendFrame(storage::FrameType::kCkptManifest, storage::EncodeManifest(m));
    store_.Flush();
    walk_open_ = false;
    has_image_ = true;
  }

  // Crash-restart with everything flushed: a full journal replay and, once an image exists,
  // an image + suffix recovery must each rebuild exactly the acknowledged state. An
  // in-flight checkpoint walk dies with the node.
  void Restart() {
    scheduler_.Run();
    walk_open_ = false;
    const uint64_t acked = LogChecksum(log_);
    storage::RecoveryStats full = RestoreLogFromJournal(Now(), &log_, &journal_, nullptr);
    EXPECT_FALSE(full.used_checkpoint);
    EXPECT_EQ(LogChecksum(log_), acked) << "full replay";
    // Replay released every durable retirement.
    EXPECT_EQ(log_.pending_retirements(), 0u);
    Check("after full replay");
    if (!has_image_) return;
    ++image_recoveries_;
    storage::RecoveryStats image = RestoreLogFromJournal(Now(), &log_, &journal_, &store_);
    EXPECT_TRUE(image.used_checkpoint);
    EXPECT_EQ(LogChecksum(log_), acked) << "image + suffix";
    Check("after image + suffix");
  }

  void Check(const char* when) {
    SCOPED_TRACE(when);
    const TagRegistry& tags = log_.tags();
    size_t entries = 0;
    std::vector<std::string> nonempty;  // In name order: open_ is a sorted map.
    std::vector<std::string> nonempty_objects;
    for (const auto& [name, model] : open_) {
      const TagId id = Id(name);
      ASSERT_EQ(tags.Find(name), id) << name;
      ASSERT_FALSE(tags.Closed(id)) << name;
      EXPECT_EQ(tags.Name(id), name);
      EXPECT_EQ(log_.StreamLength(id), model.length) << name;
      std::vector<LogRecordPtr> stream = log_.ReadStream(id);
      ASSERT_EQ(stream.size(), model.live.size()) << name;
      for (size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(stream[i]->seqnum, model.live[i]) << name << " entry " << i;
      }
      LogRecordPtr last = log_.ReadPrev(id, kMaxSeqNum);
      EXPECT_EQ(last == nullptr ? kInvalidSeqNum : last->seqnum,
                model.live.empty() ? kInvalidSeqNum : model.live.back())
          << name;
      entries += model.live.size();
      if (!model.live.empty()) {
        nonempty.push_back(name);
        if (name.starts_with("k:")) nonempty_objects.push_back(name);
      }
    }
    for (const std::string& name : retired_) {
      const TagId id = Id(name);
      ASSERT_TRUE(tags.Closed(id)) << name;
      // The name stays findable until its retirement is released, never after.
      EXPECT_EQ(tags.Find(name), tags.Retired(id) ? kInvalidTagId : id) << name;
    }
    EXPECT_EQ(log_.IndexEntries(), entries);
    // The live-stream listing is derived from the registry alone, so the replay paths keep
    // no bookkeeping for it: it must match the model after every step and every recovery.
    EXPECT_EQ(LiveStreamNames(log_, ""), nonempty);
    EXPECT_EQ(LiveStreamNames(log_, "k:"), nonempty_objects);
    // Pages follow live ids: a complete dense page is more than half live and a compacted
    // one holds only live slots, so the slot arrays cost at most twice the unretired ids'
    // slots plus the page still being filled, and the page table one entry per page of ids.
    constexpr size_t kSlotBytes = sizeof(std::string) + sizeof(TagStream);  // tag_registry.h
    constexpr size_t kPage = TagRegistry::kPageIds;
    using Pages = SparsePages<int, kPage>;
    const size_t table = 2 * (tags.size() / kPage + 1) * Pages::kPageEntryBytes;
    const size_t headers = (tags.live_size() + 1) * Pages::kPageHeaderBytes;
    EXPECT_LE(tags.SlotBytes(), (2 * tags.live_size() + kPage) * kSlotBytes + headers + table)
        << "pages=" << tags.Pages();
    compacted_ = compacted_ || tags.SlotBytes() < tags.Pages() * kPage * kSlotBytes;
    // The record store's pages keep the same bound per shard (a record slot is 24 bytes).
    using RecordPages = SparsePages<int, ShardedLog::kRecordPageSlots>;
    for (uint32_t shard = 0; shard < log_.shard_count(); ++shard) {
      const size_t records = log_.live_records(shard);
      const size_t history = log_.next_seqnum() / ShardedLog::kRecordPageSlots + 1;
      EXPECT_LE(log_.RecordStoreBytes(shard),
                (2 * records + ShardedLog::kRecordPageSlots) * (sizeof(LogRecordPtr) + 8) +
                    records * RecordPages::kPageHeaderBytes +
                    2 * history * RecordPages::kPageEntryBytes)
          << "shard " << shard;
    }
    size_t unretired = 0;
    for (TagId id = tags.NextUnretired(0); id < tags.size(); id = tags.NextUnretired(id + 1)) {
      ++unretired;
    }
    EXPECT_EQ(unretired, tags.live_size());
  }

  Rng rng_;
  sim::Scheduler scheduler_;
  LatencyModels models_;
  ShardedLog log_;
  storage::DurabilityService journal_;
  storage::CheckpointStore store_;

  std::map<std::string, TagId> ids_;
  std::map<std::string, ModelStream> open_;
  std::set<std::string> retired_;
  int64_t names_ = 0;
  int64_t step_ = 0;

  bool walk_open_ = false;
  bool has_image_ = false;
  uint64_t walk_cut_ = 0;
  uint64_t walk_image_start_ = 0;
  int64_t walk_frames_ = 0;

  bool compacted_ = false;
  int image_recoveries_ = 0;
};

TEST(TagTableModelTest, RandomSequencesMatchTheModel) {
  const bool full = EnvBool("HM_FAULTCHECK_FULL", false);
  const uint64_t seeds = full ? 64 : 6;
  const int steps = full ? 6000 : 2000;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ModelRun run(seed, /*shards=*/1 + static_cast<uint32_t>(seed % 2));
    for (int step = 0; step < steps; ++step) {
      run.Step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(run.compacted());
    EXPECT_GT(run.image_recoveries(), 0);
  }
}

}  // namespace
}  // namespace halfmoon::sharedlog
