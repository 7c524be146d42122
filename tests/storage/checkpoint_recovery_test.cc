// Cluster-grain checkpoint recovery (DESIGN.md §14): after a checkpoint round, a whole-node
// crash-restart must come up through load-image + replay-suffix — bit-identical to the state
// a full replay would rebuild (pinned by an FNV-1a content checksum, like recovery_test) but
// touching only the journal suffix above the manifest's cut. Also covers the fallback chain
// (corrupt newest image -> previous manifest -> full replay), recovery idempotence, seqnum
// exactness across truncation, and checkpoint-off bit-identity with the durable-only engine.
//
// The "[checkpoint] recovery: mode=image+suffix ..." lines printed here are load-bearing:
// scripts/check.sh greps them to prove the replay-suffix path actually engaged (a silent
// full-replay regression would still pass the equivalence checks). So is the
// "[storage] residency: ... one-copy" line: it proves the durable tier holds each retained
// journal byte once, on its device, and not again in the block buffer.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/value.h"
#include "src/kvstore/kv_state.h"
#include "src/runtime/cluster.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/sharded_log.h"
#include "src/sim/task.h"
#include "src/storage/block_device.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"
#include "src/storage/journal.h"
#include "tests/testing/state_checksum.h"
#include "tests/testing/live_streams.h"

namespace halfmoon::runtime {
namespace {

using kvstore::VersionTuple;
using sharedlog::LogRecordPtr;
using sharedlog::SeqNum;
using sharedlog::TagId;
using halfmoon::testing::StateChecksum;

ClusterConfig CheckpointConfig() {
  ClusterConfig config;
  config.function_nodes = 2;
  config.workers_per_node = 4;
  config.durable = true;
  config.checkpoint = true;
  return config;
}

FieldMap Fields(const std::string& op, int64_t step) {
  FieldMap f;
  f.SetStr("op", op);
  f.SetInt("step", step);
  // Pad every record past a trivial size so a dozen of them span several 4KiB device blocks
  // — block-aligned journal truncation then genuinely frees device memory, which the
  // durable_bytes_dropped assertions below depend on.
  f.SetStr("pad", std::string(300, 'p'));
  return f;
}

// Long history, small live state: appends under two tags plus KV churn, then trims each tag
// down to its last records — exactly the shape where compaction wins.
sim::Task<void> PopulateWorkload(Cluster* cluster, int rounds) {
  sharedlog::LogClient& log = cluster->node(0).log();
  kvstore::KvClient& kv = cluster->node(0).kv();
  std::string pad(300, 'q');
  std::vector<SeqNum> a_seqs;
  for (int i = 0; i < rounds; ++i) {
    a_seqs.push_back(
        co_await log.Append(std::vector<std::string>(1, "k:a"), Fields("write", i)));
    co_await log.Append(std::vector<std::string>(1, "k:b"), Fields("write", i));
    co_await kv.Put("a", "va-" + std::to_string(i) + pad);
    co_await kv.PutVersioned(1, "v" + std::to_string(i), pad + std::to_string(i));
    if (i > 0) co_await kv.DeleteVersioned(1, "v" + std::to_string(i - 1));
  }
  co_await kv.CondPut("b", "vb", VersionTuple{3, 1});
  // Trim the history: only the last two k:a records stay live.
  if (a_seqs.size() > 2) {
    co_await log.Trim("k:a", a_seqs[a_seqs.size() - 3]);
  }
}

const std::vector<std::string> kKvKeys = {"a", "b"};
const std::vector<TagId> kObjects = {1};

// Runs one checkpoint round to completion on a drained cluster.
void CheckpointOnce(Cluster& cluster) {
  ASSERT_NE(cluster.checkpoint_service(), nullptr);
  ASSERT_TRUE(cluster.checkpoint_service()->TriggerRound());
  cluster.scheduler().Run();
  ASSERT_FALSE(cluster.checkpoint_service()->RoundInFlight());
}

void PrintRecovery(const char* what, const Cluster& cluster) {
  const sharedlog::LogRecoveryStats& log = cluster.last_log_recovery();
  const sharedlog::LogRecoveryStats& kv = cluster.last_kv_recovery();
  std::printf(
      "[checkpoint] recovery: %s log mode=%s image_frames=%lld suffix_frames=%lld "
      "rejected=%d | kv mode=%s image_frames=%lld suffix_frames=%lld\n",
      what, log.used_checkpoint ? "image+suffix" : "full-replay",
      static_cast<long long>(log.image_frames), static_cast<long long>(log.suffix_frames),
      log.manifests_rejected, kv.used_checkpoint ? "image+suffix" : "full-replay",
      static_cast<long long>(kv.image_frames), static_cast<long long>(kv.suffix_frames));
}

TEST(CheckpointRecoveryTest, ImagePlusSuffixMatchesFullReplayExactly) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 12));
  cluster.scheduler().Run();

  // Full-replay reference first (no checkpoint taken yet).
  uint64_t before = StateChecksum(cluster, kKvKeys, kObjects);
  cluster.KillRestartStorage();
  EXPECT_FALSE(cluster.last_log_recovery().used_checkpoint);
  int64_t full_replay_frames = cluster.last_log_recovery().suffix_frames;
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), before);

  // Checkpoint, then keep running: the post-checkpoint ops form the replay suffix.
  CheckpointOnce(cluster);
  EXPECT_GT(cluster.checkpoint_service()->stats().rounds_completed, 0);
  EXPECT_GT(cluster.checkpoint_service()->stats().journal_bytes_truncated, 0);
  EXPECT_GT(cluster.log_durability()->retained_offset(), 0u);
  // The compaction satellite's core claim: the journal's device footprint actually shrank.
  EXPECT_GT(cluster.log_durability()->stats().durable_bytes_dropped, 0);
  EXPECT_GT(cluster.kv_durability()->stats().durable_bytes_dropped, 0);

  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 3));
  cluster.scheduler().Run();

  uint64_t acked = StateChecksum(cluster, kKvKeys, kObjects);
  cluster.KillRestartStorage();
  PrintRecovery("post-checkpoint", cluster);
  EXPECT_TRUE(cluster.last_log_recovery().used_checkpoint);
  EXPECT_TRUE(cluster.last_kv_recovery().used_checkpoint);
  EXPECT_GT(cluster.last_log_recovery().image_frames, 0);
  EXPECT_GT(cluster.last_kv_recovery().image_frames, 0);
  // The suffix is bounded by the post-checkpoint work, not the whole history.
  EXPECT_LT(cluster.last_log_recovery().suffix_frames, full_replay_frames);
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), acked);
}

TEST(CheckpointRecoveryTest, RecoveryIsIdempotentAndSeqnumExact) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 10));
  cluster.scheduler().Run();
  CheckpointOnce(cluster);
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 2));
  cluster.scheduler().Run();

  SeqNum next_before = cluster.log_space().next_seqnum();
  cluster.KillRestartStorage();
  uint64_t first = StateChecksum(cluster, kKvKeys, kObjects);
  cluster.KillRestartStorage();
  uint64_t second = StateChecksum(cluster, kKvKeys, kObjects);
  EXPECT_EQ(first, second);

  // Seqnum exactness across truncation: the restored allocator never re-issues a seqnum that
  // was acknowledged before the kill, even though the journal prefix holding most of the
  // history is gone.
  EXPECT_GE(cluster.log_space().next_seqnum(), next_before);
  std::vector<SeqNum> fresh;
  cluster.scheduler().Spawn(
      [](Cluster* cluster, std::vector<SeqNum>* out) -> sim::Task<void> {
        out->push_back(co_await cluster->node(0).log().Append(
            std::vector<std::string>(1, "k:a"), FieldMap()));
      }(&cluster, &fresh));
  cluster.scheduler().Run();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_GE(fresh[0], next_before);
}

TEST(CheckpointRecoveryTest, CorruptOnlyImageFallsBackToFullReplay) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 8));
  cluster.scheduler().Run();

  // The daemon dies right after stamping the manifest: the image is durable and valid, but
  // the journal was never truncated — full replay stays possible.
  cluster.failure_injector().CrashAtSite("ckpt.install", 0);
  ASSERT_TRUE(cluster.checkpoint_service()->TriggerRound());
  cluster.scheduler().Run();
  cluster.failure_injector().ClearCrashSchedule();
  EXPECT_EQ(cluster.checkpoint_service()->stats().rounds_abandoned, 1);
  EXPECT_EQ(cluster.log_durability()->retained_offset(), 0u);

  storage::InstalledManifest manifest;
  ASSERT_TRUE(storage::FindLatestValidManifest(*cluster.log_checkpoint_store(),
                                               storage::kCkptLogDomain, &manifest));
  cluster.log_checkpoint_store()->CorruptDurableByteForTest(manifest.manifest.image_start +
                                                            storage::kFrameHeaderBytes + 1);

  uint64_t before = StateChecksum(cluster, kKvKeys, kObjects);
  cluster.KillRestartStorage();
  PrintRecovery("corrupt-image", cluster);
  EXPECT_FALSE(cluster.last_log_recovery().used_checkpoint);
  EXPECT_EQ(cluster.last_log_recovery().manifests_rejected, 1);
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), before);
}

TEST(CheckpointRecoveryTest, CorruptNewestImageFallsBackToThePreviousManifest) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 8));
  cluster.scheduler().Run();
  CheckpointOnce(cluster);  // Manifest 1: completes and truncates to cut 1.

  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 3));
  cluster.scheduler().Run();

  // Round 2 dies after its manifest: both manifests durable, journal still at cut 1.
  cluster.failure_injector().CrashAtSite("ckpt.install", 0);
  ASSERT_TRUE(cluster.checkpoint_service()->TriggerRound());
  cluster.scheduler().Run();
  cluster.failure_injector().ClearCrashSchedule();

  storage::InstalledManifest newest;
  ASSERT_TRUE(storage::FindLatestValidManifest(*cluster.log_checkpoint_store(),
                                               storage::kCkptLogDomain, &newest));
  cluster.log_checkpoint_store()->CorruptDurableByteForTest(newest.manifest.image_start +
                                                            storage::kFrameHeaderBytes + 1);

  uint64_t before = StateChecksum(cluster, kKvKeys, kObjects);
  cluster.KillRestartStorage();
  PrintRecovery("fallback-previous", cluster);
  EXPECT_TRUE(cluster.last_log_recovery().used_checkpoint);
  EXPECT_EQ(cluster.last_log_recovery().manifests_rejected, 1);
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), before);
}

TEST(CheckpointRecoveryTest, KillMidRoundAbandonsAndRecoversFromTheJournal) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 8));
  cluster.scheduler().Run();

  uint64_t before = StateChecksum(cluster, kKvKeys, kObjects);
  // The kill lands while the round is in flight (trigger, then restart without draining):
  // the round must die with the node, not stamp a manifest over post-recovery state.
  ASSERT_TRUE(cluster.checkpoint_service()->TriggerRound());
  cluster.KillRestartStorage();
  EXPECT_FALSE(cluster.checkpoint_service()->RoundInFlight());
  EXPECT_GT(cluster.checkpoint_service()->stats().rounds_abandoned, 0);
  cluster.scheduler().Run();  // The stale round's coroutine drains harmlessly.
  EXPECT_EQ(cluster.checkpoint_service()->stats().manifests_written, 0);
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), before);
}

TEST(CheckpointRecoveryTest, CheckpointOffIsBitIdenticalToTheDurableEngine) {
  // checkpoint = true with no round triggered must not perturb the simulation: the service
  // draws from its own derived RNG stream and schedules nothing on its own. Same events,
  // same virtual clock, same state as the PR 9 durable-only engine.
  ClusterConfig plain = CheckpointConfig();
  plain.checkpoint = false;
  Cluster reference(plain);
  reference.scheduler().Spawn(PopulateWorkload(&reference, 10));
  reference.scheduler().Run();

  Cluster with_tier(CheckpointConfig());
  with_tier.scheduler().Spawn(PopulateWorkload(&with_tier, 10));
  with_tier.scheduler().Run();

  EXPECT_EQ(reference.checkpoint_service(), nullptr);
  EXPECT_NE(with_tier.checkpoint_service(), nullptr);
  EXPECT_EQ(with_tier.scheduler().events_processed(), reference.scheduler().events_processed());
  EXPECT_EQ(with_tier.scheduler().Now(), reference.scheduler().Now());
  EXPECT_EQ(StateChecksum(with_tier, kKvKeys, kObjects),
            StateChecksum(reference, kKvKeys, kObjects));

  // And recovery without the tier still full-replays identically.
  uint64_t before = StateChecksum(reference, kKvKeys, kObjects);
  reference.KillRestartStorage();
  PrintRecovery("checkpoint-off", reference);
  EXPECT_FALSE(reference.last_log_recovery().used_checkpoint);
  EXPECT_EQ(StateChecksum(reference, kKvKeys, kObjects), before);
}

TEST(CheckpointRecoveryTest, GcFrontierIsClampedWhileARoundIsInFlight) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 6));
  cluster.scheduler().Run();

  EXPECT_EQ(cluster.CheckpointBound(), sharedlog::kMaxSeqNum);
  ASSERT_TRUE(cluster.checkpoint_service()->TriggerRound());
  // While the walk is pending, the bound fences GC at the round-start watermark.
  EXPECT_LE(cluster.CheckpointBound(), cluster.log_durability()->durable_seq() + 1);
  cluster.scheduler().Run();
  EXPECT_EQ(cluster.CheckpointBound(), sharedlog::kMaxSeqNum);
}

// Appends four records under the instance-shaped tag `name`, two of them shared with the
// long-lived "k:a" stream (as HM-read's write records are).
sim::Task<void> AppendInstance(Cluster* cluster, std::string name) {
  sharedlog::LogClient& log = cluster->node(0).log();
  for (int i = 0; i < 4; ++i) {
    std::vector<std::string> tags = {name};
    if (i % 2 == 1) tags.push_back("k:a");
    co_await log.Append(std::move(tags), Fields("step", i));
  }
}

void Append(Cluster& cluster, const std::string& name) {
  cluster.scheduler().Spawn(AppendInstance(&cluster, name));
  cluster.scheduler().Run();
}

TagId Retire(Cluster& cluster, const std::string& name) {
  sharedlog::ShardedLog& log = cluster.log_space();
  TagId tag = log.tags().Find(name);
  log.Retire(cluster.scheduler().Now(), tag);
  return tag;
}

// Retirements before the checkpoint cut (a0, a1), between the records and the cut (a3:
// retired after the round is triggered, before its walk), across it (a2: records in the
// image, kRetire frame in the suffix), after it (c0), and one whose frame the kill destroys
// (c1). Returns the ids retired before the walk ran.
std::vector<TagId> RetirementScenario(Cluster& cluster, bool take_checkpoint) {
  sharedlog::ShardedLog& log = cluster.log_space();
  for (const char* name : {"a0", "a1", "a2", "a3"}) Append(cluster, name);
  std::vector<TagId> before_walk = {Retire(cluster, "a0"), Retire(cluster, "a1")};
  cluster.scheduler().Run();
  EXPECT_EQ(log.ReleaseRetired(), 2u);
  if (take_checkpoint) {
    EXPECT_TRUE(cluster.checkpoint_service()->TriggerRound());
  }
  before_walk.push_back(Retire(cluster, "a3"));
  cluster.scheduler().Run();
  Retire(cluster, "a2");
  cluster.scheduler().Run();
  Append(cluster, "c0");
  Append(cluster, "c1");
  Retire(cluster, "c0");
  cluster.scheduler().Run();
  EXPECT_EQ(log.ReleaseRetired(), 3u);
  Retire(cluster, "c1");  // Still in the journal's volatile tail at the kill.
  EXPECT_EQ(log.pending_retirements(), 1u);
  return before_walk;
}

TEST(CheckpointRecoveryTest, RetirementsAroundTheCutMatchFullReplay) {
  // Full-replay reference: the same scenario on the durable engine without checkpoints.
  ClusterConfig reference_config = CheckpointConfig();
  reference_config.checkpoint = false;
  Cluster reference(reference_config);
  RetirementScenario(reference, /*take_checkpoint=*/false);
  uint64_t acked = StateChecksum(reference, kKvKeys, kObjects);
  reference.KillRestartStorage();
  EXPECT_FALSE(reference.last_log_recovery().used_checkpoint);
  EXPECT_EQ(StateChecksum(reference, kKvKeys, kObjects), acked);

  Cluster cluster(CheckpointConfig());
  std::vector<TagId> retired_at_walk = RetirementScenario(cluster, /*take_checkpoint=*/true);
  EXPECT_EQ(cluster.checkpoint_service()->stats().rounds_completed, 1);
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), acked);
  cluster.KillRestartStorage();
  PrintRecovery("retirements", cluster);
  EXPECT_TRUE(cluster.last_log_recovery().used_checkpoint);
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), acked);

  // The image carries no stream of a tag retired before the walk reached it.
  storage::CheckpointStore* store = cluster.log_checkpoint_store();
  int image_streams = 0;
  storage::ReplayFrames(store->buffer(), store->retained(), store->durable(),
                        [&](storage::FrameType type, storage::Cursor cursor) {
                          if (type != storage::FrameType::kCkptTagStream) return;
                          ++image_streams;
                          TagId tag = cursor.U64();
                          for (TagId retired : retired_at_walk) EXPECT_NE(tag, retired);
                        });
  EXPECT_GT(image_streams, 0);

  // Both recoveries re-issued c1's lost retirement; once it flushes, every retired id is
  // released and nothing of the instances is left live.
  for (Cluster* c : {&reference, &cluster}) {
    c->scheduler().Run();
    c->log_space().ReleaseRetired();
    EXPECT_EQ(c->log_space().pending_retirements(), 0u);
    for (const char* name : {"a0", "a1", "a2", "a3", "c0", "c1"}) {
      EXPECT_EQ(c->log_space().tags().Find(name), sharedlog::kInvalidTagId) << name;
    }
    EXPECT_EQ(halfmoon::testing::LiveStreamNames(c->log_space(), "k:a"),
              std::vector<std::string>{"k:a"});
  }
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects),
            StateChecksum(reference, kKvKeys, kObjects));
}

TEST(CheckpointRecoveryTest, SpilledStreamsSurviveReplayAndImage) {
  // One page of tags, all instances but "k:a" — once they retire the page compacts to k:a's
  // slot alone, moving its name and stream. Both restart paths must rebuild that exactly:
  // full replay (retired ids' records land in transient streams outside the registry) and
  // image + suffix (the walk must find the moved stream).
  Cluster cluster(CheckpointConfig());
  sharedlog::ShardedLog& log = cluster.log_space();
  while (log.tags().size() % sharedlog::TagRegistry::kPageIds != 0) {
    log.tags().Intern("pad" + std::to_string(log.tags().size()));
  }
  Append(cluster, "i0");  // Interns i0, then k:a, inside the fresh page.
  std::vector<std::string> instances = {"i0"};
  while (log.tags().size() % sharedlog::TagRegistry::kPageIds != 0) {
    instances.push_back("i" + std::to_string(instances.size()));
    Append(cluster, instances.back());
  }
  const size_t bytes = log.tags().SlotBytes();
  for (const std::string& name : instances) Retire(cluster, name);
  cluster.scheduler().Run();
  EXPECT_EQ(log.ReleaseRetired(), instances.size());
  // The page holds k:a's slot alone (a registry slot is a name and a stream).
  constexpr size_t kSlotBytes = sizeof(std::string) + sizeof(sharedlog::TagStream);
  EXPECT_EQ(log.tags().SlotBytes(), bytes - instances.size() * kSlotBytes);
  uint64_t acked = StateChecksum(cluster, kKvKeys, kObjects);

  cluster.KillRestartStorage();
  EXPECT_FALSE(cluster.last_log_recovery().used_checkpoint);
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), acked);

  CheckpointOnce(cluster);
  Append(cluster, "late");
  acked = StateChecksum(cluster, kKvKeys, kObjects);
  cluster.KillRestartStorage();
  PrintRecovery("spilled", cluster);
  EXPECT_TRUE(cluster.last_log_recovery().used_checkpoint);
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), acked);
  EXPECT_EQ(log.ReadStream("k:a").size(), instances.size() * 2 + 2);
}

// Where one journal's bytes live: the buffer holds the block under the durable frontier and
// the volatile tail, the device holds the retained durable bytes in whole pages. Returns
// whether that is the one-copy layout, and appends the journal's figures to *line.
bool OneCopy(const char* name, const storage::DurabilityService& journal, std::string* line) {
  const uint64_t buffer = journal.buffer().resident_bytes();
  const uint64_t volatile_bytes = journal.tail_offset() - journal.durable_offset();
  const uint64_t device = journal.device().resident_bytes();
  const uint64_t retained = journal.durable_offset() - journal.retained_offset();
  char text[160];
  std::snprintf(text, sizeof(text), "%s buffer=%llu volatile=%llu device=%llu retained=%llu",
                name, static_cast<unsigned long long>(buffer),
                static_cast<unsigned long long>(volatile_bytes),
                static_cast<unsigned long long>(device),
                static_cast<unsigned long long>(retained));
  *line += text;
  // The retained bytes must outweigh the buffer's allowance, or a second copy would pass.
  EXPECT_GT(retained, 2 * storage::kBlockSize) << name;
  return buffer <= volatile_bytes + storage::kBlockSize &&
         device <= retained + storage::kBlockSize + 2 * storage::kPageSize;
}

TEST(CheckpointRecoveryTest, DurableBytesAreHeldOnce) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 48));
  cluster.scheduler().Run();
  CheckpointOnce(cluster);
  // Post-checkpoint work, left partly unflushed: the journals then carry a retained suffix
  // and a volatile tail.
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 16));
  cluster.scheduler().Run();
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 2));
  const storage::DurabilityService& log = *cluster.log_durability();
  const SimTime give_up = cluster.scheduler().Now() + Milliseconds(100);
  while (log.tail_offset() == log.durable_offset()) {
    ASSERT_LT(cluster.scheduler().Now(), give_up) << "no log append reached the journal";
    cluster.scheduler().RunUntil(cluster.scheduler().Now() + Microseconds(10));
  }

  std::string line = "[storage] residency: ";
  bool one_copy = OneCopy("log", log, &line);
  line += " | ";
  one_copy = OneCopy("kv", *cluster.kv_durability(), &line) && one_copy;
  std::printf("%s | %s\n", line.c_str(), one_copy ? "one-copy" : "SECOND-COPY");
  EXPECT_TRUE(one_copy);

  // The one-copy layout still recovers exactly what was acknowledged.
  cluster.scheduler().Run();
  uint64_t acked = StateChecksum(cluster, kKvKeys, kObjects);
  cluster.KillRestartStorage();
  EXPECT_TRUE(cluster.last_log_recovery().used_checkpoint);
  EXPECT_EQ(StateChecksum(cluster, kKvKeys, kObjects), acked);
}

}  // namespace
}  // namespace halfmoon::runtime
