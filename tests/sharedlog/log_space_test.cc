#include "src/sharedlog/sharded_log.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/storage/checkpoint.h"
#include "src/storage/journal.h"
#include "tests/testing/live_streams.h"

namespace halfmoon::sharedlog {
namespace {

using halfmoon::testing::LiveStreamNames;

FieldMap Fields(const std::string& op, int64_t step) {
  FieldMap f;
  f.SetStr("op", op);
  f.SetInt("step", step);
  return f;
}

// A conditional atomic batch (Boki's batched cond-append) as a one-request AppendGroup round,
// sequenced by the shard owning `cond_tag`.
ShardedLog::GroupVerdict CondBatch(ShardedLog& log, std::vector<ShardedLog::BatchEntry> batch,
                                   TagId cond_tag, size_t cond_pos) {
  std::vector<ShardedLog::GroupRequest> requests(1);
  requests[0].entries = std::move(batch);
  requests[0].cond_tag = cond_tag;
  requests[0].cond_pos = cond_pos;
  return log.AppendGroup(log.ShardOfTag(cond_tag), 0, std::move(requests))[0];
}

TEST(LogSpaceTest, AppendAssignsMonotonicSeqnums) {
  ShardedLog log;
  SeqNum a = log.Append(0, OneTag("t"), Fields("x", 0));
  SeqNum b = log.Append(0, OneTag("t"), Fields("x", 1));
  SeqNum c = log.Append(0, OneTag("u"), Fields("x", 2));
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(LogSpaceTest, SeqnumsStartAboveZero) {
  // Seqnum 0 is reserved as "before everything" (fresh objects carry version 0).
  ShardedLog log;
  EXPECT_GT(log.Append(0, OneTag("t"), Fields("x", 0)), 0u);
}

TEST(LogSpaceTest, ReadPrevFindsLatestAtOrBefore) {
  ShardedLog log;
  SeqNum a = log.Append(0, OneTag("t"), Fields("a", 0));
  SeqNum b = log.Append(0, OneTag("t"), Fields("b", 0));
  log.Append(0, OneTag("t"), Fields("c", 0));

  auto at_b = log.ReadPrev("t", b);
  ASSERT_TRUE(at_b != nullptr);
  EXPECT_EQ(at_b->fields.GetStr("op"), "b");

  auto between = log.ReadPrev("t", b - 1);
  ASSERT_TRUE(between != nullptr);
  EXPECT_EQ(between->seqnum, a);

  EXPECT_EQ(log.ReadPrev("t", a - 1), nullptr);
  auto latest = log.ReadPrev("t", kMaxSeqNum);
  ASSERT_TRUE(latest != nullptr);
  EXPECT_EQ(latest->fields.GetStr("op"), "c");
}

TEST(LogSpaceTest, ReadPrevRespectsSubStreams) {
  ShardedLog log;
  log.Append(0, OneTag("t1"), Fields("one", 0));
  log.Append(0, OneTag("t2"), Fields("two", 0));
  auto r = log.ReadPrev("t1", kMaxSeqNum);
  ASSERT_TRUE(r != nullptr);
  EXPECT_EQ(r->fields.GetStr("op"), "one");
  EXPECT_EQ(log.ReadPrev("t3", kMaxSeqNum), nullptr);
}

TEST(LogSpaceTest, ReadNextFindsEarliestAtOrAfter) {
  ShardedLog log;
  log.Append(0, OneTag("t"), Fields("a", 0));
  SeqNum b = log.Append(0, OneTag("t"), Fields("b", 0));
  auto r = log.ReadNext("t", b);
  ASSERT_TRUE(r != nullptr);
  EXPECT_EQ(r->fields.GetStr("op"), "b");
  EXPECT_EQ(log.ReadNext("t", b + 1), nullptr);
}

TEST(LogSpaceTest, MultiTagRecordsAppearInAllStreams) {
  ShardedLog log;
  SeqNum s = log.Append(0, TwoTags("step", "obj"), Fields("w", 1));
  EXPECT_EQ(log.ReadPrev("step", kMaxSeqNum)->seqnum, s);
  EXPECT_EQ(log.ReadPrev("obj", kMaxSeqNum)->seqnum, s);
}

TEST(LogSpaceTest, ReadStreamReturnsRecordsInOrder) {
  ShardedLog log;
  log.Append(0, OneTag("t"), Fields("a", 0));
  log.Append(0, OneTag("u"), Fields("skip", 0));
  log.Append(0, OneTag("t"), Fields("b", 1));
  std::vector<LogRecordPtr> stream = log.ReadStream("t");
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0]->fields.GetStr("op"), "a");
  EXPECT_EQ(stream[1]->fields.GetStr("op"), "b");
}

TEST(LogSpaceTest, TrimRemovesPrefixOfSubStream) {
  ShardedLog log;
  SeqNum a = log.Append(0, OneTag("t"), Fields("a", 0));
  SeqNum b = log.Append(0, OneTag("t"), Fields("b", 1));
  log.Trim(0, "t", a);
  EXPECT_EQ(log.ReadPrev("t", a), nullptr);
  EXPECT_EQ(log.ReadPrev("t", kMaxSeqNum)->seqnum, b);
  EXPECT_EQ(log.ReadStream("t").size(), 1u);
}

TEST(LogSpaceTest, TrimFreesStorageOnlyWhenAllTagsTrimmed) {
  ShardedLog log;
  log.Append(0, TwoTags("a", "b"), Fields("w", 0));
  int64_t full = log.CurrentBytes();
  ASSERT_GT(full, 0);
  log.Trim(0, "a", kMaxSeqNum);
  EXPECT_EQ(log.CurrentBytes(), full);  // Still referenced by "b".
  EXPECT_EQ(log.live_records(), 1u);
  log.Trim(0, "b", kMaxSeqNum);
  EXPECT_EQ(log.CurrentBytes(), 0);
  EXPECT_EQ(log.live_records(), 0u);
}

TEST(LogSpaceTest, StreamLengthCountsTrimmedHistory) {
  // Logical offsets must be stable across trims (logCondAppend positions).
  ShardedLog log;
  log.Append(0, OneTag("t"), Fields("a", 0));
  log.Append(0, OneTag("t"), Fields("b", 1));
  log.Trim(0, "t", kMaxSeqNum);
  EXPECT_EQ(log.StreamLength("t"), 2u);
}

TEST(LogSpaceTest, CondAppendSucceedsAtExpectedOffset) {
  ShardedLog log;
  CondAppendResult r0 = log.CondAppend(0, OneTag("s"), Fields("init", 0), "s", 0);
  EXPECT_TRUE(r0.ok);
  CondAppendResult r1 = log.CondAppend(0, OneTag("s"), Fields("read", 1), "s", 1);
  EXPECT_TRUE(r1.ok);
  EXPECT_GT(r1.seqnum, r0.seqnum);
}

TEST(LogSpaceTest, CondAppendConflictReturnsExistingRecord) {
  ShardedLog log;
  CondAppendResult winner = log.CondAppend(0, OneTag("s"), Fields("init", 0), "s", 0);
  CondAppendResult loser = log.CondAppend(0, OneTag("s"), Fields("init", 0), "s", 0);
  EXPECT_FALSE(loser.ok);
  EXPECT_EQ(loser.existing_seqnum, winner.seqnum);
  // The losing append left no trace.
  EXPECT_EQ(log.StreamLength("s"), 1u);
}

TEST(LogSpaceTest, CondAppendBatchCommitsConsecutively) {
  ShardedLog log;
  TagId s = log.tags().Intern("s");
  TagId kx = log.tags().Intern("k:x");
  std::vector<ShardedLog::BatchEntry> batch(2);
  batch[0].tags = OneTag(s);
  batch[0].fields = Fields("write-pre", 1);
  batch[1].tags = TwoTags(s, kx);
  batch[1].fields = Fields("write", 1);
  ShardedLog::GroupVerdict r = CondBatch(log, std::move(batch), s, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(log.StreamLength("s"), 2u);
  auto commit = log.ReadPrev("k:x", kMaxSeqNum);
  ASSERT_TRUE(commit != nullptr);
  EXPECT_EQ(commit->seqnum, r.seqnum + 1);
}

TEST(LogSpaceTest, CondAppendBatchConflictIsAllOrNothing) {
  ShardedLog log;
  log.CondAppend(0, OneTag("s"), Fields("init", 0), "s", 0);
  TagId s = log.tags().Find("s");
  TagId kx = log.tags().Intern("k:x");
  std::vector<ShardedLog::BatchEntry> batch(2);
  batch[0].tags = OneTag(s);
  batch[0].fields = Fields("write-pre", 1);
  batch[1].tags = TwoTags(s, kx);
  batch[1].fields = Fields("write", 1);
  ShardedLog::GroupVerdict r = CondBatch(log, std::move(batch), s, 0);  // Stale offset.
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(log.StreamLength("s"), 1u);
  EXPECT_EQ(log.ReadPrev("k:x", kMaxSeqNum), nullptr);
}

TEST(LogSpaceTest, FindFirstByStepHonorsStreamOrder) {
  ShardedLog log;
  SeqNum first = log.Append(0, OneTag("s"), Fields("read", 3));
  log.Append(0, OneTag("s"), Fields("read", 3));  // A racing duplicate.
  auto r = log.FindFirstByStep("s", "read", 3);
  ASSERT_TRUE(r != nullptr);
  EXPECT_EQ(r->seqnum, first);
  EXPECT_EQ(log.FindFirstByStep("s", "read", 4), nullptr);
}

TEST(LogSpaceTest, LiveTagsWithPrefixListsLiveStreamsSortedByName) {
  ShardedLog log;
  // Interned out of name order: the result is sorted by name, not by id.
  log.Append(0, OneTag("k:b"), Fields("w", 0));
  log.Append(0, OneTag("k:a"), Fields("w", 0));
  log.Append(0, OneTag("other"), Fields("w", 0));
  EXPECT_EQ(LiveStreamNames(log, "k:"), (std::vector<std::string>{"k:a", "k:b"}));
  EXPECT_EQ(LiveStreamNames(log, ""), (std::vector<std::string>{"k:a", "k:b", "other"}));
  log.Trim(0, "k:a", kMaxSeqNum);
  EXPECT_EQ(LiveStreamNames(log, "k:"), std::vector<std::string>{"k:b"});
  // A retiring tag is not live, even before its retirement is released.
  log.Retire(0, log.tags().Find("other"));
  EXPECT_EQ(LiveStreamNames(log, ""), std::vector<std::string>{"k:b"});
}

TEST(LogSpaceTest, ReadsAliasTheStoredRecordWithoutCopying) {
  // Every read API must return a view of the one committed record, not a duplicate.
  ShardedLog log;
  SeqNum s = log.Append(0, TwoTags("t", "u"), Fields("read", 5));
  LogRecordPtr stored = log.Get(s);
  ASSERT_TRUE(stored != nullptr);
  EXPECT_EQ(log.ReadPrev("t", kMaxSeqNum).get(), stored.get());
  EXPECT_EQ(log.ReadNext("u", 0).get(), stored.get());
  EXPECT_EQ(log.FindFirstByStep("t", "read", 5).get(), stored.get());
  std::vector<LogRecordPtr> stream = log.ReadStream("t");
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0].get(), stored.get());
}

TEST(LogSpaceTest, TrimCompactsStreamIndexMemory) {
  // Regression: the old index kept every trimmed seqnum forever, so a long-lived stream's
  // index grew without bound. The compacted index must stay bounded by the live suffix.
  ShardedLog log;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 10; ++i) {
      log.Append(0, OneTag("t"), Fields("w", cycle * 10 + i));
    }
    log.Trim(0, "t", kMaxSeqNum);
    EXPECT_EQ(log.IndexEntries(), 0u);
    EXPECT_EQ(log.live_records(), 0u);
    EXPECT_EQ(log.CurrentBytes(), 0);
  }
  // Logical offsets keep counting the full (trimmed) history.
  EXPECT_EQ(log.StreamLength("t"), 1000u);
}

TEST(LogSpaceTest, FullyTrimmedStreamsLeaveNoResidue) {
  // Regression for the fully-trimmed-stream leak: after every stream of a batch of objects
  // is trimmed, neither the record store nor the per-tag indices may retain anything, and
  // no stream is listed live.
  ShardedLog log;
  for (int i = 0; i < 50; ++i) {
    log.Append(0, OneTag("k:obj" + std::to_string(i)), Fields("w", i));
  }
  EXPECT_EQ(log.LiveTagsWithPrefix("k:").size(), 50u);
  for (int i = 0; i < 50; ++i) {
    log.Trim(0, "k:obj" + std::to_string(i), kMaxSeqNum);
  }
  EXPECT_EQ(log.live_records(), 0u);
  EXPECT_EQ(log.IndexEntries(), 0u);
  EXPECT_TRUE(log.LiveTagsWithPrefix("k:").empty());
}

TEST(LogSpaceTest, FullyTrimmedStreamsGiveTheirIndexBufferBack) {
  // Regression: each stream used to hold a std::deque, which allocates ~576 B even when
  // empty, so every tag ever appended kept index memory after a full trim. A fully trimmed
  // stream must own no buffer at all.
  ShardedLog log;
  constexpr int kTags = 10000;
  for (int i = 0; i < kTags; ++i) {
    std::string tag = "step:" + std::to_string(i);
    log.Append(0, OneTag(tag), Fields("w", 0));
    log.Append(0, OneTag(tag), Fields("w", 1));
  }
  EXPECT_GE(log.IndexCapacity(), 2u * kTags);
  for (int i = 0; i < kTags; ++i) {
    log.Trim(0, "step:" + std::to_string(i), kMaxSeqNum);
  }
  EXPECT_EQ(log.IndexEntries(), 0u);
  EXPECT_EQ(log.IndexCapacity(), 0u);
  EXPECT_EQ(log.live_records(), 0u);
  EXPECT_EQ(log.RecordPages(0), 0u);
}

TEST(LogSpaceTest, IncrementalTrimKeepsOrderAndOffsets) {
  // Trimming one entry at a time exercises the deferred prefix compaction: reads, logical
  // offsets and conflict reports must see exactly the untrimmed suffix after every step.
  ShardedLog log;
  std::vector<SeqNum> seqs;
  for (int i = 0; i < 100; ++i) seqs.push_back(log.Append(0, OneTag("t"), Fields("w", i)));
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(log.Trim(0, "t", seqs[i]), 1u);
    EXPECT_EQ(log.IndexEntries(), seqs.size() - i - 1);
    EXPECT_EQ(log.StreamLength("t"), seqs.size());
    if (i + 1 == seqs.size()) break;
    EXPECT_EQ(log.ReadNext("t", 0)->seqnum, seqs[i + 1]);
    EXPECT_EQ(log.ReadPrev("t", kMaxSeqNum)->seqnum, seqs.back());
    CondAppendResult stale = log.CondAppend(0, OneTag("t"), Fields("x", 0), "t", i + 1);
    ASSERT_FALSE(stale.ok);
    EXPECT_EQ(stale.existing_seqnum, seqs[i + 1]);
  }
  EXPECT_EQ(log.IndexCapacity(), 0u);
}

TEST(LogSpaceTest, CondAppendOffsetsStayStableAfterCompaction) {
  // A trimmed prefix must not shift logCondAppend positions: the next logical offset is the
  // full-history length, and appends at stale offsets still conflict.
  ShardedLog log;
  ASSERT_TRUE(log.CondAppend(0, OneTag("s"), Fields("a", 0), "s", 0).ok);
  ASSERT_TRUE(log.CondAppend(0, OneTag("s"), Fields("b", 1), "s", 1).ok);
  log.Trim(0, "s", kMaxSeqNum);
  ASSERT_EQ(log.StreamLength("s"), 2u);
  CondAppendResult next = log.CondAppend(0, OneTag("s"), Fields("c", 2), "s", 2);
  EXPECT_TRUE(next.ok);
  EXPECT_EQ(log.StreamLength("s"), 3u);
}

TEST(LogSpaceTest, CondAppendBatchThenPartialTrimReleasesRefs) {
  ShardedLog log;
  TagId s = log.tags().Intern("s");
  std::vector<ShardedLog::BatchEntry> batch(3);
  for (int i = 0; i < 3; ++i) {
    batch[static_cast<size_t>(i)].tags = OneTag(s);
    batch[static_cast<size_t>(i)].fields = Fields("w", i);
  }
  ShardedLog::GroupVerdict r = CondBatch(log, std::move(batch), s, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(log.live_records(), 3u);

  // Trim past the first two records of the batch: their storage is released, the survivor
  // stays readable, and FindFirstByStep only sees live records.
  log.Trim(0, s, r.seqnum + 1);
  EXPECT_EQ(log.live_records(), 1u);
  EXPECT_EQ(log.IndexEntries(), 1u);
  EXPECT_EQ(log.FindFirstByStep("s", "w", 0), nullptr);
  EXPECT_EQ(log.FindFirstByStep("s", "w", 1), nullptr);
  LogRecordPtr survivor = log.FindFirstByStep("s", "w", 2);
  ASSERT_TRUE(survivor != nullptr);
  EXPECT_EQ(survivor->seqnum, r.seqnum + 2);
  // A view handed out before the trim keeps the record alive independently of the store.
  LogRecordPtr held = log.Get(r.seqnum + 2);
  log.Trim(0, "s", kMaxSeqNum);
  EXPECT_EQ(log.live_records(), 0u);
  EXPECT_EQ(held->fields.GetInt("step"), 2);
}

TEST(LogSpaceTest, CommitListenerFiresPerAppend) {
  ShardedLog log;
  std::vector<SeqNum> seen;
  log.SetCommitListener([&](SeqNum s) { seen.push_back(s); });
  SeqNum a = log.Append(0, OneTag("t"), Fields("a", 0));
  SeqNum b = log.Append(0, OneTag("t"), Fields("b", 0));
  EXPECT_EQ(seen, (std::vector<SeqNum>{a, b}));
}

TEST(LogSpaceTest, CondAppendBatchMismatchLeavesNoTrace) {
  // The undo path of a failed batch must restore every observable structure: seqnum counter,
  // record store, stream indices, and the commit listener must stay silent.
  ShardedLog log;
  TagId s = log.tags().Intern("s");
  TagId kx = log.tags().Intern("k:x");
  log.CondAppend(0, OneTag(s), Fields("init", 0), s, 0);
  SeqNum next_before = log.next_seqnum();
  size_t live_before = log.live_records();
  size_t index_before = log.IndexEntries();
  int64_t bytes_before = log.CurrentBytes();
  int listener_calls = 0;
  log.SetCommitListener([&](SeqNum) { ++listener_calls; });

  std::vector<ShardedLog::BatchEntry> batch(2);
  batch[0].tags = OneTag(s);
  batch[0].fields = Fields("write-pre", 1);
  batch[1].tags = TwoTags(s, kx);
  batch[1].fields = Fields("write", 1);
  ShardedLog::GroupVerdict r = CondBatch(log, std::move(batch), s, /*cond_pos=*/0);

  EXPECT_FALSE(r.ok);
  EXPECT_EQ(log.next_seqnum(), next_before);
  EXPECT_EQ(log.live_records(), live_before);
  EXPECT_EQ(log.IndexEntries(), index_before);
  EXPECT_EQ(log.CurrentBytes(), bytes_before);
  EXPECT_EQ(listener_calls, 0);
}

TEST(LogSpaceTest, AppendGroupMixedVerdicts) {
  // One group-committed round carrying an unconditional request, a passing cond request, a
  // conflicting cond request, and a trailing unconditional one. Each request sees the stream
  // state left by its predecessors; the conflicting one leaves no trace; the listener fires
  // exactly once, with the round's last committed seqnum.
  ShardedLog log;
  TagId s = log.tags().Intern("s");
  TagId t = log.tags().Intern("t");
  std::vector<SeqNum> listener_calls;
  log.SetCommitListener([&](SeqNum n) { listener_calls.push_back(n); });

  std::vector<ShardedLog::GroupRequest> requests(4);
  requests[0].entries.push_back({OneTag(t), Fields("a", 0)});
  requests[1].entries.push_back({OneTag(s), Fields("b", 0)});
  requests[1].cond_tag = s;
  requests[1].cond_pos = 0;
  requests[2].entries.push_back({OneTag(s), Fields("c", 0)});
  requests[2].cond_tag = s;
  requests[2].cond_pos = 0;  // Stale: request 1 already took offset 0.
  requests[3].entries.push_back({TwoTags(s, t), Fields("d", 1)});

  std::vector<ShardedLog::GroupVerdict> verdicts =
      log.AppendGroup(/*shard=*/0, /*now=*/0, std::move(requests));
  ASSERT_EQ(verdicts.size(), 4u);
  EXPECT_TRUE(verdicts[0].ok);
  EXPECT_TRUE(verdicts[1].ok);
  EXPECT_FALSE(verdicts[2].ok);
  EXPECT_EQ(verdicts[2].existing_seqnum, verdicts[1].seqnum);
  EXPECT_TRUE(verdicts[3].ok);
  // Committed seqnums are consecutive across the surviving requests.
  EXPECT_EQ(verdicts[1].seqnum, verdicts[0].seqnum + 1);
  EXPECT_EQ(verdicts[3].seqnum, verdicts[1].seqnum + 1);
  EXPECT_EQ(log.live_records(), 3u);
  EXPECT_EQ(log.StreamLength("s"), 2u);  // "b" and "d"; "c" left no trace.
  ASSERT_EQ(listener_calls.size(), 1u);
  EXPECT_EQ(listener_calls[0], verdicts[3].seqnum);
}

TEST(LogSpaceTest, AppendGroupAllConflictingKeepsListenerSilent) {
  ShardedLog log;
  TagId s = log.tags().Intern("s");
  log.CondAppend(0, OneTag(s), Fields("init", 0), s, 0);
  int listener_calls = 0;
  log.SetCommitListener([&](SeqNum) { ++listener_calls; });
  std::vector<ShardedLog::GroupRequest> requests(2);
  for (auto& request : requests) {
    request.entries.push_back({OneTag(s), Fields("x", 0)});
    request.cond_tag = s;
    request.cond_pos = 0;  // Both stale.
  }
  std::vector<ShardedLog::GroupVerdict> verdicts =
      log.AppendGroup(/*shard=*/0, /*now=*/0, std::move(requests));
  EXPECT_FALSE(verdicts[0].ok);
  EXPECT_FALSE(verdicts[1].ok);
  EXPECT_EQ(listener_calls, 0);
  EXPECT_EQ(log.live_records(), 1u);
}

TEST(LogSpaceTest, AppendGroupMultiEntryRequestCommitsAtomically) {
  // A request's entries are an atomic sub-group (the batched cond-append shape): on success
  // they take consecutive seqnums, on conflict none of them appear.
  ShardedLog log;
  TagId s = log.tags().Intern("s");
  std::vector<ShardedLog::GroupRequest> requests(2);
  requests[0].entries.push_back({OneTag(s), Fields("pre", 0)});
  requests[0].entries.push_back({OneTag(s), Fields("commit", 0)});
  requests[0].cond_tag = s;
  requests[0].cond_pos = 0;
  requests[1].entries.push_back({OneTag(s), Fields("pre", 1)});
  requests[1].entries.push_back({OneTag(s), Fields("commit", 1)});
  requests[1].cond_tag = s;
  requests[1].cond_pos = 0;  // Conflicts: request 0 grew the stream to length 2.
  std::vector<ShardedLog::GroupVerdict> verdicts =
      log.AppendGroup(/*shard=*/0, /*now=*/0, std::move(requests));
  EXPECT_TRUE(verdicts[0].ok);
  EXPECT_FALSE(verdicts[1].ok);
  EXPECT_EQ(verdicts[1].existing_seqnum, verdicts[0].seqnum);
  EXPECT_EQ(log.StreamLength("s"), 2u);
  EXPECT_EQ(log.live_records(), 2u);
}

TEST(LogSpaceTest, OpIdsAreInternedAndStamped) {
  // Protocol op names are pre-interned to the kOp* constants; Append stamps each record's
  // dense op id so FindFirstByStep scans with integer compares.
  ShardedLog log;
  EXPECT_EQ(log.ops().Find("read"), kOpRead);
  EXPECT_EQ(log.ops().Find("write"), kOpWrite);
  EXPECT_EQ(log.ops().Find("invoke-pre"), kOpInvokePre);
  SeqNum s = log.Append(0, OneTag("t"), Fields("write", 3));
  EXPECT_EQ(log.Get(s)->op, kOpWrite);
  EXPECT_EQ(log.FindFirstByStep(log.tags().Find("t"), kOpWrite, 3)->seqnum, s);
  // A record without an "op" field carries the invalid id and never matches a step scan.
  FieldMap opless;
  opless.SetInt("step", 3);
  SeqNum u = log.Append(0, OneTag("u"), std::move(opless));
  EXPECT_EQ(log.Get(u)->op, kInvalidOpId);
  EXPECT_EQ(log.FindFirstByStep("u", "no-such-op", 3), nullptr);
}

TEST(LogSpaceTest, ByteAccountingMatchesRecordSizes) {
  ShardedLog log;
  EXPECT_EQ(log.CurrentBytes(), 0);
  log.Append(0, OneTag("t"), Fields("a", 0));
  int64_t one = log.CurrentBytes();
  log.Append(0, OneTag("t"), Fields("a", 0));
  EXPECT_EQ(log.CurrentBytes(), 2 * one);
  log.Trim(0, "t", kMaxSeqNum);
  EXPECT_EQ(log.CurrentBytes(), 0);
}

// ---- Record store: seqnum-indexed slots in pages of kRecordPageSlots ----

// The first probe name "<prefix><i>" owned by `shard`.
TagId TagOwnedBy(ShardedLog& log, uint32_t shard, const std::string& prefix = "t") {
  for (int i = 0;; ++i) {
    TagId tag = log.tags().Intern(prefix + std::to_string(i));
    if (log.ShardOfTag(tag) == shard) return tag;
  }
}

TEST(LogSpaceRecordStoreTest, SeqnumsMapToPerShardSlots) {
  constexpr size_t kSlots = ShardedLog::kRecordPageSlots;
  for (uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(shards);
    ShardedLog log(shards);
    TagId first = TagOwnedBy(log, 0);
    TagId last = TagOwnedBy(log, shards - 1);
    // Back-to-back appends sequenced by one shard take consecutive local seqnums
    // (seqnum / shards), starting at 1: locals 1..63 fill page 0 exactly.
    std::vector<SeqNum> run;
    for (size_t i = 1; i < kSlots; ++i) run.push_back(log.Append(0, OneTag(first), Fields("w", 0)));
    for (size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(log.ShardOfSeq(run[i]), 0u);
      EXPECT_EQ(run[i] / shards, i + 1);
    }
    EXPECT_EQ(log.RecordPages(0), 1u);
    SeqNum spill = log.Append(0, OneTag(first), Fields("w", 0));
    EXPECT_EQ(spill / shards, kSlots);
    EXPECT_EQ(log.RecordPages(0), 2u);

    // Interleaved with another shard: each local is taken by exactly one shard, so the two
    // shards' slot spaces are sparse but never collide, and each record stays findable.
    std::vector<SeqNum> a;
    std::vector<SeqNum> b;
    for (int i = 0; i < 10; ++i) {
      a.push_back(log.Append(0, OneTag(first), Fields("a", i)));
      b.push_back(log.Append(0, OneTag(last), Fields("b", i)));
    }
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(log.ShardOfSeq(a[i]), 0u);
      EXPECT_EQ(log.ShardOfSeq(b[i]), shards - 1);
      EXPECT_EQ(b[i] / shards, a[i] / shards + 1);
      EXPECT_EQ(log.Get(a[i])->fields.GetStr("op"), "a");
      EXPECT_EQ(log.Get(b[i])->fields.GetStr("op"), "b");
      EXPECT_EQ(log.Get(a[i])->fields.GetInt("step"), static_cast<int64_t>(i));
    }
    EXPECT_EQ(log.live_records(0), kSlots + 10);
    EXPECT_EQ(log.live_records(shards - 1), 10u);
    EXPECT_EQ(log.RecordPages(shards - 1), 1u);
    for (uint32_t mid = 1; mid + 1 < shards; ++mid) {
      EXPECT_EQ(log.live_records(mid), 0u);
      EXPECT_EQ(log.RecordPages(mid), 0u);
    }
    EXPECT_EQ(log.live_records(), kSlots + 20);
    // A seqnum whose slot was never filled reads as absent, on either side of the store.
    EXPECT_EQ(log.Get(a[0] + shards), nullptr);
    EXPECT_EQ(log.Get(1000 * kSlots * shards), nullptr);
  }
}

TEST(LogSpaceRecordStoreTest, FuzzyRestoreInstallsOutOfOrderAndBelowWatermark) {
  // Replay-suffix on top of a checkpoint image: frames may name seqnums below the restored
  // watermark, in any order, and across pages; each installs into its own slot.
  ShardedLog log;
  TagId t = log.tags().Intern("t");
  TagId u = log.tags().Intern("u");
  log.EnsureWatermark(500);
  log.RestoreRecord(0, 300, OneTag(t), Fields("w", 3), /*fuzzy=*/true);
  log.RestoreRecord(0, 100, TwoTags(t, u), Fields("w", 1), /*fuzzy=*/true);
  log.RestoreRecord(0, 200, OneTag(t), Fields("w", 2), /*fuzzy=*/true);
  EXPECT_EQ(log.next_seqnum(), 501u);  // The watermark never moves down.
  EXPECT_EQ(log.live_records(), 3u);
  EXPECT_EQ(log.RecordPages(0), 3u);  // 100, 200 and 300 sit on pages 1, 3 and 4.
  std::vector<SeqNum> order;
  for (const LogRecordPtr& r : log.ReadStream(t)) order.push_back(r->seqnum);
  EXPECT_EQ(order, (std::vector<SeqNum>{100, 200, 300}));

  // Re-replaying an absorbed frame is a no-op.
  log.RestoreRecord(0, 200, OneTag(t), Fields("w", 2), /*fuzzy=*/true);
  EXPECT_EQ(log.live_records(), 3u);
  EXPECT_EQ(log.IndexEntries(), 4u);

  log.Trim(0, t, kMaxSeqNum);
  EXPECT_EQ(log.live_records(), 1u);  // 100 is still referenced by u.
  EXPECT_EQ(log.RecordPages(0), 1u);
  EXPECT_EQ(log.Get(100)->fields.GetInt("step"), 1);
  log.Trim(0, u, kMaxSeqNum);
  EXPECT_EQ(log.live_records(), 0u);
  EXPECT_EQ(log.RecordPages(0), 0u);
}

TEST(LogSpaceRecordStoreTest, PageIsFreedWithItsLastRecord) {
  ShardedLog log;
  // Seqnums 1..63 fill page 0; 64..70 start page 1. Record 70 also carries tag u.
  for (int i = 1; i < 70; ++i) log.Append(0, OneTag("t"), Fields("w", i));
  SeqNum shared = log.Append(0, TwoTags("t", "u"), Fields("w", 70));
  ASSERT_EQ(shared, 70u);
  EXPECT_EQ(log.RecordPages(0), 2u);
  log.Trim(0, "t", 62);
  EXPECT_EQ(log.RecordPages(0), 2u);  // Seqnum 63 still holds page 0.
  log.Trim(0, "t", 63);
  EXPECT_EQ(log.RecordPages(0), 1u);
  EXPECT_EQ(log.Get(63), nullptr);
  ASSERT_NE(log.Get(64), nullptr);
  log.Trim(0, "t", kMaxSeqNum);
  EXPECT_EQ(log.RecordPages(0), 1u);  // u still references record 70.
  EXPECT_EQ(log.live_records(), 1u);
  log.Trim(0, "u", kMaxSeqNum);
  EXPECT_EQ(log.RecordPages(0), 0u);
  EXPECT_EQ(log.live_records(), 0u);
  EXPECT_EQ(log.CurrentBytes(), 0);
  // A freed page is allocated afresh by a later install on it.
  SeqNum next = log.Append(0, OneTag("t"), Fields("w", 71));
  EXPECT_EQ(log.RecordPages(0), 1u);
  EXPECT_EQ(log.Get(next)->fields.GetInt("step"), 71);
}

TEST(LogSpaceRecordStoreTest, BytesFollowLiveRecordsNotSeqnumHistory) {
  // 10 K objects each written once among ~10^6 short-lived step records, trimmed as they go:
  // nearly every 64-seqnum page ends up holding one object record. The store must cost those
  // live records plus one page-table entry per page of history, not a page per record.
  ShardedLog log;
  constexpr size_t kObjects = 10000;
  constexpr int kStepsPerObject = 100;
  const TagId steps = log.tags().Intern("steps");
  for (size_t i = 0; i < kObjects; ++i) {
    SeqNum last = 0;
    for (int j = 0; j < kStepsPerObject; ++j) last = log.Append(0, OneTag(steps), Fields("r", j));
    TagId object = log.tags().Intern("k:" + std::to_string(i));
    log.Append(0, OneTag(object), Fields("w", static_cast<int64_t>(i)));
    log.Trim(0, steps, last);
  }
  ASSERT_EQ(log.live_records(), kObjects);
  constexpr size_t kSlot = sizeof(LogRecordPtr) + 8;  // StoredRecord (see sharded_log.cc).
  constexpr size_t kPageSlots = ShardedLog::kRecordPageSlots;
  const size_t history_pages = log.next_seqnum() / kPageSlots + 1;
  // The halving rule's bound: slot arrays at most twice the live records plus one young page,
  // a header per page holding a record, and the page table at most twice (vector growth) one
  // entry per page of history.
  using Pages = SparsePages<int, kPageSlots>;
  const size_t bound = 2 * kObjects * kSlot + kPageSlots * kSlot +
                       (kObjects + 1) * Pages::kPageHeaderBytes +
                       2 * history_pages * Pages::kPageEntryBytes;
  const size_t bytes = log.RecordStoreBytes(0);
  const bool live_sized = bytes <= bound;
  std::printf("[mem] record store: %zu live records over %llu seqnums in %zu pages, %zu KiB "
              "(bound %zu KiB; a dense page each: %zu KiB) | %s\n",
              log.live_records(), static_cast<unsigned long long>(log.next_seqnum() - 1),
              log.RecordPages(0), bytes / 1024, bound / 1024,
              log.RecordPages(0) * kPageSlots * kSlot / 1024,
              live_sized ? "live-sized" : "HISTORY-SIZED");
  EXPECT_LE(bytes, bound);
  // Every object record is still where its seqnum says.
  for (size_t i = 0; i < kObjects; i += 997) {
    LogRecordPtr record = log.ReadPrev("k:" + std::to_string(i), kMaxSeqNum);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->fields.GetInt("step"), static_cast<int64_t>(i));
    EXPECT_EQ(log.Get(record->seqnum), record);
  }
}

TEST(LogSpaceRecordStoreDeathTest, InstallingAnOccupiedSlotFails) {
  ShardedLog log;
  TagId t = log.tags().Intern("t");
  SeqNum s = log.Append(0, OneTag(t), Fields("w", 0));
  EXPECT_DEATH(log.RestoreCheckpointRecord(0, s, OneTag(t), Fields("w", 0)),
               "id inserted twice");
}

// Number of kCkptRecord frames per seqnum in the store's durable bytes from `from` on.
std::map<SeqNum, int> BodiesEmitted(storage::CheckpointStore* store, uint64_t from) {
  store->Flush();
  std::map<SeqNum, int> bodies;
  storage::ReplayFrames(store->buffer(), from, store->durable(),
                        [&](storage::FrameType type, storage::Cursor cursor) {
                          if (type == storage::FrameType::kCkptRecord) ++bodies[cursor.U64()];
                        });
  return bodies;
}

TEST(LogSpaceRecordStoreTest, CheckpointRoundEmitsEveryLiveBodyOnce) {
  for (uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    ShardedLog log(shards);
    TagId a = TagOwnedBy(log, 0, "a");
    TagId b = TagOwnedBy(log, shards - 1, "b");
    TagId c = log.tags().Intern("c");
    // Multi-tag records are referenced from several streams, possibly on other shards.
    for (int i = 0; i < 40; ++i) {
      log.Append(0, TwoTags(a, b), Fields("ab", i));
      log.Append(0, TwoTags(b, c), Fields("bc", i));
      log.Append(0, OneTag(c), Fields("c", i));
    }
    storage::CheckpointStore store;
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE(round);
      uint64_t from = store.tail();
      log.BeginCheckpointWalk();
      int64_t frames = 0;
      // A small budget splits the walk into several resumable slices.
      while (!log.WriteCheckpointSlice(&store, /*budget=*/7, &frames)) {
      }
      std::map<SeqNum, int> bodies = BodiesEmitted(&store, from);
      // The second round finds every surviving slot stamped by the first and must emit it
      // again: stamps are per round, not per lifetime.
      EXPECT_EQ(bodies.size(), log.live_records());
      for (const auto& [seqnum, count] : bodies) {
        EXPECT_EQ(count, 1) << "seqnum " << seqnum;
        EXPECT_NE(log.Get(seqnum), nullptr);
      }
      // Between rounds: drop some records and add new ones.
      log.Trim(0, a, kMaxSeqNum);
      log.Trim(0, c, log.ReadStream(c)[30]->seqnum);
      log.Append(0, TwoTags(a, c), Fields("ac", round));
    }
  }
}

TEST(LogSpaceRetireTest, RetireEmptiesTheStreamAndFreesFullyRetiredPages) {
  ShardedLog log;
  TagId keep = log.tags().Intern("k:x");
  // Fill two whole pages' worth of instance-shaped tags past the pre-interned ones, each
  // with a record shared with the long-lived object stream.
  std::vector<TagId> instances;
  while (instances.size() < 2 * TagRegistry::kPageIds) {
    TagId t = log.tags().Intern("inst#" + std::to_string(instances.size()));
    log.Append(0, TwoTags(t, keep), Fields("write", 1));
    log.Append(0, OneTag(t), Fields("read", 2));
    instances.push_back(t);
  }
  size_t pages_before = log.tags().Pages();
  for (TagId t : instances) EXPECT_EQ(log.Retire(0, t), 2u);
  // No durability service: the retirement is final at once.
  EXPECT_EQ(log.pending_retirements(), 0u);
  EXPECT_TRUE(log.tags().Retired(instances[0]));
  EXPECT_EQ(log.tags().Find("inst#0"), kInvalidTagId);
  EXPECT_TRUE(log.LiveTagsWithPrefix("inst#").empty());
  // The shared records stay live through the object stream; the read records are gone.
  EXPECT_EQ(log.live_records(), instances.size());
  EXPECT_EQ(log.ReadStream(keep).size(), instances.size());
  // At least one page lies wholly inside the retired range; its slots (names and streams)
  // are gone, and no retired stream keeps an index entry.
  EXPECT_LT(log.tags().Pages(), pages_before);
  EXPECT_EQ(log.IndexEntries(), log.ReadStream(keep).size());
  EXPECT_EQ(log.tags().live_size(), log.tags().size() - instances.size());
}

TEST(LogSpaceRetireTest, CheckpointWalkSkipsRetiredTags) {
  ShardedLog log;
  TagId gone = log.tags().Intern("inst#1");
  TagId live = log.tags().Intern("inst#2");
  log.Append(0, OneTag(gone), Fields("read", 1));
  log.Append(0, OneTag(live), Fields("read", 1));
  log.Trim(0, live, kMaxSeqNum);  // Fully trimmed but live: its base stays in the image.
  log.Retire(0, gone);
  storage::CheckpointStore store;
  log.BeginCheckpointWalk();
  int64_t frames = 0;
  while (!log.WriteCheckpointSlice(&store, /*budget=*/4, &frames)) {
  }
  store.Flush();
  std::vector<TagId> streams;
  storage::ReplayFrames(store.buffer(), 0, store.durable(),
                        [&](storage::FrameType type, storage::Cursor cursor) {
                          if (type == storage::FrameType::kCkptTagStream) {
                            streams.push_back(cursor.U64());
                          }
                        });
  EXPECT_EQ(streams, std::vector<TagId>{live});
}

TEST(LogSpaceRetireTest, SparsePageSurvivorsKeepWorkingAfterTheSpill) {
  // An object tag interned among instance tags outlives them all: once its page turns sparse
  // the page keeps only the object's slot (its name and stream move), and every operation on
  // it keeps working — including the checkpoint walk.
  ShardedLog log;
  while (log.tags().size() % TagRegistry::kPageIds != 0) {
    log.tags().Intern("pad" + std::to_string(log.tags().size()));
  }
  std::vector<TagId> instances;
  TagId object = kInvalidTagId;
  for (size_t i = 0; i < TagRegistry::kPageIds; ++i) {
    if (i == 10) {
      object = log.tags().Intern("k:obj");
      log.Append(0, OneTag(object), Fields("write", 0));
      continue;
    }
    TagId t = log.tags().Intern("inst#" + std::to_string(i));
    log.Append(0, object == kInvalidTagId ? OneTag(t) : TwoTags(t, object), Fields("read", 1));
    instances.push_back(t);
  }
  // Bytes of one registry slot (tag_registry.h static_asserts this layout).
  constexpr size_t kSlotBytes = sizeof(std::string) + sizeof(TagStream);
  const size_t pages = log.tags().Pages();
  const size_t bytes = log.tags().SlotBytes();
  for (TagId t : instances) log.Retire(0, t);
  EXPECT_EQ(log.tags().Pages(), pages);
  EXPECT_EQ(log.tags().SlotBytes(), bytes - (TagRegistry::kPageIds - 1) * kSlotBytes);
  // The object's stream moved intact: every record shared with a retired instance survives.
  std::vector<LogRecordPtr> stream = log.ReadStream(object);
  ASSERT_EQ(stream.size(), 1u + (TagRegistry::kPageIds - 11));
  EXPECT_EQ(LiveStreamNames(log, "k:"), std::vector<std::string>{"k:obj"});
  EXPECT_EQ(log.IndexEntries(), stream.size());
  // Appends, cond-appends and trims still reach it.
  size_t length = log.StreamLength(object);
  EXPECT_TRUE(log.CondAppend(0, OneTag(object), Fields("write", 9), object, length).ok);
  log.Trim(0, object, stream[0]->seqnum);
  EXPECT_EQ(log.StreamLength(object), length + 1);
  EXPECT_EQ(log.ReadPrev(object, kMaxSeqNum)->fields.GetInt("step"), 9);
  // The checkpoint walk finds the moved stream.
  storage::CheckpointStore store;
  log.BeginCheckpointWalk();
  int64_t frames = 0;
  while (!log.WriteCheckpointSlice(&store, /*budget=*/3, &frames)) {
  }
  store.Flush();
  std::vector<TagId> streams;
  storage::ReplayFrames(store.buffer(), 0, store.durable(),
                        [&](storage::FrameType type, storage::Cursor cursor) {
                          if (type == storage::FrameType::kCkptTagStream) {
                            streams.push_back(cursor.U64());
                          }
                        });
  EXPECT_NE(std::find(streams.begin(), streams.end(), object), streams.end());
  // And it retires like any other tag.
  log.Trim(0, object, kMaxSeqNum);
  log.Retire(0, object);
  EXPECT_EQ(log.tags().Pages(), pages - 1);
  constexpr size_t kHeaderBytes = SparsePages<int, TagRegistry::kPageIds>::kPageHeaderBytes;
  EXPECT_EQ(log.tags().SlotBytes(), bytes - TagRegistry::kPageIds * kSlotBytes - kHeaderBytes);
  EXPECT_EQ(log.IndexEntries(), 0u);
}

TEST(LogSpaceRetireDeathTest, RetiredTagsFailClosed) {
  ShardedLog log;
  TagId t = log.tags().Intern("inst#9");
  log.tags().Intern("neighbour");  // Keeps the page (and its stream table slot) allocated.
  log.Append(0, OneTag(t), Fields("read", 1));
  log.Retire(0, t);
  EXPECT_DEATH(log.Append(0, OneTag(t), Fields("read", 2)), "TagId was retired");
  EXPECT_DEATH(log.CondAppend(0, OneTag(t), Fields("read", 2), t, 1), "TagId was retired");
  EXPECT_DEATH(log.ReadStream(t), "tag was retired");
  EXPECT_DEATH(log.ReadPrev(t, kMaxSeqNum), "tag was retired");
  EXPECT_DEATH(log.Trim(0, t, kMaxSeqNum), "tag was retired");
  EXPECT_DEATH(log.Retire(0, t), "TagId was retired");
}

}  // namespace
}  // namespace halfmoon::sharedlog
