// Unit tests for the simulated storage engine (DESIGN.md §13): the block device's whole-block
// accounting and paged layout, the buffer cache's flush/drop semantics and its one-copy
// residency bound, the journal frame codec (including torn-tail skipping), and the durability
// service's group-flush, waiter, callback, and kill behavior.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/storage/block_buffer.h"
#include "src/storage/block_device.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"
#include "src/storage/journal.h"

namespace halfmoon::storage {
namespace {

TEST(BlockDeviceTest, PaysWholeBlocksForPartialWrites) {
  BlockDevice device;
  device.WriteBlocks(0, "hello");
  EXPECT_EQ(device.stats().block_writes, 1);
  EXPECT_EQ(device.stats().bytes_written, static_cast<int64_t>(kBlockSize));
  EXPECT_EQ(device.Read(0, 5), "hello");

  // A write spanning two blocks pays for two.
  std::string big(kBlockSize + 1, 'x');
  device.WriteBlocks(0, big);
  EXPECT_EQ(device.stats().block_writes, 3);
}

TEST(BlockBufferTest, FlushMovesTheDurableFrontierAndDropKeepsIt) {
  BlockDevice device;
  BlockBuffer buffer(&device);
  uint64_t a = buffer.Append("aaaa");
  uint64_t b = buffer.Append("bbbb");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(buffer.durable(), 0u);
  EXPECT_EQ(buffer.tail(), 8u);

  buffer.FlushTo(4);
  EXPECT_EQ(buffer.durable(), 4u);
  EXPECT_EQ(buffer.ReadDurable(0, 4), "aaaa");

  buffer.DropVolatile();
  EXPECT_EQ(buffer.tail(), 4u);
  EXPECT_EQ(buffer.durable(), 4u);
  EXPECT_EQ(buffer.ReadDurable(0, 4), "aaaa");
}

TEST(BlockBufferTest, PartialTailBlockIsRewrittenEachFlush) {
  // Two small flushes land in the same 4 KiB block: the second rewrites it — the small-write
  // amplification the group-flusher exists to amortize.
  BlockDevice device;
  BlockBuffer buffer(&device);
  buffer.Append("aaaa");
  buffer.FlushTo(4);
  buffer.Append("bbbb");
  buffer.FlushTo(8);
  EXPECT_EQ(device.stats().block_writes, 2);
  EXPECT_EQ(buffer.ReadDurable(0, 8), "aaaabbbb");
}

// Distinct bytes per offset, so a read from the wrong place cannot match by accident.
std::string Pattern(uint64_t from, uint64_t n) {
  std::string bytes(n, '\0');
  for (uint64_t i = 0; i < n; ++i) bytes[i] = static_cast<char>(((from + i) * 131 + 7) % 251);
  return bytes;
}

TEST(BlockBufferTest, HoldsOnlyThePartialBlockAndTheVolatileTail) {
  BlockDevice device;
  BlockBuffer buffer(&device);
  Rng rng(11);
  std::string written;
  for (int i = 0; i < 400; ++i) {
    uint64_t n = static_cast<uint64_t>(rng.UniformInt(1, 3000));
    std::string bytes = Pattern(written.size(), n);
    buffer.Append(bytes);
    written += bytes;
    if (rng.Bernoulli(0.5)) {
      int64_t durable = static_cast<int64_t>(buffer.durable());
      buffer.FlushTo(static_cast<uint64_t>(
          rng.UniformInt(durable, static_cast<int64_t>(buffer.tail()))));
      ASSERT_LE(buffer.resident_bytes(), (buffer.tail() - buffer.durable()) + kBlockSize);
    }
  }
  buffer.FlushTo(buffer.tail());
  EXPECT_LT(buffer.resident_bytes(), kBlockSize);
  EXPECT_EQ(buffer.ReadDurable(0, written.size()), written);
  // The device holds the durable bytes once, in whole pages.
  EXPECT_EQ(device.resident_bytes(), (written.size() + kPageSize - 1) / kPageSize * kPageSize);
}

TEST(BlockBufferTest, DropAfterAMidBlockFlushRestoresTheDurablePrefix) {
  BlockDevice device;
  BlockBuffer buffer(&device);
  const std::string head = Pattern(0, kBlockSize + 100);
  buffer.Append(head);
  buffer.FlushTo(kBlockSize + 60);  // Mid-block: the second block is partial.
  buffer.Append("volatile bytes");
  buffer.DropVolatile();
  EXPECT_EQ(buffer.tail(), kBlockSize + 60);
  EXPECT_EQ(buffer.durable(), kBlockSize + 60);
  EXPECT_EQ(buffer.resident_bytes(), 60u);
  EXPECT_EQ(buffer.ReadDurable(0, kBlockSize + 60), head.substr(0, kBlockSize + 60));

  // The next flush rewrites the partial block from its start: one block, durable head intact.
  int64_t writes = device.stats().block_writes;
  buffer.Append("zz");
  buffer.FlushTo(buffer.tail());
  EXPECT_EQ(device.stats().block_writes, writes + 1);
  EXPECT_EQ(buffer.ReadDurable(0, kBlockSize + 62), head.substr(0, kBlockSize + 60) + "zz");
}

TEST(BlockDeviceTest, TruncatePrefixFreesWholePagesWithoutCopying) {
  BlockDevice device;
  const uint64_t size = 3 * kPageSize + kPageSize / 2;
  device.WriteBlocks(0, Pattern(0, size));
  EXPECT_EQ(device.resident_bytes(), 4 * kPageSize);
  // Page 2's bytes must stay where they are through every truncation below them.
  const char* page2 = device.Read(2 * kPageSize, 1).data();

  // Inside page 1: page 0 goes, the rest of page 1 stays readable above the base.
  uint64_t cut = kPageSize + kBlockSize + 10;
  EXPECT_EQ(device.TruncatePrefix(cut), kPageSize + kBlockSize);
  EXPECT_EQ(device.base(), kPageSize + kBlockSize);
  EXPECT_EQ(device.resident_bytes(), 3 * kPageSize);
  EXPECT_EQ(device.Read(device.base(), 8), Pattern(device.base(), 8));

  // Exactly on the page-1/page-2 edge: page 1 goes too.
  EXPECT_EQ(device.TruncatePrefix(2 * kPageSize), kPageSize - kBlockSize);
  EXPECT_EQ(device.resident_bytes(), 2 * kPageSize);
  EXPECT_EQ(device.Read(2 * kPageSize, 1).data(), page2);
  EXPECT_EQ(device.stats().bytes_dropped, static_cast<int64_t>(2 * kPageSize));
  EXPECT_EQ(device.TruncatePrefix(2 * kPageSize + 1), 0u);  // Same block: nothing to release.
}

TEST(BlockDeviceTest, ReadsAboveTheBaseSurviveTruncationAcrossPageEdges) {
  BlockDevice device;
  const uint64_t size = 5 * kPageSize + 123;
  device.WriteBlocks(0, Pattern(0, size));
  device.TruncatePrefix(2 * kPageSize + 3 * kBlockSize);
  // A read inside one page, one across one page edge, and one across several.
  EXPECT_EQ(device.Read(3 * kPageSize + 5, 64), Pattern(3 * kPageSize + 5, 64));
  EXPECT_EQ(device.Read(3 * kPageSize - 7, 20), Pattern(3 * kPageSize - 7, 20));
  uint64_t from = device.base();
  EXPECT_EQ(device.Read(from, size - from), Pattern(from, size - from));
  // Piecewise scans visit the same bytes page by page.
  std::string pieces;
  int count = 0;
  device.ForEachPiece(from, size - from, [&](std::string_view piece) {
    pieces.append(piece);
    ++count;
  });
  EXPECT_EQ(pieces, Pattern(from, size - from));
  EXPECT_EQ(count, 4);  // The rest of page 2, pages 3 and 4, and the head of page 5.
  // Rewriting above the base lands in place.
  device.WriteBlocks(4 * kPageSize, "rewritten");
  EXPECT_EQ(device.Read(4 * kPageSize - 2, 11), Pattern(4 * kPageSize - 2, 2) + "rewritten");
}

TEST(CheckpointStoreTest, CorruptByteMakesRecoveryRejectAMultiPageImage) {
  CheckpointStore store;
  CheckpointManifest m;
  m.domain = kCkptKvDomain;
  m.image_start = store.tail();
  for (int i = 0; i < 12; ++i) store.AppendFrame(FrameType::kCkptKvVersion, Pattern(i, 3000));
  store.Flush();
  m.frame_count = 12;
  m.checksum = ChecksumImage(store, m.image_start, store.tail());
  store.AppendFrame(FrameType::kCkptManifest, EncodeManifest(m));
  store.Flush();
  ASSERT_GT(store.tail(), 2 * kPageSize);  // The checksum folds across page edges.
  InstalledManifest found;
  ASSERT_TRUE(FindLatestValidManifest(store, kCkptKvDomain, &found));

  store.CorruptDurableByteForTest(kPageSize + 17);
  int rejected = 0;
  EXPECT_FALSE(FindLatestValidManifest(store, kCkptKvDomain, &found, &rejected));
  EXPECT_EQ(rejected, 1);
}

TEST(JournalCodecTest, PrimitivesRoundTrip) {
  std::string payload;
  PutU8(&payload, 7);
  PutU32(&payload, 0xDEADBEEF);
  PutU64(&payload, 0x0123456789ABCDEFull);
  PutStr(&payload, "version-id");
  Cursor cursor(payload);
  EXPECT_EQ(cursor.U8(), 7);
  EXPECT_EQ(cursor.U32(), 0xDEADBEEFu);
  EXPECT_EQ(cursor.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(cursor.Str(), "version-id");
  EXPECT_TRUE(cursor.empty());
}

TEST(JournalCodecTest, ReplayYieldsWholeFramesAndSkipsTornTail) {
  BlockDevice device;
  BlockBuffer buffer(&device);
  std::string first;
  PutU64(&first, 41);
  AppendFrame(&buffer, FrameType::kRecord, first);
  std::string second;
  PutU64(&second, 42);
  uint64_t end = AppendFrame(&buffer, FrameType::kTrim, second);

  // Flush to one byte short of the second frame's end: it is torn and must be skipped.
  buffer.FlushTo(end - 1);
  std::vector<uint64_t> seen;
  ReplayFrames(buffer, buffer.durable(), [&](FrameType type, Cursor cursor) {
    EXPECT_EQ(type, FrameType::kRecord);
    seen.push_back(cursor.U64());
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 41u);

  // Completing the flush makes the second frame whole.
  buffer.FlushTo(end);
  seen.clear();
  ReplayFrames(buffer, buffer.durable(),
               [&](FrameType, Cursor cursor) { seen.push_back(cursor.U64()); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{41, 42}));
}

// --- DurabilityService ---

struct ServiceFixture {
  sim::Scheduler scheduler;
  LatencyModels models;
  DurabilityService service{&scheduler, &models, /*seed=*/1};
};

sim::Task<void> AwaitSeq(DurabilityService* svc, uint64_t seqnum, bool* ok, bool* done) {
  *ok = co_await svc->WaitSeq(seqnum);
  *done = true;
}

sim::Task<void> AwaitOffset(DurabilityService* svc, uint64_t offset, bool* ok, bool* done) {
  *ok = co_await svc->WaitOffset(offset);
  *done = true;
}

TEST(DurabilityServiceTest, WaitSeqResumesTrueOnceFlushed) {
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  uint64_t end = fx.service.AppendFrame(FrameType::kRecord, payload);
  fx.service.NoteCommit(1, end);

  bool ok = false, done = false;
  fx.scheduler.Spawn(AwaitSeq(&fx.service, 1, &ok, &done));
  fx.scheduler.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(fx.service.durable_seq(), 1u);
  EXPECT_GE(fx.service.stats().flushes, 1);
  EXPECT_TRUE(fx.service.SeqDurable(1));
}

TEST(DurabilityServiceTest, GroupFlushCoalescesManyAppends) {
  // All appends land before the first flush's latency elapses, so one or two flush rounds
  // absorb all of them (frames appended mid-flush ride the next round).
  ServiceFixture fx;
  for (uint64_t i = 1; i <= 64; ++i) {
    std::string payload;
    PutU64(&payload, i);
    fx.service.NoteCommit(i, fx.service.AppendFrame(FrameType::kRecord, payload));
  }
  fx.scheduler.Run();
  EXPECT_EQ(fx.service.durable_seq(), 64u);
  EXPECT_EQ(fx.service.stats().frames, 64);
  EXPECT_LE(fx.service.stats().flushes, 2);
}

TEST(DurabilityServiceTest, WhenDurableFiresSynchronouslyOnceDurable) {
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  fx.service.NoteCommit(1, fx.service.AppendFrame(FrameType::kRecord, payload));

  int fired = 0;
  fx.service.WhenDurable(1, [&] { ++fired; });
  EXPECT_EQ(fired, 0);  // Not durable yet: deferred.
  fx.scheduler.Run();
  EXPECT_EQ(fired, 1);
  fx.service.WhenDurable(1, [&] { ++fired; });
  EXPECT_EQ(fired, 2);  // Already durable: synchronous.
}

TEST(DurabilityServiceTest, KillFailsWaitersDropsCallbacksAndKeepsDurablePrefix) {
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  fx.service.NoteCommit(1, fx.service.AppendFrame(FrameType::kRecord, payload));
  fx.scheduler.Run();  // Seq 1 durable.

  PutU64(&payload, 2);
  fx.service.NoteCommit(2, fx.service.AppendFrame(FrameType::kRecord, payload));
  bool ok = true, done = false;
  fx.scheduler.Spawn(AwaitSeq(&fx.service, 2, &ok, &done));
  int fired = 0;
  fx.service.WhenDurable(2, [&] { ++fired; });
  fx.service.Kill();  // Before the flush latency elapses.
  fx.scheduler.Run();

  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);  // The waiter saw the kill, not a bogus success.
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(fx.service.stats().kills, 1);
  EXPECT_EQ(fx.service.stats().failed_waits, 1);
  EXPECT_EQ(fx.service.stats().dropped_callbacks, 1);
  // The durable prefix survives: replay still sees seq 1.
  EXPECT_EQ(fx.service.durable_seq(), 1u);
  int frames = 0;
  fx.service.Replay([&](FrameType, Cursor) { ++frames; });
  EXPECT_EQ(frames, 1);
}

TEST(DurabilityServiceTest, WaitersRegisteredAfterAKillFailFast) {
  // A kill between the mutation and the co_await: the awaited seqnum/offset is beyond every
  // pending commit / the journal tail, so the waiter must resume false immediately instead of
  // suspending forever (or matching a reused seqnum later).
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  uint64_t end = fx.service.AppendFrame(FrameType::kRecord, payload);
  fx.service.NoteCommit(1, end);
  fx.service.Kill();

  bool seq_ok = true, seq_done = false;
  fx.scheduler.Spawn(AwaitSeq(&fx.service, 1, &seq_ok, &seq_done));
  bool off_ok = true, off_done = false;
  fx.scheduler.Spawn(AwaitOffset(&fx.service, end, &off_ok, &off_done));
  fx.scheduler.Run();
  EXPECT_TRUE(seq_done);
  EXPECT_FALSE(seq_ok);
  EXPECT_TRUE(off_done);
  EXPECT_FALSE(off_ok);
  EXPECT_EQ(fx.service.stats().failed_waits, 2);
}

TEST(DurabilityServiceTest, SeqnumsMayBeReusedAfterAKill) {
  // The log allocator rolls back to the durable watermark on restart, so post-kill commits
  // reuse the wiped seqnums; the commit bookkeeping must accept them.
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  fx.service.NoteCommit(1, fx.service.AppendFrame(FrameType::kRecord, payload));
  fx.scheduler.Run();  // Seq 1 durable.

  PutU64(&payload, 2);
  fx.service.NoteCommit(2, fx.service.AppendFrame(FrameType::kRecord, payload));
  fx.service.Kill();  // Seq 2 wiped.

  std::string retry;
  PutU64(&retry, 2);
  fx.service.NoteCommit(2, fx.service.AppendFrame(FrameType::kRecord, retry));
  bool ok = false, done = false;
  fx.scheduler.Spawn(AwaitSeq(&fx.service, 2, &ok, &done));
  fx.scheduler.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(fx.service.durable_seq(), 2u);
}

sim::Task<void> AwaitCommitted(DurabilityService* svc, uint64_t seqnum, uint64_t epoch,
                               bool* ok, bool* done) {
  *ok = co_await svc->WaitCommitted(seqnum, epoch);
  *done = true;
}

TEST(DurabilityServiceTest, WaitCommittedFailsForARecordAKillRolledBack) {
  // Seq 2 commits, a kill wipes it, and a new record reuses seq 2 and becomes durable. A
  // waiter for the first seq 2 that registers only now must fail: WaitSeq would match the
  // new record. Seq 1, durable before the kill, still waits true from its old epoch.
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  fx.service.NoteCommit(1, fx.service.AppendFrame(FrameType::kRecord, payload));
  fx.scheduler.Run();
  PutU64(&payload, 2);
  fx.service.NoteCommit(2, fx.service.AppendFrame(FrameType::kRecord, payload));
  const uint64_t epoch = fx.service.epoch();
  fx.service.Kill();
  fx.service.NoteCommit(2, fx.service.AppendFrame(FrameType::kRecord, payload));
  fx.scheduler.Run();
  ASSERT_TRUE(fx.service.SeqDurable(2));

  bool lost_ok = true, lost_done = false, kept_ok = false, kept_done = false, now_ok = false,
       now_done = false;
  fx.scheduler.Spawn(AwaitCommitted(&fx.service, 2, epoch, &lost_ok, &lost_done));
  fx.scheduler.Spawn(AwaitCommitted(&fx.service, 1, epoch, &kept_ok, &kept_done));
  fx.scheduler.Spawn(AwaitCommitted(&fx.service, 2, fx.service.epoch(), &now_ok, &now_done));
  fx.scheduler.Run();
  EXPECT_TRUE(lost_done && kept_done && now_done);
  EXPECT_FALSE(lost_ok);
  EXPECT_TRUE(kept_ok);
  EXPECT_TRUE(now_ok);
}

TEST(DurabilityServiceTest, ReportsWriteAmplification) {
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  fx.service.NoteCommit(1, fx.service.AppendFrame(FrameType::kRecord, payload));
  fx.scheduler.Run();
  // A ~13-byte frame cost a 4 KiB block write: amplification far above 1.
  EXPECT_GT(fx.service.WriteAmplification(), 1.0);
}

}  // namespace
}  // namespace halfmoon::storage
