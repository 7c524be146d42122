// Golden bytes for the journal and checkpoint frame formats (DESIGN.md §13, §14). Durable
// images outlive the code that wrote them, so the bytes of one frame per encoder family are
// pinned here: a log record (kRecord), a conditional KV write (kKvCondPut) and a checkpointed
// tag stream (kCkptTagStream). Any change to the codec or to a payload builder shows up as a
// byte diff against these strings.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/latency_model.h"
#include "src/common/value.h"
#include "src/kvstore/kv_state.h"
#include "src/sharedlog/sharded_log.h"
#include "src/sim/scheduler.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"
#include "src/storage/journal.h"

namespace halfmoon::storage {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

// The whole frames (header included) of [from, upto) whose type is `type`, hex-encoded.
std::vector<std::string> FramesOfType(const BlockBuffer& buffer, uint64_t from, uint64_t upto,
                                      FrameType type) {
  std::vector<std::string> frames;
  for (uint64_t off = from; off < upto;) {
    Cursor header(buffer.ReadDurable(off, kFrameHeaderBytes));
    uint64_t len = header.U32();
    if (static_cast<FrameType>(header.U8()) == type) {
      frames.push_back(Hex(buffer.ReadDurable(off, kFrameHeaderBytes + len)));
    }
    off += kFrameHeaderBytes + len;
  }
  return frames;
}

struct JournalFixture {
  sim::Scheduler scheduler;
  LatencyModels models;
  DurabilityService journal{&scheduler, &models, /*seed=*/1};
};

FieldMap RecordFields() {
  FieldMap fields;
  fields.SetStr("op", "write");
  fields.SetInt("step", 3);
  return fields;
}

TEST(FrameGoldenTest, RecordFrame) {
  JournalFixture fx;
  sharedlog::ShardedLog log;
  log.AttachDurability(&fx.journal);
  sharedlog::TagId a = log.tags().Intern("k:a");
  sharedlog::TagId b = log.tags().Intern("step:1");
  log.Append(0, std::vector<sharedlog::TagId>{a, b}, RecordFields());
  fx.scheduler.Run();
  std::vector<std::string> frames = FramesOfType(
      fx.journal.buffer(), 0, fx.journal.durable_offset(), FrameType::kRecord);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0],
            "41000000" "02"                              // len 65, kRecord
            "0100000000000000"                           // seqnum 1
            "02000000" "0200000000000000" "0300000000000000"  // tags {2, 3}
            "02000000"                                   // 2 fields, in key order:
            "020000006f70" "01" "050000007772697465"     //   "op" = str "write"
            "0400000073746570" "00" "0300000000000000");  //   "step" = int 3
}

TEST(FrameGoldenTest, KvCondPutFrame) {
  JournalFixture fx;
  kvstore::KvState kv;
  kv.AttachDurability(&fx.journal);
  ASSERT_TRUE(kv.CondPut(0, "user:7", "alice", kvstore::VersionTuple{0x1234, 2}));
  fx.scheduler.Run();
  std::vector<std::string> frames = FramesOfType(
      fx.journal.buffer(), 0, fx.journal.durable_offset(), FrameType::kKvCondPut);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0],
            "23000000" "05"                // len 35, kKvCondPut
            "06000000757365723a37"         // key "user:7"
            "05000000616c696365"           // value "alice"
            "3412000000000000"             // cursor_ts 0x1234
            "0200000000000000");           // counter 2
}

TEST(FrameGoldenTest, CheckpointTagStreamFrame) {
  sharedlog::ShardedLog log;
  sharedlog::TagId a = log.tags().Intern("k:a");
  log.Append(0, std::vector<sharedlog::TagId>{a}, RecordFields());
  log.Append(0, std::vector<sharedlog::TagId>{a}, RecordFields());
  CheckpointStore store;
  log.BeginCheckpointWalk();
  int64_t frames_written = 0;
  ASSERT_TRUE(log.WriteCheckpointSlice(&store, /*budget=*/64, &frames_written));
  store.Flush();
  std::vector<std::string> frames =
      FramesOfType(store.buffer(), 0, store.durable(), FrameType::kCkptTagStream);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0],
            "24000000" "09"                         // len 36, kCkptTagStream
            "0200000000000000"                      // tag 2
            "0000000000000000"                      // base 0
            "02000000"                              // 2 seqnums
            "0100000000000000" "0200000000000000");  // 1, 2
}

}  // namespace
}  // namespace halfmoon::storage
