// Committed log records as one exact-size block (log_record.h): a seeded round-trip property
// test from the builder FieldMap and tag vector to the block and back.

#include "src/sharedlog/log_record.h"

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sharedlog/sharded_log.h"
#include "src/storage/journal.h"

namespace halfmoon::sharedlog {
namespace {

using FieldSequence = std::vector<std::pair<std::string, Field>>;

template <typename Fields>
FieldSequence Sequence(const Fields& fields) {
  FieldSequence out;
  for (const auto& [name, field] : fields) out.emplace_back(name, field);
  return out;
}

// The record size formula as it stood before records were blocks: a 16-byte header, 8 bytes
// per tag, and per field a 2-byte name tag plus its value (8 for an integer).
size_t OldByteSize(const std::vector<TagId>& tags, const FieldMap& fields) {
  size_t total = 16 + 8 * tags.size();
  for (const auto& [name, field] : fields) {
    const std::string* str = std::get_if<std::string>(&field);
    total += 2 + (str == nullptr ? 8 : str->size());
  }
  return total;
}

// The kRecord payload encoded from the builder side: seqnum, tags, then each field's name, a
// type byte and its value.
std::string BuilderPayload(SeqNum seqnum, const std::vector<TagId>& tags,
                           const FieldMap& fields) {
  std::string out;
  storage::PutU64(&out, seqnum);
  storage::PutU32(&out, static_cast<uint32_t>(tags.size()));
  for (TagId tag : tags) storage::PutU64(&out, tag);
  storage::PutU32(&out, static_cast<uint32_t>(fields.size()));
  for (const auto& [name, field] : fields) {
    storage::PutStr(&out, name);
    if (const int64_t* i = std::get_if<int64_t>(&field)) {
      storage::PutU8(&out, 0);
      storage::PutU64(&out, static_cast<uint64_t>(*i));
    } else {
      storage::PutU8(&out, 1);
      storage::PutStr(&out, std::get<std::string>(field));
    }
  }
  return out;
}

struct Case {
  std::vector<TagId> tags;
  FieldMap fields;
};

// 0-6 fields over the runtime's names and two of the test's own, each an integer (the
// extremes included) or a string (empty, 15 and 16 bytes around the inline-string edge, 300
// bytes, or binary with NULs); "op" is always a string, as ShardedLog interns it. 0-3 tags.
Case RandomCase(std::mt19937_64& rng) {
  static const char* const kNames[] = {"op",   "step",     "version", "callee", "result",
                                       "data", "instance", "target",  "prop.a", "prop.z"};
  static const int64_t kInts[] = {std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max(), 0, -1, 1};
  auto below = [&](uint64_t n) { return static_cast<size_t>(rng() % n); };
  Case c;
  const size_t tags = below(4);
  for (size_t i = 0; i < tags; ++i) c.tags.push_back(rng() % 1000);
  const size_t fields = below(7);
  for (size_t i = 0; i < fields; ++i) {
    const std::string name = kNames[below(std::size(kNames))];
    const size_t kind = below(7);
    if (name != "op" && kind < 2) {
      c.fields.SetInt(name, kind == 0 ? kInts[below(std::size(kInts))]
                                      : static_cast<int64_t>(rng()));
      continue;
    }
    std::string value;
    switch (kind % 5) {
      case 0: break;
      case 1: value.assign(15, 'a'); break;
      case 2: value.assign(16, 'b'); break;
      case 3: value.assign(300, 'c'); break;
      default:
        for (size_t j = below(40); j > 0; --j) value.push_back(static_cast<char>(rng() % 4));
        value.push_back('\0');
    }
    c.fields.SetStr(name, std::move(value));
  }
  return c;
}

TEST(LogRecordTest, BlocksRoundTripTheBuilderFieldsAndTags) {
  std::mt19937_64 rng(20231023);
  for (int i = 0; i < 2000; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const Case c = RandomCase(rng);
    const SeqNum seqnum = 1 + static_cast<SeqNum>(i);
    const LogRecordPtr record =
        LogRecord::Build(seqnum, kInvalidOpId, c.tags, c.fields,
                         RecordByteSize(c.tags.size(), c.fields.ByteSize()));

    EXPECT_EQ(record->seqnum, seqnum);
    EXPECT_EQ(std::vector<TagId>(record->tags.begin(), record->tags.end()), c.tags);
    ASSERT_EQ(Sequence(record->fields), Sequence(c.fields));
    EXPECT_EQ(record->fields.size(), c.fields.size());
    EXPECT_EQ(record->stored_bytes, OldByteSize(c.tags, c.fields));
    EXPECT_EQ(record->ByteSize(), OldByteSize(c.tags, c.fields));
    EXPECT_EQ(ShardedLog::EncodeRecordPayload(*record),
              BuilderPayload(seqnum, c.tags, c.fields));
    // Every typed accessor agrees with the builder, field by field.
    for (const auto& [name, field] : c.fields) {
      const FieldId id = InternField(name);
      EXPECT_TRUE(record->fields.Has(id));
      EXPECT_TRUE(record->fields.Has(name));
      if (const int64_t* v = std::get_if<int64_t>(&field)) {
        EXPECT_EQ(record->fields.GetInt(id), *v);
        EXPECT_EQ(record->fields.GetInt(name), *v);
        EXPECT_EQ(record->fields.FindInt(id), *v);
        EXPECT_FALSE(record->fields.FindStr(id).has_value());
      } else {
        const std::string& s = std::get<std::string>(field);
        EXPECT_EQ(record->fields.GetStr(id), s);
        EXPECT_EQ(record->fields.GetStr(name), s);
        EXPECT_EQ(record->fields.FindStr(id), s);
        EXPECT_FALSE(record->fields.FindInt(id).has_value());
      }
    }
    EXPECT_FALSE(record->fields.Has("prop.never-set"));

    // Copies, moves and reassignments share the one block; the last reference frees it,
    // once (AddressSanitizer reports a double free or a leak).
    LogRecordPtr copy = record;
    LogRecordPtr moved = std::move(copy);
    EXPECT_TRUE(copy == nullptr);
    LogRecordPtr other = LogRecord::Build(0, kInvalidOpId, {}, FieldMap{}, 0);
    other = moved;
    EXPECT_EQ(other.get(), record.get());
    other = other;
    moved = nullptr;
    std::vector<LogRecordPtr> views(3, other);
    EXPECT_EQ(views[2].get(), record.get());
  }
}

TEST(LogRecordTest, CommittedRecordsMatchTheirBuilders) {
  // Through ShardedLog: MakeRecord sizes the gauge from the builder, and reads return the
  // block with the builder's sequence.
  std::mt19937_64 rng(7919);
  ShardedLog log;
  int64_t expected_bytes = 0;
  for (int i = 0; i < 500; ++i) {
    Case c = RandomCase(rng);
    if (c.tags.empty()) c.tags.push_back(2);
    for (TagId& tag : c.tags) tag = log.tags().Intern("prop.t" + std::to_string(tag % 7));
    const FieldSequence fields = Sequence(c.fields);
    expected_bytes += static_cast<int64_t>(OldByteSize(c.tags, c.fields));
    const SeqNum seqnum = log.Append(0, c.tags, std::move(c.fields));
    const LogRecordPtr record = log.Get(seqnum);
    ASSERT_TRUE(record != nullptr);
    EXPECT_EQ(Sequence(record->fields), fields);
    EXPECT_EQ(log.CurrentBytes(), expected_bytes);
  }
}

}  // namespace
}  // namespace halfmoon::sharedlog
