#include "src/kvstore/kv_state.h"

#include <cstdio>

#include <gtest/gtest.h>

namespace halfmoon::kvstore {
namespace {

// Versioned ops address objects by their interned write-log tag id; any dense id works here.
constexpr ObjectId kObj = 7;

TEST(VersionTupleTest, LexicographicComparison) {
  EXPECT_LT((VersionTuple{1, 5}), (VersionTuple{2, 0}));
  EXPECT_LT((VersionTuple{2, 1}), (VersionTuple{2, 2}));
  EXPECT_EQ((VersionTuple{3, 3}), (VersionTuple{3, 3}));
  EXPECT_LT((VersionTuple{0, 0}), (VersionTuple{0, 1}));
}

TEST(KvStateTest, GetMissingReturnsNullopt) {
  KvState kv;
  EXPECT_FALSE(kv.Get("nope").has_value());
  EXPECT_FALSE(kv.GetVersion("nope").has_value());
}

TEST(KvStateTest, PutThenGet) {
  KvState kv;
  kv.Put(0, "k", "v1");
  EXPECT_EQ(kv.Get("k").value(), "v1");
  kv.Put(0, "k", "v2");
  EXPECT_EQ(kv.Get("k").value(), "v2");
}

TEST(KvStateTest, PlainPutKeepsVersion) {
  KvState kv;
  kv.CondPut(0, "k", "v1", VersionTuple{5, 1});
  kv.Put(0, "k", "v2");
  EXPECT_EQ(kv.GetVersion("k").value(), (VersionTuple{5, 1}));
}

TEST(KvStateTest, CondPutAppliesOnLargerVersion) {
  KvState kv;
  EXPECT_TRUE(kv.CondPut(0, "k", "v1", VersionTuple{1, 1}));
  EXPECT_TRUE(kv.CondPut(0, "k", "v2", VersionTuple{2, 1}));
  EXPECT_EQ(kv.Get("k").value(), "v2");
}

TEST(KvStateTest, CondPutRejectsStaleAndEqualVersions) {
  KvState kv;
  EXPECT_TRUE(kv.CondPut(0, "k", "v2", VersionTuple{2, 1}));
  EXPECT_FALSE(kv.CondPut(0, "k", "stale", VersionTuple{1, 9}));
  EXPECT_FALSE(kv.CondPut(0, "k", "dup", VersionTuple{2, 1}));  // Idempotent retry.
  EXPECT_EQ(kv.Get("k").value(), "v2");
}

TEST(KvStateTest, CondPutOnMissingKeyNeedsPositiveVersion) {
  KvState kv;
  EXPECT_FALSE(kv.CondPut(0, "k", "v", VersionTuple{0, 0}));
  EXPECT_FALSE(kv.Get("k").has_value());
  EXPECT_TRUE(kv.CondPut(0, "k", "v", VersionTuple{0, 1}));
}

TEST(KvStateTest, VersionedPutGetDelete) {
  KvState kv;
  kv.PutVersioned(0, kObj, "v1", "a");
  kv.PutVersioned(0, kObj, "v2", "b");
  EXPECT_EQ(kv.VersionCount(kObj), 2u);
  EXPECT_EQ(kv.GetVersioned(kObj, "v1").value(), "a");
  EXPECT_EQ(kv.GetVersioned(kObj, "v2").value(), "b");
  EXPECT_FALSE(kv.GetVersioned(kObj, "v3").has_value());
  EXPECT_TRUE(kv.DeleteVersioned(0, kObj, "v1"));
  EXPECT_FALSE(kv.DeleteVersioned(0, kObj, "v1"));  // Already gone.
  EXPECT_EQ(kv.VersionCount(kObj), 1u);
}

TEST(KvStateTest, VersionedRewriteIsIdempotentInAccounting) {
  KvState kv;
  kv.PutVersioned(0, kObj, "v1", "abc");
  int64_t once = kv.CurrentBytes();
  kv.PutVersioned(0, kObj, "v1", "abc");  // Retried SSF re-creates the same version.
  EXPECT_EQ(kv.CurrentBytes(), once);
}

TEST(KvStateTest, ByteAccountingTracksAllPaths) {
  KvState kv;
  EXPECT_EQ(kv.CurrentBytes(), 0);
  kv.Put(0, "k", "0123456789");
  int64_t latest_only = kv.CurrentBytes();
  EXPECT_GT(latest_only, 10);
  kv.PutVersioned(0, kObj, "ver1", "0123456789");
  EXPECT_GT(kv.CurrentBytes(), latest_only);
  kv.DeleteVersioned(0, kObj, "ver1");
  EXPECT_EQ(kv.CurrentBytes(), latest_only);
  kv.Put(0, "k", "01234");
  EXPECT_LT(kv.CurrentBytes(), latest_only);  // Smaller value, smaller footprint.
}

TEST(KvStateTest, LatestAndVersionedAreIndependent) {
  KvState kv;
  kv.Put(0, "k", "latest");
  kv.PutVersioned(0, kObj, "v1", "old");
  EXPECT_EQ(kv.Get("k").value(), "latest");
  EXPECT_EQ(kv.GetVersioned(kObj, "v1").value(), "old");
}

TEST(KvStateTest, KeyCountCountsLatestSlots) {
  KvState kv;
  kv.Put(0, "a", "1");
  kv.Put(0, "b", "2");
  kv.Put(0, "a", "3");
  EXPECT_EQ(kv.key_count(), 2u);
}

// Object ids are write-log tag ids, and every SSF instance takes a tag id for its step log, so
// the ids of written objects are sparse and keep growing. The version table and its index
// must be sized by the objects written: the same objects under ids spread up to 2^20 cost
// exactly what they cost under ids 0..n-1.
TEST(KvStateTest, VersionIndexIsSizedByObjectsNotIds) {
  constexpr ObjectId kObjects = 100;
  constexpr ObjectId kMaxId = ObjectId{1} << 20;
  KvState dense;
  KvState sparse;
  for (ObjectId i = 0; i < kObjects; ++i) {
    dense.PutVersioned(0, i, "v", "x");
    sparse.PutVersioned(0, kMaxId - i * 10007, "v", "x");
  }
  const size_t bytes = sparse.version_index_bytes();
  const bool object_sized = bytes == dense.version_index_bytes() && bytes <= kObjects * 128;
  std::printf("[kv] version index: %llu objects, ids up to %llu: %zu B | %s\n",
              static_cast<unsigned long long>(kObjects),
              static_cast<unsigned long long>(kMaxId), bytes,
              object_sized ? "object-sized" : "ID-SIZED");
  EXPECT_TRUE(object_sized) << "dense ids: " << dense.version_index_bytes() << " B";
  EXPECT_EQ(sparse.versioned_object_count(), kObjects);
  EXPECT_EQ(sparse.GetVersioned(kMaxId, "v").value(), "x");
  EXPECT_FALSE(sparse.GetVersioned(kMaxId - 1, "v").has_value());
}

}  // namespace
}  // namespace halfmoon::kvstore
