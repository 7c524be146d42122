// SparsePages, the id → slot table under the tag registry and the record store: unit cases
// for the page life cycle, and a randomized model test against std::map — inserts in id
// order (interning, commits), out-of-order inserts below the id bound and into compacted
// pages (fuzzy replay, checkpoint restore), erases, finds and next-live walks — that checks
// the halving rule after every step.

#include "src/sharedlog/sparse_pages.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <string>

#include "src/common/env.h"
#include "src/common/rng.h"

namespace halfmoon::sharedlog {
namespace {

// A slot that owns heap memory, so every move and reset is visible to the sanitizers.
struct TestSlot {
  std::string name;
  uint64_t value = 0;
};
constexpr size_t kPage = 8;
using Table = SparsePages<TestSlot, kPage>;

TestSlot& Put(Table& table, uint64_t id) {
  TestSlot& slot = table.Insert(id);
  slot.name = "slot-with-a-heap-buffer-" + std::to_string(id);
  slot.value = id * 7;
  return slot;
}

TEST(SparsePagesTest, PagesCompactOnceCompleteAndHalfLiveThenHalveAndFree) {
  Table table;
  for (uint64_t id = 0; id < kPage; ++id) Put(table, id);
  const size_t dense = table.bytes();
  EXPECT_EQ(table.pages(), 1u);
  // Page 0 is complete only once an id past its end is inserted: until then, erasing down
  // to one live slot keeps it dense.
  Table young;
  for (uint64_t id = 0; id + 1 < kPage; ++id) Put(young, id);
  for (uint64_t id = 1; id + 1 < kPage; ++id) young.Erase(id);
  EXPECT_EQ(young.bytes(), dense);
  Put(young, kPage - 1);  // Completes the page with 2 of 8 live: it compacts.
  EXPECT_EQ(young.bytes(), dense - (kPage - 2) * sizeof(TestSlot));
  EXPECT_EQ(young.Find(0)->value, 0u);
  EXPECT_EQ(young.Find(kPage - 1)->value, (kPage - 1) * 7);
  EXPECT_EQ(young.Find(1), nullptr);

  // The complete page stays dense while more than half live.
  for (uint64_t id = 0; id < kPage / 2 - 1; ++id) table.Erase(id);
  EXPECT_EQ(table.bytes(), dense);
  table.Erase(kPage / 2 - 1);
  EXPECT_EQ(table.bytes(), dense - (kPage / 2) * sizeof(TestSlot));
  EXPECT_EQ(table.Find(kPage / 2)->value, (kPage / 2) * 7);
  // A compacted page takes out-of-order inserts by rank, doubling when full.
  Put(table, 1);
  EXPECT_EQ(table.bytes(), dense);
  EXPECT_EQ(table.Find(1)->value, 7u);
  EXPECT_EQ(table.NextLive(0), 1u);
  EXPECT_EQ(table.NextLive(2), kPage / 2);
  // Erases shrink it to its live slots once at most half full, and the last one frees it.
  for (uint64_t id = kPage / 2; id < kPage - 1; ++id) table.Erase(id);
  EXPECT_EQ(table.bytes(), dense - (kPage - 2) * sizeof(TestSlot));
  EXPECT_EQ(table.Find(kPage - 1)->value, (kPage - 1) * 7);
  table.Erase(1);
  table.Erase(kPage - 1);
  EXPECT_EQ(table.pages(), 0u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.NextLive(0), table.id_bound());
  // A page created complete (an insert below the id bound) starts compacted.
  Put(table, 3);
  EXPECT_EQ(table.bytes(), dense - (kPage - 1) * sizeof(TestSlot));
}

TEST(SparsePagesDeathTest, DoubleInsertAndStrayEraseFail) {
  Table table;
  Put(table, 5);
  EXPECT_DEATH(table.Insert(5), "id inserted twice");
  EXPECT_DEATH(table.Erase(4), "not live");
  EXPECT_DEATH(table.Erase(1000), "not live");
}

class SparsePagesModel {
 public:
  explicit SparsePagesModel(uint64_t seed) : rng_(seed) {}

  void Step() {
    const int64_t roll = rng_.UniformInt(0, 99);
    if (roll < 40 || model_.empty()) {
      InsertNext();
    } else if (roll < 50) {
      InsertBelowBound();
    } else if (roll < 52) {
      InsertAhead();
    } else if (roll < 85) {
      Erase();
    } else {
      Probe();
    }
    Check();
  }

 private:
  void Insert(uint64_t id) {
    if (model_.count(id) != 0) return;
    Put(table_, id);
    model_[id] = id * 7;
  }
  // The next id in order, as interning and commits assign them.
  void InsertNext() { Insert(table_.id_bound()); }
  // An id below the bound: replay into a young, complete, compacted or freed page.
  void InsertBelowBound() {
    if (table_.id_bound() == 0) return;
    const int64_t bound = static_cast<int64_t>(table_.id_bound());
    Insert(static_cast<uint64_t>(rng_.UniformInt(0, bound - 1)));
  }
  // A jump past several pages, completing every page in between at once.
  void InsertAhead() {
    Insert(table_.id_bound() + static_cast<uint64_t>(rng_.UniformInt(1, 40)));
  }
  void Erase() {
    auto it = model_.begin();
    std::advance(it, rng_.UniformInt(0, static_cast<int64_t>(model_.size()) - 1));
    table_.Erase(it->first);
    model_.erase(it);
  }
  void Probe() {
    const int64_t bound = static_cast<int64_t>(table_.id_bound());
    const uint64_t id = static_cast<uint64_t>(rng_.UniformInt(0, bound + kPage));
    auto it = model_.find(id);
    const TestSlot* slot = table_.Find(id);
    ASSERT_EQ(slot != nullptr, it != model_.end()) << id;
    if (slot != nullptr) {
      EXPECT_EQ(slot->value, it->second) << id;
    }
    auto next = model_.lower_bound(id);
    EXPECT_EQ(table_.NextLive(id), next == model_.end() ? table_.id_bound() : next->first) << id;
  }

  void Check() {
    ASSERT_EQ(table_.size(), model_.size());
    // The halving rule's bound: every page holds a live id, a complete dense page is more
    // than half live and a compacted array at least half, and only the last page is young.
    const size_t live = table_.size();
    ASSERT_LE(table_.bytes(), 2 * (table_.id_bound() / kPage + 1) * Table::kPageEntryBytes +
                                  live * Table::kPageHeaderBytes +
                                  (2 * live + kPage) * sizeof(TestSlot));
    auto it = model_.begin();
    for (uint64_t id = table_.NextLive(0); id < table_.id_bound();
         id = table_.NextLive(id + 1)) {
      ASSERT_NE(it, model_.end());
      ASSERT_EQ(id, it->first);
      const TestSlot* slot = table_.Find(id);
      ASSERT_NE(slot, nullptr);
      ASSERT_EQ(slot->value, it->second);
      ASSERT_EQ(slot->name, "slot-with-a-heap-buffer-" + std::to_string(id));
      ++it;
    }
    ASSERT_EQ(it, model_.end());
  }

  Rng rng_;
  Table table_;
  std::map<uint64_t, uint64_t> model_;
};

TEST(SparsePagesModelTest, RandomSequencesMatchAnOrderedMap) {
  const bool full = EnvBool("HM_FAULTCHECK_FULL", false);
  const uint64_t seeds = full ? 64 : 8;
  const int steps = full ? 6000 : 3000;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SparsePagesModel model(seed);
    for (int step = 0; step < steps; ++step) {
      model.Step();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace halfmoon::sharedlog
