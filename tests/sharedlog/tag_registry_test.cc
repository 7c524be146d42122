#include "src/sharedlog/tag_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace halfmoon::sharedlog {
namespace {

TEST(TagRegistryTest, InternIsIdempotent) {
  TagRegistry reg;
  TagId a = reg.Intern("stream-a");
  EXPECT_EQ(reg.Intern("stream-a"), a);
  EXPECT_EQ(reg.Intern("stream-a"), a);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.intern_requests(), 3);
}

TEST(TagRegistryTest, IdsAreDenseInInterningOrder) {
  TagRegistry reg;
  EXPECT_EQ(reg.Intern("a"), 0u);
  EXPECT_EQ(reg.Intern("b"), 1u);
  EXPECT_EQ(reg.Intern("c"), 2u);
  EXPECT_EQ(reg.Name(1), "b");
  EXPECT_TRUE(reg.Contains(2));
  EXPECT_FALSE(reg.Contains(3));
}

TEST(TagRegistryTest, InternPrefixedEqualsInternOfConcatenation) {
  TagRegistry reg;
  // Whichever spelling interns first, the other must resolve to the same id.
  TagId split_first = reg.InternPrefixed("k:", "alpha");
  EXPECT_EQ(reg.Intern("k:alpha"), split_first);
  TagId whole_first = reg.Intern("k:beta");
  EXPECT_EQ(reg.InternPrefixed("k:", "beta"), whole_first);
  EXPECT_EQ(reg.size(), 2u);
  // Empty prefix and empty suffix degenerate to plain Intern.
  EXPECT_EQ(reg.InternPrefixed("", "k:alpha"), split_first);
  EXPECT_EQ(reg.InternPrefixed("k:alpha", ""), split_first);
}

TEST(TagRegistryTest, FindNeverGrowsTheRegistry) {
  TagRegistry reg;
  TagId a = reg.Intern("present");
  EXPECT_EQ(reg.Find("present"), a);
  EXPECT_EQ(reg.Find("absent"), kInvalidTagId);
  EXPECT_EQ(reg.FindPrefixed("pre", "sent"), a);
  EXPECT_EQ(reg.FindPrefixed("ab", "sent"), kInvalidTagId);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(TagRegistryTest, RepeatedInterningMaterializesEachNameOnce) {
  // The steady-state claim: size() stays flat while intern_requests() grows, i.e. a hot
  // append loop never re-allocates or re-registers a known tag name.
  TagRegistry reg;
  const std::string keys[] = {"k:x", "k:y", "k:z"};
  for (int round = 0; round < 1000; ++round) {
    for (const std::string& key : keys) {
      reg.InternPrefixed("", key);
    }
  }
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.intern_requests(), 3000);
}

TEST(TagRegistryTest, NameViewsStayStableAcrossGrowth) {
  // Returned name references must survive arbitrary later interning (rehash of the name map).
  TagRegistry reg;
  TagId first = reg.Intern("stable");
  const std::string* before = &reg.Name(first);
  for (int i = 0; i < 10000; ++i) {
    reg.Intern("filler-" + std::to_string(i));
  }
  EXPECT_EQ(&reg.Name(first), before);
  EXPECT_EQ(reg.Name(first), "stable");
}

TEST(TagRegistryTest, InternPrefixedStaysStableAcrossRehashMidStream) {
  // Drive the open-addressed table through several growths (it grows at 2/3 load from 64
  // slots) while interleaving InternPrefixed and Intern of the same logical names. Ids
  // assigned before a rehash must resolve identically after it, no matter which entry point
  // is used.
  TagRegistry reg;
  std::vector<TagId> prefixed_ids;
  std::vector<TagId> plain_ids;
  constexpr int kCount = 2000;  // >> 64 * (2/3)^k for several k: forces rehashes mid-stream.
  for (int i = 0; i < kCount; ++i) {
    std::string suffix = "key-" + std::to_string(i);
    prefixed_ids.push_back(reg.InternPrefixed("k:", suffix));
    plain_ids.push_back(reg.Intern("plain-" + std::to_string(i)));
    // Re-probe a name interned long before the most recent growth: both entry points must
    // find the pre-rehash id, and the finalized-hash collision handling must not confuse
    // "k:" + suffix with the identical concatenated whole name.
    int probe = i / 2;
    std::string old_suffix = "key-" + std::to_string(probe);
    EXPECT_EQ(reg.InternPrefixed("k:", old_suffix), prefixed_ids[probe]);
    EXPECT_EQ(reg.Intern("k:" + old_suffix), prefixed_ids[probe]);
    EXPECT_EQ(reg.Find("k:" + old_suffix), prefixed_ids[probe]);
    EXPECT_EQ(reg.FindPrefixed("k:", old_suffix), prefixed_ids[probe]);
  }
  EXPECT_EQ(reg.size(), static_cast<size_t>(2 * kCount));

  // Every id still maps to its original name (dense id → name survives all growths).
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(reg.Name(prefixed_ids[i]), "k:key-" + std::to_string(i));
    EXPECT_EQ(reg.Name(plain_ids[i]), "plain-" + std::to_string(i));
  }
}

TEST(TagRegistryTest, RetireFreesTheNameAndNeverReusesTheId) {
  TagRegistry reg;
  TagId keep = reg.Intern("keep");
  TagId gone = reg.Intern("instance#1");
  reg.Retire(gone);
  EXPECT_TRUE(reg.Retired(gone));
  EXPECT_FALSE(reg.Retired(keep));
  EXPECT_EQ(reg.Find("instance#1"), kInvalidTagId);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.live_size(), 1u);
  // The same name interned again gets a fresh id: retired ids are never handed out twice.
  TagId again = reg.Intern("instance#1");
  EXPECT_EQ(again, 2u);
  EXPECT_EQ(reg.Name(again), "instance#1");
  EXPECT_EQ(reg.Find("keep"), keep);
}

TEST(TagRegistryTest, BackwardShiftDeletionKeepsEveryProbeChainReachable) {
  // Retire a scattered half of a table driven through several growths, then check every
  // survivor still resolves through both entry points and every retired name is gone. A
  // deletion that left a hole mid-cluster would strand the entries probed past it.
  TagRegistry reg;
  constexpr int kCount = 3000;
  std::vector<TagId> ids;
  for (int i = 0; i < kCount; ++i) ids.push_back(reg.InternPrefixed("k:", std::to_string(i)));
  for (int i = 0; i < kCount; ++i) {
    if (i % 7 == 3 || i % 2 == 0) reg.Retire(ids[i]);
  }
  for (int i = 0; i < kCount; ++i) {
    bool retired = i % 7 == 3 || i % 2 == 0;
    std::string suffix = std::to_string(i);
    EXPECT_EQ(reg.FindPrefixed("k:", suffix), retired ? kInvalidTagId : ids[i]) << i;
    EXPECT_EQ(reg.Find("k:" + suffix), retired ? kInvalidTagId : ids[i]) << i;
    EXPECT_EQ(reg.Retired(ids[i]), retired);
  }
  // Survivors are not re-materialized: re-interning them leaves the registry size flat.
  size_t size = reg.size();
  for (int i = 1; i < kCount; i += 2) {
    if (i % 7 != 3) {
      EXPECT_EQ(reg.InternPrefixed("k:", std::to_string(i)), ids[i]);
    }
  }
  EXPECT_EQ(reg.size(), size);
}

// Bytes of one registry slot (tag_registry.h static_asserts this layout) and of a slot
// page's header.
constexpr size_t kSlotBytes = sizeof(std::string) + sizeof(TagStream);
constexpr size_t kHeaderBytes = SparsePages<int, TagRegistry::kPageIds>::kPageHeaderBytes;

TEST(TagRegistryTest, SparsePageSpillsItsSurvivorsAndIsFreed) {
  // A complete page keeps only its live slots once at most half of its ids are unretired,
  // halves again whenever its array is at most half live, and is freed with its last id.
  TagRegistry reg;
  constexpr size_t kPage = TagRegistry::kPageIds;
  for (size_t i = 0; i < 3 * kPage; ++i) reg.Intern("i" + std::to_string(i));
  EXPECT_EQ(reg.Pages(), 3u);
  const size_t dense = reg.SlotBytes();
  // Retire page 1 down to one live id more than half: the page stays dense.
  size_t live = kPage;
  for (TagId id = 2 * kPage - 1; live > kPage / 2 + 1; --id, --live) reg.Retire(id);
  EXPECT_EQ(reg.SlotBytes(), dense);
  // One more retirement leaves it half live: it compacts to its survivors.
  reg.Retire(kPage + kPage / 2);
  EXPECT_EQ(reg.Pages(), 3u);
  EXPECT_EQ(reg.SlotBytes(), dense - (kPage / 2) * kSlotBytes);
  // A walk over page 1 meets exactly its survivors, in id order.
  std::vector<TagId> walked;
  for (TagId id = reg.NextUnretired(kPage); id < 2 * kPage; id = reg.NextUnretired(id + 1)) {
    walked.push_back(id);
  }
  ASSERT_EQ(walked.size(), kPage / 2);
  for (size_t i = 0; i < walked.size(); ++i) EXPECT_EQ(walked[i], kPage + i);
  // Survivors keep their names, shards and lookups, wherever compaction moved them.
  EXPECT_EQ(reg.Name(kPage), "i" + std::to_string(kPage));
  EXPECT_EQ(reg.Name(kPage + kPage / 2 - 1), "i" + std::to_string(kPage + kPage / 2 - 1));
  EXPECT_EQ(reg.Find("i" + std::to_string(kPage)), kPage);
  EXPECT_EQ(reg.ShardOf(kPage), 0u);
  EXPECT_FALSE(reg.Retired(kPage));
  EXPECT_TRUE(reg.Retired(kPage + kPage / 2));
  // Retiring a survivor removes it for good; the array halves once it is at most half live.
  reg.Retire(kPage);
  EXPECT_TRUE(reg.Retired(kPage));
  EXPECT_EQ(reg.Find("i" + std::to_string(kPage)), kInvalidTagId);
  EXPECT_EQ(reg.Name(kPage + 1), "i" + std::to_string(kPage + 1));
  EXPECT_EQ(reg.SlotBytes(), dense - (kPage / 2) * kSlotBytes);
  for (TagId id = kPage + 1; id <= kPage + kPage / 4; ++id) reg.Retire(id);
  EXPECT_EQ(reg.SlotBytes(), dense - (3 * kPage / 4) * kSlotBytes);
  EXPECT_EQ(reg.NextUnretired(kPage), kPage + kPage / 4 + 1);
  // The last survivor's retirement frees the page.
  for (TagId id = kPage + kPage / 4 + 1; id < kPage + kPage / 2; ++id) reg.Retire(id);
  EXPECT_EQ(reg.Pages(), 2u);
  EXPECT_EQ(reg.SlotBytes(), dense - kPage * kSlotBytes - kHeaderBytes);
  EXPECT_EQ(reg.NextUnretired(kPage), 2 * kPage);
  // Neighbouring pages are untouched.
  EXPECT_EQ(reg.Name(0), "i0");
  EXPECT_EQ(reg.Name(2 * kPage), "i" + std::to_string(2 * kPage));
  EXPECT_EQ(reg.live_size(), 2 * kPage);
}

TEST(TagRegistryTest, PageCompletedAfterMostOfItsIdsRetiredSpills) {
  // Regression: a compaction rule run only on retirement would skip incomplete pages, so a
  // page whose last id was assigned after most of its ids had retired would stay dense until
  // one of its survivors retired.
  constexpr size_t kPage = TagRegistry::kPageIds;
  constexpr size_t kSurvivors = kPage / 4;
  TagRegistry reg;
  TagRegistry reference;  // The same ids, none retired.
  for (size_t i = 0; i + 1 < kPage; ++i) {
    reg.Intern("inst#" + std::to_string(i));
    reference.Intern("inst#" + std::to_string(i));
  }
  for (TagId id = 0; id + kSurvivors < kPage - 1; ++id) reg.Retire(id);
  EXPECT_EQ(reg.SlotBytes(), reference.SlotBytes());  // Young: still dense.
  // The late object completes page 0 with kSurvivors + 1 unretired ids, at most half.
  TagId late = reg.Intern("k:late-object");
  reference.Intern("k:late-object");
  ASSERT_EQ(late, kPage - 1);
  for (size_t i = 0; i < 10 * kPage; ++i) {
    reg.Intern("more#" + std::to_string(i));
    reference.Intern("more#" + std::to_string(i));
  }
  EXPECT_EQ(reg.Pages(), 11u);
  EXPECT_EQ(reference.SlotBytes() - reg.SlotBytes(), (kPage - kSurvivors - 1) * kSlotBytes);
  EXPECT_EQ(reg.NextUnretired(0), kPage - 1 - kSurvivors);
  EXPECT_EQ(reg.Name(late), "k:late-object");
  EXPECT_EQ(reg.Find("k:late-object"), late);
  EXPECT_EQ(reg.Name(kPage - 1 - kSurvivors), "inst#" + std::to_string(kPage - 1 - kSurvivors));
}

TEST(TagRegistryTest, SlotStateAndStreamFollowTheIdThroughCloseSpillAndReset) {
  constexpr size_t kPage = TagRegistry::kPageIds;
  TagRegistry reg;
  for (size_t i = 0; i < kPage; ++i) reg.Intern("i" + std::to_string(i));
  reg.Stream(3)->entries = {5, 9};
  reg.Stream(4)->entries = {7};
  // Closing keeps the name and the stream but hides the stream from live paths.
  reg.Close(4);
  EXPECT_FALSE(reg.Closed(3));
  EXPECT_TRUE(reg.Closed(4));
  EXPECT_FALSE(reg.Retired(4));
  EXPECT_EQ(reg.Name(4), "i4");
  EXPECT_EQ(reg.LiveStream(4), nullptr);
  ASSERT_NE(reg.Stream(4), nullptr);
  EXPECT_EQ(reg.Stream(4)->size(), 1u);
  EXPECT_EQ(reg.LiveStream(3), reg.Stream(3));
  // Unknown ids have no stream and are neither closed nor retired.
  EXPECT_EQ(reg.Stream(kPage), nullptr);
  EXPECT_FALSE(reg.Closed(kPage));
  // Retire everything but ids 3 and 4: the page compacts, and both slots move whole.
  const size_t dense = reg.SlotBytes();
  reg.Stream(4)->entries.clear();
  for (TagId id = 0; id < kPage; ++id) {
    if (id != 3 && id != 4) reg.Retire(id);
  }
  EXPECT_EQ(reg.Pages(), 1u);
  EXPECT_EQ(reg.SlotBytes(), dense - (kPage - 2) * kSlotBytes);
  EXPECT_EQ(reg.NextUnretired(0), 3u);
  EXPECT_EQ(reg.NextUnretired(4), 4u);
  EXPECT_EQ(reg.NextUnretired(5), reg.size());
  ASSERT_NE(reg.LiveStream(3), nullptr);
  EXPECT_EQ(reg.LiveStream(3)->size(), 2u);
  EXPECT_EQ((*reg.LiveStream(3))[1], 9u);
  EXPECT_TRUE(reg.Closed(4));
  EXPECT_EQ(reg.LiveStream(4), nullptr);
  // A node loss empties every stream but keeps names and states.
  reg.ResetStreams();
  EXPECT_TRUE(reg.Stream(3)->empty());
  EXPECT_EQ(reg.Stream(3)->entries.capacity(), 0u);
  EXPECT_TRUE(reg.Closed(4));
  EXPECT_EQ(reg.Name(3), "i3");
  reg.Retire(4);
  EXPECT_TRUE(reg.Retired(4));
  EXPECT_EQ(reg.SlotBytes(), dense - (kPage - 1) * kSlotBytes);
  EXPECT_EQ(reg.Name(3), "i3");
}

TEST(TagRegistryDeathTest, RetiredIdsFailClosed) {
  TagRegistry reg;
  TagId id = reg.Intern("done#7");
  reg.Intern("other");
  reg.Retire(id);
  EXPECT_DEATH(reg.Name(id), "TagId was retired");
  EXPECT_DEATH(reg.ShardOf(id), "TagId was retired");
  EXPECT_DEATH(reg.Contains(id), "TagId was retired");
  EXPECT_DEATH(reg.Retire(id), "TagId was retired");
  EXPECT_DEATH(reg.Close(id), "TagId was retired");
  // A slot whose stream still holds entries cannot retire.
  TagId busy = reg.Intern("busy");
  reg.Stream(busy)->entries = {1};
  EXPECT_DEATH(reg.Retire(busy), "stream still holds entries");
}

}  // namespace
}  // namespace halfmoon::sharedlog
