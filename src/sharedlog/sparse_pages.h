// Dense integer ids → slots, in memory that follows the live ids, not the id history
// (DESIGN.md §7.1). A page of kPageSlots ids is one allocation: a header with the 64-bit live
// mask, then its slots. A young page is dense, indexed by offset. Once complete (id_bound()
// passed its end) and at most half live, it is compacted, once, to its live slots indexed by
// rank in the mask (a page first used when complete starts so). A compacted array doubles
// when full and shrinks to its live slots when at most half full; an empty page is freed.
// That halving rule is the amortization bound, not a tunable. Slot pointers are valid until
// the next Insert or Erase.

#ifndef HALFMOON_SHAREDLOG_SPARSE_PAGES_H_
#define HALFMOON_SHAREDLOG_SPARSE_PAGES_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace halfmoon::sharedlog {

template <typename Slot, size_t kPageSlots>
class SparsePages {
  static_assert(kPageSlots >= 2 && kPageSlots <= 64, "a page's live mask is one 64-bit word");
  static_assert(alignof(Slot) <= 16 && std::is_nothrow_move_assignable_v<Slot>);

  // A page's header; its `capacity` slots follow it in the same allocation.
  struct alignas(16) Page {
    uint64_t live = 0;
    uint8_t capacity = 0;
    bool dense = false;  // Indexed by offset (kPageSlots slots), else by rank.
    Slot* slots() const {
      return std::launder(reinterpret_cast<Slot*>(const_cast<Page*>(this) + 1));
    }
  };
  struct FreePage {  // Page itself is trivially destructible.
    void operator()(Page* page) const {
      std::destroy_n(page->slots(), page->capacity);
      ::operator delete(page);
    }
  };
  using PagePtr = std::unique_ptr<Page, FreePage>;

 public:
  using Id = uint64_t;
  // A page of history's cost once its ids are dead, and an allocated page's besides its slots.
  static constexpr size_t kPageEntryBytes = sizeof(PagePtr);
  static constexpr size_t kPageHeaderBytes = sizeof(Page);

  // The live slot of `id`, or null.
  const Slot* Find(Id id) const {
    const size_t p = static_cast<size_t>(id / kPageSlots), off = id % kPageSlots;
    if (p >= pages_.size() || !pages_[p] || (pages_[p]->live >> off & 1) == 0) return nullptr;
    return &pages_[p]->slots()[Index(*pages_[p], off)];
  }
  Slot* Find(Id id) { return const_cast<Slot*>(std::as_const(*this).Find(id)); }

  // Makes `id` live with a default-constructed slot and returns it. Aborts if it is live.
  Slot& Insert(Id id) {
    const size_t p = static_cast<size_t>(id / kPageSlots), off = id % kPageSlots;
    const Id old_bound = bound_;
    bound_ = std::max(bound_, id + 1);
    if (p >= pages_.size()) pages_.resize(p + 1);
    PagePtr& page = pages_[p];
    if (page == nullptr) {
      page = NewPage(Complete(p) ? 1 : kPageSlots, /*dense=*/!Complete(p));
    } else {
      HM_CHECK_MSG((page->live >> off & 1) == 0, "SparsePages: id inserted twice");
      if (!page->dense) {
        const size_t live = static_cast<size_t>(std::popcount(page->live));
        if (live == page->capacity) Repack(page, std::min(kPageSlots, 2 * live));
        Slot* slots = page->slots();
        const size_t rank = Index(*page, off);
        std::move_backward(slots + rank, slots + live, slots + live + 1);
        Reset(slots[rank]);
      }
    }
    page->live |= uint64_t{1} << off;
    ++size_;
    // Every page this insert completed (p itself if `id` is its last id) compacts if sparse.
    for (size_t q = old_bound / kPageSlots; q < bound_ / kPageSlots; ++q) MaybeCompact(q);
    return *Find(id);
  }

  // Frees the slot of a live `id`. Aborts if it is not live.
  void Erase(Id id) {
    const size_t p = static_cast<size_t>(id / kPageSlots), off = id % kPageSlots;
    HM_CHECK_MSG(Find(id) != nullptr, "SparsePages: erasing an id that is not live");
    PagePtr& page = pages_[p];
    const size_t index = Index(*page, off);
    page->live &= ~(uint64_t{1} << off);
    const size_t live = static_cast<size_t>(std::popcount(page->live));
    --size_;
    Slot* slots = page->slots();
    if (live == 0) {
      page.reset();
    } else if (page->dense) {
      Reset(slots[index]);
      MaybeCompact(p);
    } else {
      std::move(slots + index + 1, slots + live + 1, slots + index);
      Reset(slots[live]);
      if (2 * live <= page->capacity) Repack(page, live);
    }
  }

  // The first live id >= `from`, or id_bound() if there is none: a walk in id order is
  //   for (Id id = NextLive(0); id < id_bound(); id = NextLive(id + 1))
  Id NextLive(Id from) const {
    for (size_t p = static_cast<size_t>(from / kPageSlots); p < pages_.size(); ++p) {
      uint64_t live = pages_[p] != nullptr ? pages_[p]->live : 0;
      if (p == from / kPageSlots) live &= ~uint64_t{0} << (from % kPageSlots);
      if (live != 0) return p * kPageSlots + static_cast<Id>(std::countr_zero(live));
    }
    return bound_;
  }

  Id id_bound() const { return bound_; }  // One past the largest id ever inserted.
  size_t size() const { return size_; }   // Live ids.
  // Cold accessors (they scan the page table): pages holding a live id, and bytes of the page
  // table and the pages (not what the slots own).
  size_t pages() const { return pages_.size() - std::count(pages_.begin(), pages_.end(), nullptr); }
  size_t bytes() const {
    size_t total = pages_.capacity() * sizeof(PagePtr);
    for (const PagePtr& pg : pages_) {
      if (pg != nullptr) total += sizeof(Page) + pg->capacity * sizeof(Slot);
    }
    return total;
  }

 private:
  bool Complete(size_t p) const { return (p + 1) * kPageSlots <= bound_; }
  static size_t Index(const Page& page, size_t off) {
    if (page.dense) return off;
    return static_cast<size_t>(std::popcount(page.live & ((uint64_t{1} << off) - 1)));
  }
  static PagePtr NewPage(size_t capacity, bool dense) {
    PagePtr page(new (::operator new(sizeof(Page) + capacity * sizeof(Slot)))
                     Page{0, static_cast<uint8_t>(capacity), dense});
    std::uninitialized_value_construct_n(reinterpret_cast<Slot*>(page.get() + 1), capacity);
    return page;
  }
  // Re-creates a slot, so all it owns is freed (a moved-into string may keep its buffer).
  static void Reset(Slot& slot) {
    std::destroy_at(&slot);
    std::construct_at(&slot);
  }
  // Moves the live slots, in id order, into a fresh compacted array of `capacity` slots.
  static void Repack(PagePtr& page, size_t capacity) {
    PagePtr fresh = NewPage(capacity, /*dense=*/false);
    size_t rank = 0;
    for (uint64_t live = page->live; live != 0; live &= live - 1) {
      fresh->slots()[rank++] = std::move(page->slots()[Index(*page, std::countr_zero(live))]);
    }
    fresh->live = page->live;
    page = std::move(fresh);
  }
  // The one compaction rule: a complete dense page at most half live keeps its live slots.
  void MaybeCompact(size_t p) {
    PagePtr& page = pages_[p];
    if (page == nullptr || !page->dense || !Complete(p)) return;
    const size_t live = static_cast<size_t>(std::popcount(page->live));
    if (2 * live <= kPageSlots) Repack(page, live);
  }

  std::vector<PagePtr> pages_;  // Indexed by id / kPageSlots; null where no id is live.
  Id bound_ = 0;
  size_t size_ = 0;
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_SPARSE_PAGES_H_
