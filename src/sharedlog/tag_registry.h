// String-tag interning for the shared log.
//
// Every sub-stream name ("<instance-id>", "k:<key>", "switch:<scope>", "ssf.init", ...) is
// interned exactly once into a dense 64-bit TagId. After that, every append/read/trim hashes
// a single integer instead of building and hashing a fresh std::string — the metadata cost
// Halfmoon's one-record-per-op design is meant to avoid (§4, Theorem 4.6).
//
// Three structures, all owned here:
//   * table_   — open-addressed {hash, id} slots (no per-entry heap node): a lookup is a
//                linear probe over a contiguous array plus one name verification, with
//                heterogeneous support so a two-part name like ("k:", key) is hashed *as if
//                concatenated* without allocating;
//   * pages_   — id-indexed state (name, owning shard, retired bit) in pages of kPageIds
//                consecutive ids, allocated when the page's first id is assigned;
//   * spilled_ — the few live ids of a page that retirement left sparse. Once every id of a
//                page is assigned and at most kSpillLive of them are still live, the
//                survivors move here and the page is freed. Long-lived tags interned among
//                short-lived instance ids (an object created mid-run) therefore never pin a
//                page, and a long run's dead ids cost only their 8-byte page-table slot.
//
// Invariants:
//   * ids are dense, assigned in interning order, and never reused: size() counts every id
//     ever assigned, retired or not;
//   * a returned `const std::string&` / string_view stays valid until the next Retire:
//     interning never moves a name, but a spill moves its page's surviving names;
//   * Retire(id) removes the name from the table by backward-shift deletion (linear probing
//     needs no tombstones) and frees it. Interning the same name later assigns a NEW id;
//     callers that must never revive a retired name (the runtime's step logs) guard that
//     themselves. Name, ShardOf and Contains abort on a retired id with a named error;
//   * Intern(name) == InternPrefixed(prefix, suffix) whenever name == prefix + suffix —
//     guaranteed by hashing the logical concatenation with the same streaming polynomial
//     hash (split-invariant: mixing bytes in two parts equals mixing them in one);
//   * intern_requests() - hits never exceeds size(): each distinct name is materialized
//     (allocated, hashed as a string) at most once per id, which the bench asserts.

#ifndef HALFMOON_SHAREDLOG_TAG_REGISTRY_H_
#define HALFMOON_SHAREDLOG_TAG_REGISTRY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/sharedlog/log_record.h"

namespace halfmoon::sharedlog {

class TagRegistry {
 public:
  // Ids per state page. ShardedLog pages its per-tag streams on the same boundaries.
  static constexpr size_t kPageIds = 64;

  TagRegistry() = default;
  TagRegistry(const TagRegistry&) = delete;
  TagRegistry& operator=(const TagRegistry&) = delete;

  // Returns the id for `name`, creating it on first sight (or after the name's id retired).
  TagId Intern(std::string_view name);

  // Returns the id for the logical name `prefix + suffix` without concatenating unless the
  // name is new. This is the steady-state entry point for two-part names ("k:" + key).
  TagId InternPrefixed(std::string_view prefix, std::string_view suffix);

  // Lookup without interning; kInvalidTagId if the name was never interned or its id
  // retired. Used by read paths that must not grow the registry for names that cannot have
  // records.
  TagId Find(std::string_view name) const;
  TagId FindPrefixed(std::string_view prefix, std::string_view suffix) const;

  // Full string name of a live id. Aborts on unknown and retired ids.
  const std::string& Name(TagId id) const { return *Locate(id).name; }

  // True for every live id, false for ids never assigned; aborts on a retired id.
  bool Contains(TagId id) const {
    if (id >= next_id_) return false;
    Locate(id);
    return true;
  }

  // True iff `id` was assigned and then retired. Never aborts.
  bool Retired(TagId id) const {
    if (id >= next_id_) return false;
    const IdPage* page = pages_[id / kPageIds].get();
    if (page != nullptr) return (page->retired >> (id % kPageIds) & 1) != 0;
    return !spilled_.contains(id);
  }

  // Whether the state page covering ids [page * kPageIds, (page + 1) * kPageIds) is still
  // allocated. Once it is not, every id in the range is retired or spilled.
  bool PageLive(size_t page) const { return page < pages_.size() && pages_[page] != nullptr; }

  // Bit i is set iff id page * kPageIds + i is retired. Live pages only.
  uint64_t RetiredMask(size_t page) const {
    HM_CHECK_MSG(PageLive(page), "TagRegistry::RetiredMask: page was freed");
    return pages_[page]->retired;
  }

  // Retires a live id for good: its name leaves the table and its storage is freed; a page
  // left sparse spills its survivors and goes (see spilled_ above).
  void Retire(TagId id);

  // Number of ids ever assigned (retired ones included): the next id to be assigned.
  size_t size() const { return next_id_; }
  // Ids assigned and not retired.
  size_t live_size() const { return next_id_ - retired_; }
  // State pages currently allocated. Cold accessor (scans the page table).
  size_t Pages() const;
  // Live ids held outside any page.
  size_t spilled() const { return spilled_.size(); }

  // A complete page with at most this many live ids spills them and is freed.
  static constexpr size_t kSpillLive = kPageIds / 8;

  // The full-name hash Retire records (FNV-style streaming polynomial over the name bytes);
  // the journal's kRetire frame carries it so replay can cross-check kTagDef frames of ids
  // whose names are already gone.
  static uint64_t NameHash(std::string_view name) { return HashName(name); }

  // ---- Tag → shard mapping (sharded shared log) ----
  // The mapping is a pure function of the tag *name* (finalized name hash mod shard count),
  // so it is identical across runs, processes, and interning orders — a prerequisite for the
  // shard-equivalence guarantees. Must be set before the first interning; a single-shard
  // registry (the default) maps every tag to shard 0.
  void SetShardCount(uint32_t shard_count) {
    HM_CHECK_MSG(next_id_ == 0, "TagRegistry::SetShardCount after tags were interned");
    HM_CHECK(shard_count >= 1);
    HM_CHECK_MSG(shard_count <= 256, "TagRegistry: at most 256 shards (one byte per id)");
    shard_count_ = shard_count;
  }
  uint32_t shard_count() const { return shard_count_; }
  uint32_t ShardOf(TagId id) const { return Locate(id).shard; }

  // Total Intern/InternPrefixed calls. size() staying flat while this grows proves the
  // steady state never re-materializes a tag name (acceptance criterion of ISSUE 2).
  int64_t intern_requests() const { return intern_requests_; }

  // Fires once per NEWLY registered name, with its freshly assigned id — Register is the
  // single insertion point, so repeat interns never re-fire. The durability layer hooks this
  // to journal kTagDef frames (DESIGN.md §13): the (id, name) assignment is volatile sequencer
  // state, and replay cross-checks it against the journal.
  void SetInternSink(std::function<void(TagId, std::string_view)> sink) {
    intern_sink_ = std::move(sink);
  }

 private:
  // Polynomial rolling hash: h := h*r + byte for every byte. Appending is a monoid action,
  // so Mix(Mix(h, a), b) == Mix(h, ab) for any split — hashing ("k:", key) equals hashing
  // the concatenated name. Unlike byte-at-a-time FNV (whose multiply chain is one 3-cycle
  // dependency per byte), the loop consumes 8 bytes per step: the eight byte·r^k products
  // are independent, leaving a single multiply on the critical path per word.
  static constexpr uint64_t kR = 1099511628211ULL;  // Odd multiplier (the FNV prime).
  static constexpr uint64_t Pow(int k) {
    uint64_t p = 1;
    for (int i = 0; i < k; ++i) p *= kR;
    return p;
  }
  static uint64_t Mix(uint64_t h, std::string_view s) {
    constexpr uint64_t kR8 = Pow(8), kR7 = Pow(7), kR6 = Pow(6), kR5 = Pow(5), kR4 = Pow(4),
                       kR3 = Pow(3), kR2 = Pow(2);
    const unsigned char* p = reinterpret_cast<const unsigned char*>(s.data());
    size_t n = s.size();
    for (; n >= 8; n -= 8, p += 8) {
      h = h * kR8 + (p[0] * kR7 + p[1] * kR6 + p[2] * kR5 + p[3] * kR4 + p[4] * kR3 +
                     p[5] * kR2 + p[6] * kR + p[7]);
    }
    for (; n > 0; --n, ++p) h = h * kR + *p;
    return h;
  }
  static constexpr uint64_t kOffset = 14695981039346656037ULL;
  static uint64_t HashName(std::string_view name) { return Mix(kOffset, name); }
  static uint64_t HashName(std::string_view prefix, std::string_view suffix) {
    return Mix(Mix(kOffset, prefix), suffix);
  }
  // Low bits of a polynomial hash are weak (mod-2^64 products never see high bits), so the
  // probe start position comes from a finalizer, not the raw hash.
  static uint64_t Finalize(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

  // One open-addressing slot: the full 64-bit hash as a fingerprint plus the id. A slot is
  // empty iff id == kInvalidTagId. Retire deletes by backward shift, so linear probing needs
  // no tombstones, and growing the table reinserts {hash, id} pairs without touching a name.
  struct Slot {
    uint64_t hash = 0;
    TagId id = kInvalidTagId;
  };

  // The state of kPageIds consecutive ids. A retired id's name is freed at once (its
  // string emptied); the page goes when it spills.
  struct IdPage {
    std::array<std::string, kPageIds> names;
    std::array<uint8_t, kPageIds> shard{};
    uint64_t retired = 0;  // Bit i: id (page * kPageIds + i) is retired.
  };
  struct SpilledId {
    std::string name;
    uint8_t shard = 0;
  };

  // Where a live id's state sits. Aborts with a named error on unknown and retired ids.
  struct Entry {
    const std::string* name;
    uint8_t shard;
  };
  Entry Locate(TagId id) const {
    HM_CHECK_MSG(id < next_id_, "TagRegistry: unknown TagId");
    const IdPage* page = pages_[id / kPageIds].get();
    if (page != nullptr) {
      HM_CHECK_MSG((page->retired >> (id % kPageIds) & 1) == 0, "TagRegistry: TagId was retired");
      return Entry{&page->names[id % kPageIds], page->shard[id % kPageIds]};
    }
    auto it = spilled_.find(id);
    HM_CHECK_MSG(it != spilled_.end(), "TagRegistry: TagId was retired");
    return Entry{&it->second.name, it->second.shard};
  }

  // Frees page `p` if it is complete and sparse, moving its live ids to spilled_.
  void MaybeSpill(size_t p);

  size_t Home(uint64_t hash) const { return static_cast<size_t>(Finalize(hash)) & table_mask_; }

  // Probe for the slot holding `hash` + a name equal to prefix+suffix (suffix may be empty
  // and prefix the full name). Returns the matching slot index, or the empty slot where the
  // name would be inserted.
  size_t ProbeFor(uint64_t hash, std::string_view prefix, std::string_view suffix) const;

  TagId Register(std::string full_name, uint64_t hash);
  void GrowTable();

  std::vector<Slot> table_;                    // Open-addressed name → id index.
  size_t table_mask_ = 0;                      // table_.size() - 1 (size is a power of two).
  std::vector<std::unique_ptr<IdPage>> pages_;  // Indexed by id / kPageIds.
  std::unordered_map<TagId, SpilledId> spilled_;
  TagId next_id_ = 0;
  size_t retired_ = 0;
  int64_t intern_requests_ = 0;
  std::function<void(TagId, std::string_view)> intern_sink_;
  uint32_t shard_count_ = 1;
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_TAG_REGISTRY_H_
