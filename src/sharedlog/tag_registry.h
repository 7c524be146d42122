// The tag table of the shared log: string-tag interning plus every per-tag state.
//
// Every sub-stream name ("<instance-id>", "k:<key>", "switch:<scope>", "ssf.init", ...) is
// interned exactly once into a dense 64-bit TagId. After that, every append/read/trim hashes
// a single integer instead of building and hashing a fresh std::string — the metadata cost
// Halfmoon's one-record-per-op design is meant to avoid (§4, Theorem 4.6).
//
// One table, two structures:
//   * table_   — open-addressed {hash, id} slots (no per-entry heap node): a lookup is a
//                linear probe over a contiguous array plus one name verification, with
//                heterogeneous support so a two-part name like ("k:", key) is hashed *as if
//                concatenated* without allocating;
//   * slots_   — everything else a tag has: its name, owning shard, sub-stream (TagStream)
//                and state (live or retiring), one Slot per unretired id in a SparsePages
//                table (sparse_pages.h), whose pages shrink to their unretired ids: a tag
//                interned among short-lived instance ids costs its own slot, not a page.
//
// Lifecycle: an id is live from its assignment; Close makes it retiring (name and stream
// kept, ShardedLog's live paths abort on it); Retire makes it retired (name and slot freed).
//
// Invariants:
//   * ids are dense, assigned in interning order, and never reused: size() counts every id
//     ever assigned, retired or not;
//   * a returned `const std::string&` / string_view / TagStream* stays valid until the next
//     Intern or Retire: either may compact, grow or shrink a page, which moves its slots;
//   * Retire(id) removes the name from the table by backward-shift deletion (linear probing
//     needs no tombstones) and frees it. Interning the same name later assigns a NEW id;
//     callers that must never revive a retired name (the runtime's step logs) guard that
//     themselves. Name, ShardOf, Contains, Close and Retire abort on a retired id with a
//     named error;
//   * Intern(name) == InternPrefixed(prefix, suffix) whenever name == prefix + suffix —
//     guaranteed by hashing the logical concatenation with the same streaming polynomial
//     hash (split-invariant: mixing bytes in two parts equals mixing them in one);
//   * intern_requests() - hits never exceeds size(): each distinct name is materialized
//     (allocated, hashed as a string) at most once per id, which the bench asserts.

#ifndef HALFMOON_SHAREDLOG_TAG_REGISTRY_H_
#define HALFMOON_SHAREDLOG_TAG_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/sparse_pages.h"
#include "src/sharedlog/tag_stream.h"

namespace halfmoon::sharedlog {

class TagRegistry {
 public:
  // Ids per slot page. A dense page is kPageIds 72-byte slots (~2.3 KiB); this size measured
  // the lowest peak RSS on the e2e workloads (EXPERIMENTS.md "One tag table").
  static constexpr size_t kPageIds = 32;

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

  // Full string name of an unretired id. Aborts on unknown and retired ids.
  const std::string& Name(TagId id) const { return Locate(id).name; }

  // True for every unretired id, false for ids never assigned; aborts on a retired id.
  bool Contains(TagId id) const {
    if (id >= size()) return false;
    Locate(id);
    return true;
  }

  // True iff `id` was assigned and then retired. Never aborts.
  bool Retired(TagId id) const { return id < size() && slots_.Find(id) == nullptr; }
  // True iff `id` was assigned and is retiring or retired. Never aborts.
  bool Closed(TagId id) const {
    if (id >= size()) return false;
    const Slot* slot = slots_.Find(id);
    return slot == nullptr || slot->state != TagState::kLive;
  }

  // The sub-stream of an assigned id: LiveStream only while the id is live, Stream also
  // while it is retiring. Null otherwise (unknown, closed or retired respectively). The
  // pointer is invalidated like a name reference (see the header).
  const TagStream* LiveStream(TagId id) const {
    const Slot* slot = slots_.Find(id);
    return slot != nullptr && slot->state == TagState::kLive ? &slot->stream : nullptr;
  }
  TagStream* LiveStream(TagId id) {
    return const_cast<TagStream*>(std::as_const(*this).LiveStream(id));
  }
  const TagStream* Stream(TagId id) const {
    const Slot* slot = slots_.Find(id);
    return slot != nullptr ? &slot->stream : nullptr;
  }
  TagStream* Stream(TagId id) { return const_cast<TagStream*>(std::as_const(*this).Stream(id)); }

  // The first unretired (live or retiring) id >= `from`, or size() if there is none. Walks
  // visit every unretired id in id order with
  //   for (TagId id = NextUnretired(0); id < size(); id = NextUnretired(id + 1))
  // scanning each page's live mask.
  TagId NextUnretired(TagId from) const { return slots_.NextLive(from); }

  // Marks a live or retiring id retiring: its name and stream stay, and ShardedLog's live
  // paths abort on it from now on.
  void Close(TagId id) { MutableSlot(id).state = TagState::kRetiring; }

  // Retires an unretired id for good: its name leaves the table and its slot is freed (its
  // stream must already be empty); its page may compact or shrink (see the header).
  void Retire(TagId id);

  // Empties every stream, keeping names and states: the log's records are gone after a node
  // loss, the id assignment is not.
  void ResetStreams();

  // Number of ids ever assigned (retired ones included): the next id to be assigned.
  size_t size() const { return slots_.id_bound(); }
  // Ids assigned and not retired.
  size_t live_size() const { return slots_.size(); }
  // Slot pages holding an unretired id, and the slot table's bytes (sparse_pages.h).
  size_t Pages() const { return slots_.pages(); }
  size_t SlotBytes() const { return slots_.bytes(); }

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
    HM_CHECK_MSG(size() == 0, "TagRegistry::SetShardCount after tags were interned");
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

  // One open-addressing bucket: the full 64-bit hash as a fingerprint plus the id. A bucket
  // is empty iff id == kInvalidTagId. Retire deletes by backward shift, so linear probing
  // needs no tombstones, and growing the table reinserts {hash, id} pairs without touching a
  // name.
  struct Bucket {
    uint64_t hash = 0;
    TagId id = kInvalidTagId;
  };

  // An unretired id's lifecycle (see the header); a retired id has no slot.
  enum class TagState : uint8_t { kLive, kRetiring };
  // Everything one unretired id owns.
  struct Slot {
    // shard and state sit in the stream's tail padding, so a slot is 72 bytes, not 80.
    [[no_unique_address]] TagStream stream;
    uint8_t shard = 0;
    TagState state = TagState::kLive;
    std::string name;
  };
  static_assert(sizeof(Slot) == sizeof(std::string) + sizeof(TagStream));

  // An unretired id's slot. Aborts with a named error on unknown and retired ids.
  const Slot& Locate(TagId id) const {
    HM_CHECK_MSG(id < size(), "TagRegistry: unknown TagId");
    const Slot* slot = slots_.Find(id);
    HM_CHECK_MSG(slot != nullptr, "TagRegistry: TagId was retired");
    return *slot;
  }
  Slot& MutableSlot(TagId id) { return const_cast<Slot&>(Locate(id)); }

  size_t Home(uint64_t hash) const { return static_cast<size_t>(Finalize(hash)) & table_mask_; }

  // Probe for the slot holding `hash` + a name equal to prefix+suffix (suffix may be empty
  // and prefix the full name). Returns the matching slot index, or the empty slot where the
  // name would be inserted.
  size_t ProbeFor(uint64_t hash, std::string_view prefix, std::string_view suffix) const;

  TagId Register(std::string full_name, uint64_t hash);
  void GrowTable();

  std::vector<Bucket> table_;                   // Open-addressed name → id index.
  size_t table_mask_ = 0;                       // table_.size() - 1 (size is a power of two).
  SparsePages<Slot, kPageIds> slots_;          // Unretired ids' slots; size() is its id bound.
  int64_t intern_requests_ = 0;
  std::function<void(TagId, std::string_view)> intern_sink_;
  uint32_t shard_count_ = 1;
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_TAG_REGISTRY_H_
