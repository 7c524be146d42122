#include "src/sharedlog/tag_registry.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace halfmoon::sharedlog {

namespace {
constexpr size_t kInitialTableSize = 64;  // Power of two; grown at 2/3 load.
}  // namespace

size_t TagRegistry::ProbeFor(uint64_t hash, std::string_view prefix,
                             std::string_view suffix) const {
  size_t i = Home(hash);
  while (true) {
    const Bucket& bucket = table_[i];
    if (bucket.id == kInvalidTagId) return i;
    if (bucket.hash == hash) {
      std::string_view name = Locate(bucket.id).name;  // Table entries are never retired.
      if (name.size() == prefix.size() + suffix.size() &&
          name.substr(0, prefix.size()) == prefix && name.substr(prefix.size()) == suffix) {
        return i;
      }
    }
    i = (i + 1) & table_mask_;
  }
}

void TagRegistry::GrowTable() {
  size_t new_size = table_.empty() ? kInitialTableSize : table_.size() * 2;
  std::vector<Bucket> old = std::move(table_);
  table_.assign(new_size, Bucket{});
  table_mask_ = new_size - 1;
  // Reinsertion only moves {hash, id} pairs — no name is rehashed or compared (entries are
  // unique by construction, so the first empty slot is always the right destination).
  for (const Bucket& bucket : old) {
    if (bucket.id == kInvalidTagId) continue;
    size_t i = Home(bucket.hash);
    while (table_[i].id != kInvalidTagId) i = (i + 1) & table_mask_;
    table_[i] = bucket;
  }
}

TagId TagRegistry::Intern(std::string_view name) {
  ++intern_requests_;
  if (table_.empty()) GrowTable();
  uint64_t hash = HashName(name);
  size_t i = ProbeFor(hash, name, {});
  if (table_[i].id != kInvalidTagId) return table_[i].id;
  return Register(std::string(name), hash);
}

TagId TagRegistry::InternPrefixed(std::string_view prefix, std::string_view suffix) {
  ++intern_requests_;
  if (table_.empty()) GrowTable();
  uint64_t hash = HashName(prefix, suffix);
  size_t i = ProbeFor(hash, prefix, suffix);
  if (table_[i].id != kInvalidTagId) return table_[i].id;
  // First sight: materialize the concatenated name once.
  std::string full;
  full.reserve(prefix.size() + suffix.size());
  full.append(prefix);
  full.append(suffix);
  return Register(std::move(full), hash);
}

TagId TagRegistry::Find(std::string_view name) const {
  if (table_.empty()) return kInvalidTagId;
  return table_[ProbeFor(HashName(name), name, {})].id;
}

TagId TagRegistry::FindPrefixed(std::string_view prefix, std::string_view suffix) const {
  if (table_.empty()) return kInvalidTagId;
  return table_[ProbeFor(HashName(prefix, suffix), prefix, suffix)].id;
}

size_t TagRegistry::Pages() const {
  return static_cast<size_t>(
      std::count_if(pages_.begin(), pages_.end(), [](const auto& p) { return p != nullptr; }));
}

TagId TagRegistry::NextUnretired(TagId from) const {
  while (from < next_id_) {
    const size_t p = static_cast<size_t>(from / kPageIds);
    if (const IdPage* page = pages_[p].get()) {
      if (page->slots[from % kPageIds].state != TagState::kRetired) return from;
      ++from;
      continue;
    }
    // A freed page: only spilled ids remain in its range.
    const TagId page_end = (p + 1) * kPageIds;
    auto it = spilled_.lower_bound(from);
    if (it != spilled_.end() && it->first < page_end) return it->first;
    from = page_end;
  }
  return next_id_;
}

void TagRegistry::Retire(TagId id) {
  Slot& slot = MutableSlot(id);  // Aborts on unknown and already-retired ids.
  HM_CHECK_MSG(slot.stream.empty(), "TagRegistry::Retire: the stream still holds entries");
  size_t i = ProbeFor(HashName(slot.name), slot.name, {});
  HM_CHECK_MSG(table_[i].id == id, "TagRegistry::Retire: unretired id missing from the table");
  // Backward-shift deletion: walk the cluster after the hole and pull back every entry whose
  // home does not lie cyclically in (hole, j] — it would otherwise become unreachable.
  for (size_t j = (i + 1) & table_mask_; table_[j].id != kInvalidTagId;
       j = (j + 1) & table_mask_) {
    size_t home = Home(table_[j].hash);
    bool stays = i <= j ? (i < home && home <= j) : (i < home || home <= j);
    if (stays) continue;
    table_[i] = table_[j];
    i = j;
  }
  table_[i] = Bucket{};

  ++retired_;
  const size_t p = static_cast<size_t>(id / kPageIds);
  if (pages_[p] == nullptr) {
    spilled_.erase(id);
    return;
  }
  // Swapping frees the name's buffer; assigning an empty string would keep its capacity.
  std::string().swap(slot.name);
  slot.stream = TagStream{};
  slot.state = TagState::kRetired;
  --pages_[p]->unretired;
  MaybeSpill(p);
}

void TagRegistry::MaybeSpill(size_t p) {
  if ((p + 1) * kPageIds > next_id_) return;  // Ids are still being assigned here.
  IdPage& page = *pages_[p];
  if (page.unretired > kSpillLive) return;
  for (size_t i = 0; i < kPageIds; ++i) {
    if (page.slots[i].state == TagState::kRetired) continue;
    spilled_.emplace(p * kPageIds + i, std::move(page.slots[i]));
  }
  pages_[p].reset();
}

void TagRegistry::ResetStreams() {
  for (TagId id = NextUnretired(0); id < next_id_; id = NextUnretired(id + 1)) {
    *Stream(id) = TagStream{};
  }
}

TagId TagRegistry::Register(std::string full_name, uint64_t hash) {
  TagId id = next_id_++;
  const size_t p = static_cast<size_t>(id / kPageIds);
  if (id % kPageIds == 0) pages_.push_back(std::make_unique<IdPage>());
  IdPage& page = *pages_[p];
  Slot& slot = page.slots[id % kPageIds];
  slot.name = std::move(full_name);
  // The finalized name hash decides the owning shard, so the mapping depends only on the
  // name — never on interning order or process layout.
  slot.shard = shard_count_ <= 1 ? 0 : static_cast<uint8_t>(Finalize(hash) % shard_count_);
  ++page.unretired;
  if ((live_size() + 1) * 3 > table_.size() * 2) GrowTable();
  size_t i = Home(hash);
  while (table_[i].id != kInvalidTagId) i = (i + 1) & table_mask_;
  table_[i] = Bucket{hash, id};
  if (intern_sink_) intern_sink_(id, slot.name);
  // Completing a page can leave it sparse when most of its ids retired while it filled.
  MaybeSpill(p);
  return id;
}

}  // namespace halfmoon::sharedlog
