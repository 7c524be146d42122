#include "src/sharedlog/tag_registry.h"

#include <algorithm>
#include <bit>
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
    const Slot& slot = table_[i];
    if (slot.id == kInvalidTagId) return i;
    if (slot.hash == hash) {
      std::string_view name = *Locate(slot.id).name;  // Table entries are always live.
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
  std::vector<Slot> old = std::move(table_);
  table_.assign(new_size, Slot{});
  table_mask_ = new_size - 1;
  // Reinsertion only moves {hash, id} pairs — no name is rehashed or compared (entries are
  // unique by construction, so the first empty slot is always the right destination).
  for (const Slot& slot : old) {
    if (slot.id == kInvalidTagId) continue;
    size_t i = Home(slot.hash);
    while (table_[i].id != kInvalidTagId) i = (i + 1) & table_mask_;
    table_[i] = slot;
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

void TagRegistry::Retire(TagId id) {
  const std::string& name = Name(id);  // Aborts on unknown and already-retired ids.
  size_t i = ProbeFor(HashName(name), name, {});
  HM_CHECK_MSG(table_[i].id == id, "TagRegistry::Retire: live id missing from the table");
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
  table_[i] = Slot{};

  ++retired_;
  IdPage* page = pages_[id / kPageIds].get();
  if (page == nullptr) {
    spilled_.erase(id);
    return;
  }
  std::string().swap(page->names[id % kPageIds]);
  page->retired |= uint64_t{1} << (id % kPageIds);
  MaybeSpill(id / kPageIds);
}

void TagRegistry::MaybeSpill(size_t p) {
  if ((p + 1) * kPageIds > next_id_) return;  // Ids are still being assigned here.
  IdPage& page = *pages_[p];
  if (kPageIds - static_cast<size_t>(std::popcount(page.retired)) > kSpillLive) return;
  for (size_t i = 0; i < kPageIds; ++i) {
    if ((page.retired >> i & 1) != 0) continue;
    spilled_.emplace(p * kPageIds + i, SpilledId{std::move(page.names[i]), page.shard[i]});
  }
  pages_[p].reset();
}

TagId TagRegistry::Register(std::string full_name, uint64_t hash) {
  TagId id = next_id_++;
  if (id % kPageIds == 0) pages_.push_back(std::make_unique<IdPage>());
  IdPage& page = *pages_.back();
  std::string& name = page.names[id % kPageIds];
  name = std::move(full_name);
  // The finalized name hash decides the owning shard, so the mapping depends only on the
  // name — never on interning order or process layout.
  page.shard[id % kPageIds] =
      shard_count_ <= 1 ? 0 : static_cast<uint8_t>(Finalize(hash) % shard_count_);
  if ((live_size() + 1) * 3 > table_.size() * 2) GrowTable();
  size_t i = Home(hash);
  while (table_[i].id != kInvalidTagId) i = (i + 1) & table_mask_;
  table_[i] = Slot{hash, id};
  if (intern_sink_) intern_sink_(id, name);
  return id;
}

}  // namespace halfmoon::sharedlog
