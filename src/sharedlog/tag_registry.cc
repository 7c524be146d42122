#include "src/sharedlog/tag_registry.h"

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
  slots_.Erase(id);  // Frees the name and the stream.
}

void TagRegistry::ResetStreams() {
  for (TagId id = NextUnretired(0); id < size(); id = NextUnretired(id + 1)) {
    *Stream(id) = TagStream{};
  }
}

TagId TagRegistry::Register(std::string full_name, uint64_t hash) {
  const TagId id = size();
  // Completing a page can compact it when most of its ids retired while it filled.
  Slot& slot = slots_.Insert(id);
  if ((live_size() + 1) * 3 > table_.size() * 2) GrowTable();
  slot.name = std::move(full_name);
  // The finalized name hash decides the owning shard, so the mapping depends only on the
  // name — never on interning order or process layout.
  slot.shard = shard_count_ <= 1 ? 0 : static_cast<uint8_t>(Finalize(hash) % shard_count_);
  size_t i = Home(hash);
  while (table_[i].id != kInvalidTagId) i = (i + 1) & table_mask_;
  table_[i] = Bucket{hash, id};
  if (intern_sink_) intern_sink_(id, slot.name);
  return id;
}

}  // namespace halfmoon::sharedlog
