#include "src/kvstore/kv_state.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"

namespace halfmoon::kvstore {

uint32_t KvState::KeyHash(std::string_view key) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(key));
}

uint32_t KvState::ObjectHash(ObjectId object) {
  // Ids are assigned densely, but objects' ids can share their low bits; the top half of a
  // multiplicative hash mixes every bit of the id into the low bits that pick the bucket.
  return static_cast<uint32_t>((object * 0x9E3779B97F4A7C15ULL) >> 32);
}

void KvState::ReserveOneMore(std::vector<IndexEntry>* index, size_t entries) {
  if ((entries + 1) * 4 <= index->size() * 3) return;
  std::vector<IndexEntry> grown(std::max<size_t>(16, index->size() * 2));
  const size_t mask = grown.size() - 1;
  for (const IndexEntry& e : *index) {
    if (e.slot == kNoSlot) continue;
    size_t pos = e.hash & mask;
    while (grown[pos].slot != kNoSlot) pos = (pos + 1) & mask;
    grown[pos] = e;
  }
  *index = std::move(grown);
}

KvState::PairBlock::PairBlock(std::string_view head, std::string_view tail)
    : head_len_(static_cast<uint32_t>(head.size())), tail_len_(static_cast<uint32_t>(tail.size())) {
  HM_CHECK_MSG(head.size() <= std::numeric_limits<uint32_t>::max() &&
                   tail.size() <= std::numeric_limits<uint32_t>::max() - head.size(),
               "KV entry exceeds 4 GiB");
  if (head.empty() && tail.empty()) return;
  bytes_ = std::make_unique_for_overwrite<char[]>(head.size() + tail.size());
  std::copy(head.begin(), head.end(), bytes_.get());
  std::copy(tail.begin(), tail.end(), bytes_.get() + head.size());
}

void KvState::PairBlock::SetTail(std::string_view tail) {
  if (tail.size() == tail_len_) {
    // memmove: a caller may pass bytes of this very block.
    if (!tail.empty()) std::memmove(bytes_.get() + head_len_, tail.data(), tail.size());
    return;
  }
  *this = PairBlock(head(), tail);
}

size_t KvState::IndexPos(std::string_view key, uint32_t hash) const {
  const size_t mask = latest_index_.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const IndexEntry& e = latest_index_[pos];
    if (e.slot == kNoSlot || (e.hash == hash && latest_[e.slot].entry.head() == key)) return pos;
  }
}

const KvState::LatestSlot* KvState::FindLatest(std::string_view key, uint32_t hash) const {
  if (latest_index_.empty()) return nullptr;
  const IndexEntry& e = latest_index_[IndexPos(key, hash)];
  return e.slot == kNoSlot ? nullptr : &latest_[e.slot];
}

void KvState::InsertLatest(std::string_view key, uint32_t hash, std::string_view value,
                           VersionTuple version) {
  HM_CHECK_MSG(latest_.size() < kNoSlot, "latest-slot table is full");
  ReserveOneMore(&latest_index_, latest_.size());
  IndexEntry& e = latest_index_[IndexPos(key, hash)];
  HM_CHECK(e.slot == kNoSlot);
  e = IndexEntry{hash, static_cast<uint32_t>(latest_.size())};
  latest_.push_back(LatestSlot{PairBlock(key, value), version});
}

size_t KvState::ObjectPos(ObjectId object, uint32_t hash) const {
  const size_t mask = versioned_index_.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const IndexEntry& e = versioned_index_[pos];
    if (e.slot == kNoSlot || (e.hash == hash && versioned_[e.slot].object == object)) return pos;
  }
}

const KvState::Versions* KvState::FindVersions(ObjectId object) const {
  if (versioned_index_.empty()) return nullptr;
  const IndexEntry& e = versioned_index_[ObjectPos(object, ObjectHash(object))];
  return e.slot == kNoSlot ? nullptr : &versioned_[e.slot].versions;
}

KvState::Versions& KvState::VersionsFor(ObjectId object) {
  if (Versions* versions = FindVersions(object)) return *versions;
  HM_CHECK_MSG(versioned_.size() < kNoSlot, "versioned-object table is full");
  ReserveOneMore(&versioned_index_, versioned_.size());
  const uint32_t hash = ObjectHash(object);
  versioned_index_[ObjectPos(object, hash)] =
      IndexEntry{hash, static_cast<uint32_t>(versioned_.size())};
  return versioned_.emplace_back(VersionedSlot{object, {}}).versions;
}

void KvState::InsertVersion(Versions* versions, Versions::const_iterator pos,
                            std::string_view version_id, std::string_view value) {
  const size_t at = static_cast<size_t>(pos - versions->cbegin());
  const size_t size = versions->size();
  if (size == versions->capacity()) versions->reserve(size + std::max<size_t>(1, size / 8));
  versions->insert(versions->begin() + static_cast<ptrdiff_t>(at), PairBlock(version_id, value));
}

std::string KvState::EncodeLatest(std::string_view key, std::string_view value,
                                  VersionTuple version) {
  std::string payload;
  payload.reserve(storage::StrBytes(key) + storage::StrBytes(value) + 16);
  storage::PutStr(&payload, key);
  storage::PutStr(&payload, value);
  storage::PutU64(&payload, version.cursor_ts);
  storage::PutU64(&payload, version.counter);
  return payload;
}

std::string KvState::EncodeVersion(ObjectId object, std::string_view version_id,
                                   std::string_view value) {
  std::string payload;
  payload.reserve(8 + storage::StrBytes(version_id) + storage::StrBytes(value));
  storage::PutU64(&payload, object);
  storage::PutStr(&payload, version_id);
  storage::PutStr(&payload, value);
  return payload;
}

std::optional<Value> KvState::Get(const std::string& key) const {
  const LatestSlot* slot = FindLatest(key, KeyHash(key));
  if (slot == nullptr) return std::nullopt;
  return Value(slot->entry.tail());
}

void KvState::Put(SimTime now, std::string_view key, std::string_view value) {
  if (durability_ != nullptr && !restoring_) {
    std::string payload;
    payload.reserve(storage::StrBytes(key) + storage::StrBytes(value));
    storage::PutStr(&payload, key);
    storage::PutStr(&payload, value);
    JournalFrame(storage::FrameType::kKvPut, std::move(payload));
  }
  const uint32_t hash = KeyHash(key);
  LatestSlot* slot = FindLatest(key, hash);
  if (slot != nullptr) gauge_.Add(now, -LatestEntryBytes(key, slot->entry.tail()));
  gauge_.Add(now, LatestEntryBytes(key, value));
  if (slot == nullptr) {
    InsertLatest(key, hash, value, VersionTuple{});
  } else {
    slot->entry.SetTail(value);
  }
}

bool KvState::CondPut(SimTime now, std::string_view key, std::string_view value,
                      VersionTuple version) {
  const uint32_t hash = KeyHash(key);
  LatestSlot* slot = FindLatest(key, hash);
  // Missing keys carry the zero version; the write applies iff its version is larger.
  VersionTuple stored = slot == nullptr ? VersionTuple{} : slot->version;
  if (!(stored < version)) return false;
  // Only applied conditional writes are journaled, so replay re-applies them verbatim.
  if (durability_ != nullptr && !restoring_) {
    JournalFrame(storage::FrameType::kKvCondPut, EncodeLatest(key, value, version));
  }
  if (slot == nullptr) {
    gauge_.Add(now, LatestEntryBytes(key, value));
    InsertLatest(key, hash, value, version);
    return true;
  }
  gauge_.Add(now, -LatestEntryBytes(key, slot->entry.tail()));
  gauge_.Add(now, LatestEntryBytes(key, value));
  slot->entry.SetTail(value);
  slot->version = version;
  return true;
}

std::optional<VersionTuple> KvState::GetVersion(const std::string& key) const {
  const LatestSlot* slot = FindLatest(key, KeyHash(key));
  if (slot == nullptr) return std::nullopt;
  return slot->version;
}

void KvState::PutVersioned(SimTime now, ObjectId object, std::string_view version_id,
                           std::string_view value) {
  if (durability_ != nullptr && !restoring_) {
    JournalFrame(storage::FrameType::kKvPutVersioned, EncodeVersion(object, version_id, value));
  }
  Versions& versions = VersionsFor(object);
  if (versions.empty()) ++versioned_objects_;
  auto it = LowerBound(versions, version_id);
  if (it != versions.end() && it->head() == version_id) {
    // Idempotent re-write of the same version (a retried SSF re-creating the version it
    // already wrote): replace without double-accounting.
    gauge_.Add(now, -VersionedEntryBytes(version_id, it->tail()));
    gauge_.Add(now, VersionedEntryBytes(version_id, value));
    it->SetTail(value);
    return;
  }
  gauge_.Add(now, VersionedEntryBytes(version_id, value));
  InsertVersion(&versions, it, version_id, value);
}

std::optional<Value> KvState::GetVersioned(ObjectId object,
                                           const std::string& version_id) const {
  const Versions* versions = FindVersions(object);
  if (versions == nullptr) return std::nullopt;
  auto it = LowerBound(*versions, version_id);
  if (it == versions->end() || it->head() != version_id) return std::nullopt;
  return Value(it->tail());
}

bool KvState::DeleteVersioned(SimTime now, ObjectId object, std::string_view version_id) {
  Versions* versions = FindVersions(object);
  if (versions == nullptr) return false;
  auto it = LowerBound(*versions, version_id);
  if (it == versions->end() || it->head() != version_id) return false;
  // Journaled only when something is actually released (replay asserts the same).
  if (durability_ != nullptr && !restoring_) {
    std::string payload;
    payload.reserve(8 + storage::StrBytes(version_id));
    storage::PutU64(&payload, object);
    storage::PutStr(&payload, version_id);
    JournalFrame(storage::FrameType::kKvDeleteVersioned, std::move(payload));
  }
  gauge_.Add(now, -VersionedEntryBytes(version_id, it->tail()));
  versions->erase(it);
  if (versions->empty()) --versioned_objects_;
  return true;
}

size_t KvState::VersionCount(ObjectId object) const {
  const Versions* versions = FindVersions(object);
  return versions == nullptr ? 0 : versions->size();
}

void KvState::ResetVolatile(SimTime now) {
  gauge_.Add(now, -gauge_.CurrentBytes());
  latest_.clear();
  latest_index_ = {};
  versioned_.clear();
  versioned_index_ = {};
  versioned_objects_ = 0;
  // The journal tail rolled back to the durable frontier with the kill; future mutations
  // re-establish the ack threshold. Zero is always already durable.
  last_journal_offset_ = 0;
}

void KvState::RestoreFrame(SimTime now, storage::FrameType type, storage::Cursor cursor,
                           bool fuzzy) {
  restoring_ = true;
  switch (type) {
    case storage::FrameType::kKvPut: {
      std::string_view key = cursor.Str();
      std::string_view value = cursor.Str();
      Put(now, key, value);
      break;
    }
    case storage::FrameType::kKvCondPut: {
      std::string_view key = cursor.Str();
      std::string_view value = cursor.Str();
      VersionTuple version{cursor.U64(), cursor.U64()};
      // Fuzzy suffix replay: the image may already carry this version or a newer one.
      // Applied versions strictly increase per key, so an equal stored version means the
      // image reflects this very write: its value is set again, because a plain Put that
      // preceded it in the suffix may just have been replayed over it. A newer stored
      // version belongs to a later frame of the suffix, which replays after this one.
      LatestSlot* slot = fuzzy ? FindLatest(key, KeyHash(key)) : nullptr;
      if (slot != nullptr && slot->version == version) {
        gauge_.Add(now, -LatestEntryBytes(key, slot->entry.tail()));
        gauge_.Add(now, LatestEntryBytes(key, value));
        slot->entry.SetTail(value);
        break;
      }
      bool applied = CondPut(now, key, value, version);
      HM_CHECK_MSG(applied || fuzzy, "journal replay: conditional put no longer applies");
      break;
    }
    case storage::FrameType::kKvPutVersioned: {
      ObjectId object = cursor.U64();
      std::string_view version_id = cursor.Str();
      std::string_view value = cursor.Str();
      PutVersioned(now, object, version_id, value);
      break;
    }
    case storage::FrameType::kKvDeleteVersioned: {
      ObjectId object = cursor.U64();
      std::string_view version_id = cursor.Str();
      bool released = DeleteVersioned(now, object, version_id);
      // Fuzzy: the image may have been snapshotted after this delete already applied.
      HM_CHECK_MSG(released || fuzzy,
                   "journal replay: versioned delete found nothing to release");
      break;
    }
    default:
      HM_CHECK_MSG(false, "journal replay: unexpected frame type in the KV journal");
  }
  restoring_ = false;
}

void KvState::BeginCheckpointWalk() {
  walk_slot_ = 0;
  walk_slot_limit_ = latest_.size();
  walk_object_ = 0;
  walk_object_limit_ = versioned_.size();
  walk_version_.clear();
  walk_version_valid_ = false;
}

bool KvState::WriteCheckpointSlice(storage::CheckpointStore* store, int64_t budget,
                                   int64_t* frames) {
  int64_t consumed = 0;
  // Latest slots first: the ones that existed at round start, in insertion order (keys are
  // never deleted, so the range stays valid; the values/versions read here are whatever the
  // slot holds NOW — fuzziness the replay suffix absorbs).
  HM_CHECK_MSG(walk_slot_limit_ <= latest_.size() && walk_object_limit_ <= versioned_.size(),
               "checkpoint walk: a slot vanished");
  while (walk_slot_ < walk_slot_limit_) {
    if (consumed >= budget) return false;
    const LatestSlot& slot = latest_[walk_slot_++];
    store->AppendFrame(storage::FrameType::kCkptKvLatest,
                       EncodeLatest(slot.entry.head(), slot.entry.tail(), slot.version));
    ++*frames;
    ++consumed;
  }
  // Then the version table, resumable mid-object: versions can be inserted or GC'd between
  // slices (sorted array, no position held across the pause), and objects first written
  // after round start are suffix-only.
  while (walk_object_ < walk_object_limit_) {
    const VersionedSlot& slot = versioned_[walk_object_];
    const Versions& versions = slot.versions;
    auto it = versions.begin();
    if (walk_version_valid_) {
      it = std::upper_bound(
          versions.begin(), versions.end(), std::string_view(walk_version_),
          [](std::string_view id, const PairBlock& v) { return id < v.head(); });
    }
    for (; it != versions.end(); ++it) {
      // walk_version_ names the last version emitted, so the next slice resumes just past it.
      if (consumed >= budget) return false;
      store->AppendFrame(storage::FrameType::kCkptKvVersion,
                         EncodeVersion(slot.object, it->head(), it->tail()));
      ++*frames;
      ++consumed;
      walk_version_.assign(it->head());
      walk_version_valid_ = true;
    }
    ++walk_object_;
    walk_version_.clear();
    walk_version_valid_ = false;
  }
  return true;
}

void KvState::RestoreCheckpointFrame(SimTime now, storage::FrameType type,
                                     storage::Cursor cursor) {
  switch (type) {
    case storage::FrameType::kCkptKvLatest: {
      std::string_view key = cursor.Str();
      std::string_view value = cursor.Str();
      VersionTuple version{cursor.U64(), cursor.U64()};
      // Direct slot install: a slot's value (last Put) and version (last applied CondPut)
      // evolve independently, so neither public mutator alone could reproduce it.
      const uint32_t hash = KeyHash(key);
      HM_CHECK_MSG(FindLatest(key, hash) == nullptr,
                   "checkpoint image installs a latest slot twice");
      gauge_.Add(now, LatestEntryBytes(key, value));
      InsertLatest(key, hash, value, version);
      break;
    }
    case storage::FrameType::kCkptKvVersion: {
      ObjectId object = cursor.U64();
      std::string_view version_id = cursor.Str();
      std::string_view value = cursor.Str();
      Versions& versions = VersionsFor(object);
      if (versions.empty()) ++versioned_objects_;
      auto it = LowerBound(versions, version_id);
      HM_CHECK_MSG(it == versions.end() || it->head() != version_id,
                   "checkpoint image installs a version twice");
      gauge_.Add(now, VersionedEntryBytes(version_id, value));
      InsertVersion(&versions, it, version_id, value);
      break;
    }
    default:
      HM_CHECK_MSG(false, "unexpected frame type in a KV checkpoint image");
  }
}

void KvState::JournalFrame(storage::FrameType type, std::string payload) {
  last_journal_offset_ = durability_->AppendFrame(type, payload);
}

}  // namespace halfmoon::kvstore
