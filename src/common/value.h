// Byte-accounted values and field maps.
//
// Objects in the external state and payloads of log records are modeled as strings plus typed
// field maps. Every container here can report its approximate serialized size, which feeds the
// storage-overhead accounting of Figure 12.

#ifndef HALFMOON_COMMON_VALUE_H_
#define HALFMOON_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace halfmoon {

// A value stored in the external state. Plain bytes; applications encode what they need.
using Value = std::string;

// One field of a log record: either a signed integer or a byte string.
using Field = std::variant<int64_t, std::string>;

// An ordered field map, e.g. {"op": "write", "step": 3, "version": "a1b2"}.
// Ordered so that record equality and test expectations are deterministic.
//
// Records carry a handful of fields (the protocols use at most five), so the map is a flat
// sorted vector rather than a node-based tree: one contiguous allocation, cache-friendly
// lookups, and cheap moves — log records sit on every hot path of the simulation.
class FieldMap {
 public:
  using Entry = std::pair<std::string, Field>;

  FieldMap() = default;
  FieldMap(std::initializer_list<std::pair<const std::string, Field>> init) {
    for (const auto& [key, field] : init) {
      Upsert(key) = field;
    }
  }

  void SetInt(const std::string& key, int64_t v) { Upsert(key) = v; }
  void SetStr(const std::string& key, std::string v) { Upsert(key) = std::move(v); }

  // The field under `key`, or null if absent: one lookup where Has + Get* would take two.
  const Field* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  // Typed getters abort on missing keys or type mismatches: a malformed log record indicates a
  // protocol bug, and the simulation must not limp past it.
  int64_t GetInt(const std::string& key) const;
  const std::string& GetStr(const std::string& key) const;

  // Approximate serialized size in bytes: key bytes + value bytes (8 for integers).
  size_t ByteSize() const;

  // Drops spare capacity: a map kept for long (a committed log record) holds its fields only.
  void ShrinkToFit() {
    if (fields_.capacity() != fields_.size()) fields_.shrink_to_fit();
  }

  bool operator==(const FieldMap& other) const { return fields_ == other.fields_; }

  auto begin() const { return fields_.begin(); }
  auto end() const { return fields_.end(); }
  size_t size() const { return fields_.size(); }

 private:
  Field& Upsert(const std::string& key);

  std::vector<Entry> fields_;  // Sorted by key.
};

// Helpers for packing integers into Values used by the workloads.
Value EncodeInt64(int64_t v);
int64_t DecodeInt64(const Value& v);

// Returns `v` padded with filler bytes up to `size` (used to emulate fixed object sizes).
Value PadValue(Value v, size_t size);

}  // namespace halfmoon

#endif  // HALFMOON_COMMON_VALUE_H_
