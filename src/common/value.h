// Byte-accounted values and field maps.
//
// Objects in the external state and payloads of log records are modeled as strings plus typed
// field maps. Every container here can report its approximate serialized size, which feeds the
// storage-overhead accounting of Figure 12.

#ifndef HALFMOON_COMMON_VALUE_H_
#define HALFMOON_COMMON_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace halfmoon {

// A value stored in the external state. Plain bytes; applications encode what they need.
using Value = std::string;

// One field of a log record: either a signed integer or a byte string.
using Field = std::variant<int64_t, std::string>;

// Interned id of a record field name. Names are interned process-wide on first use and never
// released (the runtime's vocabulary below plus the few names tests and benches use); ids are
// dense, in interning order. The simulator runs on one thread, and the table is not
// synchronised.
enum class FieldId : uint32_t {};

// The runtime's field vocabulary, pre-interned so hot paths pass these constants instead of
// hashing a name (the way sharedlog's OpId constants are fixed).
inline constexpr FieldId kFieldOp{0};        // "op"
inline constexpr FieldId kFieldStep{1};      // "step"
inline constexpr FieldId kFieldVersion{2};   // "version"
inline constexpr FieldId kFieldCallee{3};    // "callee"
inline constexpr FieldId kFieldResult{4};    // "result"
inline constexpr FieldId kFieldData{5};      // "data"
inline constexpr FieldId kFieldInstance{6};  // "instance"
inline constexpr FieldId kFieldTarget{7};    // "target"

// The id of `name`, interning it on first use.
FieldId InternField(std::string_view name);
// The id of `name` if it was ever interned. Lookups by name use this rather than InternField,
// so probing for an absent field does not grow the table.
std::optional<FieldId> FindField(std::string_view name);
// The name interned as `id`. The reference stays valid for the life of the process.
const std::string& FieldName(FieldId id);

// The modelled serialized size of one field holding `value_bytes` (8 for an integer): field
// names become 2-byte tags, so only values occupy space. The paper notes a write-log record's
// critical data is "covered in a few dozen bytes" (§4.1), which this matches.
inline constexpr size_t FieldByteSize(size_t value_bytes) { return 2 + value_bytes; }

// An ordered field map, e.g. {"op": "write", "step": 3, "version": "a1b2"}.
//
// Records carry a handful of fields (the protocols use at most five), so the map is a flat
// vector of {FieldId, Field} entries rather than a node-based tree. Lookups compare ids. The
// vector holds exactly its entries: a builder that knows its field count calls Reserve once
// and the record is allocated once, at its final size; without Reserve each new field grows
// the buffer by one entry.
//
// Entries are kept in field-*name* order, and iteration yields `[name, field]` pairs with
// `name` a `const std::string&`: record encodings, content checksums and test expectations
// hash exactly that sequence, so they do not depend on interning order or on the order the
// fields were set (DESIGN.md §7.7).
class FieldMap {
 public:
  struct Entry {
    FieldId id;
    Field field;
    bool operator==(const Entry&) const = default;
  };

  // Iterates the entries in name order as `std::pair<const std::string&, const Field&>`.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<const std::string&, const Field&>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    explicit const_iterator(std::vector<Entry>::const_iterator it) : it_(it) {}

    reference operator*() const { return {FieldName(it_->id), it_->field}; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++it_;
      return old;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    std::vector<Entry>::const_iterator it_;
  };

  FieldMap() = default;
  FieldMap(std::initializer_list<std::pair<const std::string, Field>> init) {
    Reserve(init.size());
    for (const auto& [key, field] : init) {
      Upsert(InternField(key)) = field;
    }
  }

  // Sizes the entry buffer for `n` fields in all, so building them allocates once.
  void Reserve(size_t n) { fields_.reserve(n); }

  void SetInt(FieldId id, int64_t v) { Upsert(id) = v; }
  void SetStr(FieldId id, std::string v) { Upsert(id) = std::move(v); }
  void SetInt(std::string_view name, int64_t v) { SetInt(InternField(name), v); }
  void SetStr(std::string_view name, std::string v) { SetStr(InternField(name), std::move(v)); }

  // The field under `id`, or null if absent: one lookup where Has + Get* would take two.
  const Field* Find(FieldId id) const {
    for (const Entry& entry : fields_) {
      if (entry.id == id) return &entry.field;
    }
    return nullptr;
  }
  const Field* Find(std::string_view name) const;
  bool Has(FieldId id) const { return Find(id) != nullptr; }
  bool Has(std::string_view name) const { return Find(name) != nullptr; }

  // Typed getters abort on missing keys or type mismatches: a malformed log record indicates a
  // protocol bug, and the simulation must not limp past it.
  int64_t GetInt(FieldId id) const;
  const std::string& GetStr(FieldId id) const;
  int64_t GetInt(std::string_view name) const;
  const std::string& GetStr(std::string_view name) const;

  // Approximate serialized size in bytes: FieldByteSize of each field.
  size_t ByteSize() const;

  bool operator==(const FieldMap& other) const { return fields_ == other.fields_; }

  const_iterator begin() const { return const_iterator(fields_.begin()); }
  const_iterator end() const { return const_iterator(fields_.end()); }
  size_t size() const { return fields_.size(); }
  // The entries in name order, ids and all (what a committed log record copies).
  const std::vector<Entry>& entries() const { return fields_; }

 private:
  Field& Upsert(FieldId id);

  std::vector<Entry> fields_;  // Sorted by FieldName(id).
};

// Helpers for packing integers into Values used by the workloads.
Value EncodeInt64(int64_t v);
int64_t DecodeInt64(const Value& v);

// Returns `v` padded with filler bytes up to `size` (used to emulate fixed object sizes).
Value PadValue(Value v, size_t size);

}  // namespace halfmoon

#endif  // HALFMOON_COMMON_VALUE_H_
