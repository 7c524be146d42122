#include "src/common/value.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"

namespace halfmoon {

namespace {

// Comparator for the sorted entry vector; heterogeneous so lookups compare against the key
// without materializing an Entry.
struct EntryKeyLess {
  bool operator()(const FieldMap::Entry& entry, const std::string& key) const {
    return entry.first < key;
  }
};

}  // namespace

const Field* FieldMap::Find(const std::string& key) const {
  auto it = std::lower_bound(fields_.begin(), fields_.end(), key, EntryKeyLess{});
  if (it == fields_.end() || it->first != key) return nullptr;
  return &it->second;
}

Field& FieldMap::Upsert(const std::string& key) {
  auto it = std::lower_bound(fields_.begin(), fields_.end(), key, EntryKeyLess{});
  if (it == fields_.end() || it->first != key) {
    if (fields_.capacity() == 0) {
      fields_.reserve(4);  // One allocation for a record's usual three fields.
      it = fields_.begin();
    }
    it = fields_.emplace(it, key, Field{});
  }
  return it->second;
}

int64_t FieldMap::GetInt(const std::string& key) const {
  const Field* field = Find(key);
  HM_CHECK_MSG(field != nullptr, "FieldMap::GetInt: missing key");
  const int64_t* v = std::get_if<int64_t>(field);
  HM_CHECK_MSG(v != nullptr, "FieldMap::GetInt: field is not an integer");
  return *v;
}

const std::string& FieldMap::GetStr(const std::string& key) const {
  const Field* field = Find(key);
  HM_CHECK_MSG(field != nullptr, "FieldMap::GetStr: missing key");
  const std::string* v = std::get_if<std::string>(field);
  HM_CHECK_MSG(v != nullptr, "FieldMap::GetStr: field is not a string");
  return *v;
}

size_t FieldMap::ByteSize() const {
  // Models a compact binary encoding: field names become 2-byte tags; only values occupy
  // space. The paper notes a write-log record's critical data is "covered in a few dozen
  // bytes" (§4.1), which this matches.
  size_t total = 0;
  for (const auto& [key, field] : fields_) {
    total += 2;
    if (const std::string* s = std::get_if<std::string>(&field)) {
      total += s->size();
    } else {
      total += sizeof(int64_t);
    }
  }
  return total;
}

Value EncodeInt64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return Value(buf);
}

int64_t DecodeInt64(const Value& v) {
  HM_CHECK_MSG(!v.empty(), "DecodeInt64: empty value");
  return std::strtoll(v.c_str(), nullptr, 10);
}

Value PadValue(Value v, size_t size) {
  if (v.size() < size) {
    v.append(size - v.size(), '#');
  }
  return v;
}

}  // namespace halfmoon
