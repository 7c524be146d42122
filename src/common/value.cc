#include "src/common/value.h"

#include <cstdio>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"

namespace halfmoon {

namespace {

// The process-wide field-name table. Names live in a deque, so the references FieldName hands
// out and the string_view keys of the id map stay valid as the table grows.
struct FieldNames {
  std::deque<std::string> names;
  std::unordered_map<std::string_view, FieldId> ids;

  FieldNames() {
    // The kField* constants of value.h, interned in id order.
    const std::pair<FieldId, const char*> vocabulary[] = {
        {kFieldOp, "op"},           {kFieldStep, "step"},     {kFieldVersion, "version"},
        {kFieldCallee, "callee"},   {kFieldResult, "result"}, {kFieldData, "data"},
        {kFieldInstance, "instance"}, {kFieldTarget, "target"}};
    for (const auto& [id, name] : vocabulary) HM_CHECK(Intern(name) == id);
  }

  FieldId Intern(std::string_view name) {
    if (auto it = ids.find(name); it != ids.end()) return it->second;
    const FieldId id{static_cast<uint32_t>(names.size())};
    ids.emplace(names.emplace_back(name), id);
    return id;
  }
};

// Never destroyed: records that outlive static teardown still iterate by name.
FieldNames& Names() {
  static FieldNames* names = new FieldNames();
  return *names;
}

}  // namespace

FieldId InternField(std::string_view name) { return Names().Intern(name); }

std::optional<FieldId> FindField(std::string_view name) {
  const FieldNames& table = Names();
  auto it = table.ids.find(name);
  if (it == table.ids.end()) return std::nullopt;
  return it->second;
}

const std::string& FieldName(FieldId id) {
  return Names().names[static_cast<uint32_t>(id)];
}

const Field* FieldMap::Find(std::string_view name) const {
  std::optional<FieldId> id = FindField(name);
  return id.has_value() ? Find(*id) : nullptr;
}

Field& FieldMap::Upsert(FieldId id) {
  for (Entry& entry : fields_) {
    if (entry.id == id) return entry.field;
  }
  const std::string& name = FieldName(id);
  size_t pos = 0;
  while (pos < fields_.size() && FieldName(fields_[pos].id) < name) ++pos;
  if (fields_.size() == fields_.capacity()) fields_.reserve(fields_.size() + 1);
  return fields_.insert(fields_.begin() + static_cast<std::ptrdiff_t>(pos), Entry{id, Field{}})
      ->field;
}

int64_t FieldMap::GetInt(FieldId id) const {
  const Field* field = Find(id);
  HM_CHECK_MSG(field != nullptr, "FieldMap::GetInt: missing key");
  const int64_t* v = std::get_if<int64_t>(field);
  HM_CHECK_MSG(v != nullptr, "FieldMap::GetInt: field is not an integer");
  return *v;
}

const std::string& FieldMap::GetStr(FieldId id) const {
  const Field* field = Find(id);
  HM_CHECK_MSG(field != nullptr, "FieldMap::GetStr: missing key");
  const std::string* v = std::get_if<std::string>(field);
  HM_CHECK_MSG(v != nullptr, "FieldMap::GetStr: field is not a string");
  return *v;
}

int64_t FieldMap::GetInt(std::string_view name) const {
  std::optional<FieldId> id = FindField(name);
  HM_CHECK_MSG(id.has_value(), "FieldMap::GetInt: missing key");
  return GetInt(*id);
}

const std::string& FieldMap::GetStr(std::string_view name) const {
  std::optional<FieldId> id = FindField(name);
  HM_CHECK_MSG(id.has_value(), "FieldMap::GetStr: missing key");
  return GetStr(*id);
}

size_t FieldMap::ByteSize() const {
  size_t total = 0;
  for (const Entry& entry : fields_) {
    const std::string* s = std::get_if<std::string>(&entry.field);
    total += FieldByteSize(s != nullptr ? s->size() : sizeof(int64_t));
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
