#include "src/sharedlog/log_record.h"

#include <cstring>
#include <limits>
#include <new>

#include "src/common/check.h"

namespace halfmoon::sharedlog {

namespace {

// A stored field: its FieldId and its length as two 32-bit words, then the payload. An
// integer's length word is kIntField and its payload 8 bytes.
constexpr size_t kFieldHeader = 2 * sizeof(uint32_t);
constexpr uint32_t kIntField = std::numeric_limits<uint32_t>::max();

template <typename T>
T Load(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename T>
std::byte* Store(std::byte* out, T v) {
  std::memcpy(out, &v, sizeof(v));
  return out + sizeof(v);
}

FieldView Decode(const std::byte* pos) {
  const auto id = static_cast<FieldId>(Load<uint32_t>(pos));
  const uint32_t size = Load<uint32_t>(pos + sizeof(uint32_t));
  pos += kFieldHeader;
  if (size == kIntField) return FieldView{id, true, Load<int64_t>(pos), {}};
  return FieldView{id, false, 0, {reinterpret_cast<const char*>(pos), size}};
}

size_t PayloadBytes(const FieldView& v) { return v.is_int ? sizeof(int64_t) : v.str.size(); }

const LogRecord& RecordOf(const RecordFields* fields) {
  return *reinterpret_cast<const LogRecord*>(reinterpret_cast<const std::byte*>(fields) -
                                             offsetof(LogRecord, fields));
}

}  // namespace

// ---- LogRecord ----

LogRecordPtr LogRecord::Build(SeqNum seqnum, OpId op, std::span<const TagId> tags,
                              const FieldMap& fields, size_t stored_bytes) {
  HM_CHECK_MSG(tags.size() <= std::numeric_limits<uint16_t>::max() &&
                   fields.size() <= std::numeric_limits<uint16_t>::max(),
               "LogRecord: too many tags or fields");
  size_t bytes = sizeof(LogRecord) + tags.size_bytes();
  for (const FieldMap::Entry& entry : fields.entries()) {
    const std::string* str = std::get_if<std::string>(&entry.field);
    HM_CHECK_MSG(str == nullptr || str->size() < kIntField, "LogRecord: field too long");
    bytes += kFieldHeader + (str == nullptr ? sizeof(int64_t) : str->size());
  }
  auto* record = new (::operator new(bytes)) LogRecord();
  record->seqnum = seqnum;
  record->op = op;
  record->stored_bytes = stored_bytes;
  record->tags.count_ = static_cast<uint16_t>(tags.size());
  record->fields.count_ = static_cast<uint16_t>(fields.size());
  std::byte* out = reinterpret_cast<std::byte*>(record + 1);
  if (!tags.empty()) std::memcpy(out, tags.data(), tags.size_bytes());
  out += tags.size_bytes();
  for (const FieldMap::Entry& entry : fields.entries()) {
    out = Store(out, static_cast<uint32_t>(entry.id));
    if (const int64_t* i = std::get_if<int64_t>(&entry.field)) {
      out = Store(out, kIntField);
      out = Store(out, *i);
    } else {
      const std::string& str = std::get<std::string>(entry.field);
      out = Store(out, static_cast<uint32_t>(str.size()));
      if (!str.empty()) std::memcpy(out, str.data(), str.size());
      out += str.size();
    }
  }
  HM_CHECK(out == reinterpret_cast<std::byte*>(record) + bytes);
  return LogRecordPtr(record);
}

void LogRecord::Destroy(const LogRecord* record) {
  record->~LogRecord();
  ::operator delete(const_cast<LogRecord*>(record));
}

// ---- RecordFields ----

FieldView RecordFields::const_iterator::view() const { return Decode(pos_); }

RecordFields::const_iterator& RecordFields::const_iterator::operator++() {
  pos_ += kFieldHeader + PayloadBytes(Decode(pos_));
  --left_;
  return *this;
}

RecordFields::const_iterator RecordFields::begin() const {
  const LogRecord& record = RecordOf(this);
  return const_iterator(record.tail() + record.tags.size() * sizeof(TagId), count_);
}

std::optional<FieldView> RecordFields::Find(FieldId id) const {
  for (const_iterator it = begin(); it != end(); ++it) {
    FieldView v = it.view();
    if (v.id == id) return v;
  }
  return std::nullopt;
}

int64_t RecordFields::GetInt(FieldId id) const {
  std::optional<FieldView> v = Find(id);
  HM_CHECK_MSG(v.has_value(), "LogRecord::GetInt: missing key");
  HM_CHECK_MSG(v->is_int, "LogRecord::GetInt: field is not an integer");
  return v->int_value;
}

std::string_view RecordFields::GetStr(FieldId id) const {
  std::optional<FieldView> v = Find(id);
  HM_CHECK_MSG(v.has_value(), "LogRecord::GetStr: missing key");
  HM_CHECK_MSG(!v->is_int, "LogRecord::GetStr: field is not a string");
  return v->str;
}

int64_t RecordFields::GetInt(std::string_view name) const {
  std::optional<FieldId> id = FindField(name);
  HM_CHECK_MSG(id.has_value(), "LogRecord::GetInt: missing key");
  return GetInt(*id);
}

std::string_view RecordFields::GetStr(std::string_view name) const {
  std::optional<FieldId> id = FindField(name);
  HM_CHECK_MSG(id.has_value(), "LogRecord::GetStr: missing key");
  return GetStr(*id);
}

std::optional<int64_t> RecordFields::FindInt(FieldId id) const {
  std::optional<FieldView> v = Find(id);
  if (!v.has_value() || !v->is_int) return std::nullopt;
  return v->int_value;
}

std::optional<std::string_view> RecordFields::FindStr(FieldId id) const {
  std::optional<FieldView> v = Find(id);
  if (!v.has_value() || v->is_int) return std::nullopt;
  return v->str;
}

bool RecordFields::Has(std::string_view name) const {
  std::optional<FieldId> id = FindField(name);
  return id.has_value() && Has(*id);
}

size_t RecordFields::ByteSize() const {
  size_t total = 0;
  for (const_iterator it = begin(); it != end(); ++it) {
    total += FieldByteSize(PayloadBytes(it.view()));
  }
  return total;
}

}  // namespace halfmoon::sharedlog
