// FNV-1a content checksum of a cluster's recoverable state, shared by the crash-restart
// recovery suites (full replay and checkpoint image + replay suffix) so both pin the same
// definition of "the acknowledged state came back".

#ifndef HALFMOON_TESTS_TESTING_STATE_CHECKSUM_H_
#define HALFMOON_TESTS_TESTING_STATE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/kvstore/kv_state.h"
#include "src/runtime/cluster.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/sharded_log.h"

namespace halfmoon::testing {

inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}
inline uint64_t FnvU64(uint64_t h, uint64_t v) { return FnvBytes(h, &v, sizeof(v)); }
inline uint64_t FnvStr(uint64_t h, const std::string& s) {
  return FnvBytes(h, s.data(), s.size());
}

// FNV-1a over the allocator position, the KV latest slot (value and version tuple) of each of
// `kv_keys`, and the version count of each of `objects`.
inline uint64_t KvChecksum(runtime::Cluster& cluster, const std::vector<std::string>& kv_keys,
                           const std::vector<sharedlog::TagId>& objects) {
  uint64_t kv_hash = kFnvOffset;
  kv_hash = FnvU64(kv_hash, cluster.log_space().next_seqnum());
  for (const std::string& key : kv_keys) {
    kv_hash = FnvStr(kv_hash, key);
    auto value = cluster.kv_state().Get(key);
    kv_hash = FnvStr(kv_hash, value.has_value() ? *value : std::string("<missing>"));
    auto version = cluster.kv_state().GetVersion(key);
    kv_hash = FnvU64(kv_hash, version.has_value() ? version->cursor_ts : ~0ull);
    kv_hash = FnvU64(kv_hash, version.has_value() ? version->counter : ~0ull);
  }
  for (sharedlog::TagId object : objects) {
    kv_hash = FnvU64(kv_hash, object);
    kv_hash = FnvU64(kv_hash, cluster.kv_state().VersionCount(object));
  }
  return kv_hash;
}

// Content checksum of the rebuilt state: every live tag's stream (name, seqnums, field maps)
// XOR-folded, plus the allocator position and the KV latest slots and version index of the
// keys/objects the test wrote. Seqnums ARE included — recovery must rebuild the identical
// assignment, not merely the same per-tag order.
inline uint64_t StateChecksum(runtime::Cluster& cluster, const std::vector<std::string>& kv_keys,
                              const std::vector<sharedlog::TagId>& objects) {
  uint64_t combined = 0;
  sharedlog::ShardedLog& log = cluster.log_space();
  for (sharedlog::TagId tag : log.LiveTagsWithPrefix("")) {
    uint64_t h = kFnvOffset;
    h = FnvStr(h, log.tags().Name(tag));
    for (const sharedlog::LogRecordPtr& record :
         log.ReadStreamUpTo(tag, sharedlog::kMaxSeqNum)) {
      h = FnvU64(h, record->seqnum);
      for (const auto& [key, field] : record->fields) {
        h = FnvStr(h, key);
        if (const int64_t* iv = std::get_if<int64_t>(&field)) {
          h = FnvU64(h, static_cast<uint64_t>(*iv));
        } else {
          h = FnvStr(h, std::get<std::string>(field));
        }
      }
    }
    combined ^= h;
  }

  return combined ^ KvChecksum(cluster, kv_keys, objects);
}

}  // namespace halfmoon::testing

#endif  // HALFMOON_TESTS_TESTING_STATE_CHECKSUM_H_
