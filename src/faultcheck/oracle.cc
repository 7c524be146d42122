#include "src/faultcheck/oracle.h"

#include <optional>

#include "src/kvstore/kv_state.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/sharded_log.h"

namespace halfmoon::faultcheck {

namespace {

// Display form of a value for failure messages (workload values are printable strings).
std::string Show(const Value& value) {
  for (char c : value) {
    if (c < 0x20 || c > 0x7e) return "<binary:" + std::to_string(value.size()) + "B>";
  }
  return "\"" + value + "\"";
}

// The value an idealized crash-free reader invoked after quiescence would observe for `key`,
// computed directly against the raw ShardedLog/KvState along the configured protocol's read
// path. Returns false (with `error` set) when the representation itself is broken — e.g. a
// committed write-log record whose version is missing from the store.
bool ObservableValue(runtime::Cluster& cluster, core::ProtocolKind protocol, bool switching,
                     const std::string& key, Value* out, std::string* error) {
  sharedlog::ShardedLog& log = cluster.log_space();
  kvstore::KvState& kv = cluster.kv_state();

  sharedlog::TagId write_tag =
      log.tags().FindPrefixed(sharedlog::kWriteLogPrefix, key);
  sharedlog::LogRecordPtr commit =
      write_tag == sharedlog::kInvalidTagId ? nullptr
                                            : log.ReadPrev(write_tag, sharedlog::kMaxSeqNum);
  std::optional<Value> latest = kv.Get(key);

  if (!switching && protocol != core::ProtocolKind::kHalfmoonRead &&
      protocol != core::ProtocolKind::kTransitional) {
    // Halfmoon-write / Boki / unsafe: the LATEST slot is the object.
    *out = latest.value_or(Value{});
    return true;
  }

  std::optional<Value> versioned;
  sharedlog::SeqNum commit_seq = 0;
  if (commit != nullptr) {
    versioned = kv.GetVersioned(write_tag, commit->fields.GetStr(kFieldVersion));
    if (!versioned.has_value()) {
      *error = "committed version of \"" + key + "\" (record seqnum " +
               std::to_string(commit->seqnum) + ") is missing from the store";
      return false;
    }
    commit_seq = commit->seqnum;
  }

  if (!switching) {
    // Pure Halfmoon-read: the freshest committed write-log version; LATEST (the seed slot)
    // only for objects with no commit record at all.
    *out = versioned.has_value() ? *versioned : latest.value_or(Value{});
    return true;
  }

  // Switching world (§5.2 dual read at cursor = infinity): freshness-compare the LATEST
  // slot's installing cursorTS against the commit record's seqnum — both are positions in
  // the same event stream.
  std::optional<kvstore::VersionTuple> latest_version = kv.GetVersion(key);
  const uint64_t latest_ts = latest_version.has_value() ? latest_version->cursor_ts : 0;
  if (latest.has_value() && (!versioned.has_value() || latest_ts > commit_seq)) {
    *out = *latest;
    return true;
  }
  if (versioned.has_value()) {
    *out = *versioned;
    return true;
  }
  *out = Value{};
  return true;
}

}  // namespace

OracleVerdict CheckConsistency(runtime::Cluster& cluster, const Workload& workload,
                               core::ProtocolKind protocol, bool switching,
                               const std::vector<Value>& results) {
  std::map<std::string, Value> reference_state;
  std::vector<Value> expected = workload.ExpectedResults(&reference_state);

  OracleVerdict verdict;
  if (results.size() != expected.size()) {
    verdict.ok = false;
    verdict.failure = "expected " + std::to_string(expected.size()) + " results, got " +
                      std::to_string(results.size());
    return verdict;
  }
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i] != expected[i]) {
      verdict.ok = false;
      verdict.failure = "invocation #" + std::to_string(i) + " (" +
                        workload.invocations[i].first + ") returned " + Show(results[i]) +
                        ", reference says " + Show(expected[i]);
      return verdict;
    }
  }

  for (const std::string& key : workload.keys) {
    Value observed;
    std::string error;
    if (!ObservableValue(cluster, protocol, switching, key, &observed, &error)) {
      verdict.ok = false;
      verdict.failure = error;
      return verdict;
    }
    auto it = reference_state.find(key);
    const Value& expected_value = it == reference_state.end() ? Value{} : it->second;
    if (observed != expected_value) {
      verdict.ok = false;
      verdict.failure = "final state of \"" + key + "\" is " + Show(observed) +
                        ", reference says " + Show(expected_value);
      return verdict;
    }
  }
  return verdict;
}

}  // namespace halfmoon::faultcheck
