// Per-attempt execution environment of a stateful serverless function (SSF).
//
// One Env exists per *attempt* (original execution, retry after a crash, or duplicate peer
// instance). All attempts of an invocation share the same instance ID and therefore the same
// step-log sub-stream, which is how a re-execution recovers the progress of its predecessors
// (Figure 5, Init).

#ifndef HALFMOON_CORE_ENV_H_
#define HALFMOON_CORE_ENV_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/cluster.h"
#include "src/sharedlog/log_record.h"

namespace halfmoon::core {

// The protocols of §3: Halfmoon's two asymmetric protocols, the Boki-style symmetric baseline,
// the unsafe (no-logging) baseline, and the transitional protocol used during switching.
enum class ProtocolKind {
  kUnsafe,
  kBoki,
  kHalfmoonRead,
  kHalfmoonWrite,
  kTransitional,
};

const char* ProtocolName(ProtocolKind kind);

// Append-class id under which a protocol's log records are accounted (see
// LogClientStats::appended_bytes_by_class). Class 0 is reserved for control records (init,
// invoke pre/post, switch transitions), so protocol classes start at 1.
constexpr int LogAppendClass(ProtocolKind kind) { return 1 + static_cast<int>(kind); }

// Outcome of consulting the transition log for an object scope (§4.7).
struct ProtocolResolution {
  ProtocolKind kind = ProtocolKind::kHalfmoonRead;
  // True when the resolution came from a transition record rather than the configured default.
  // Post-switch objects may have state on both the single-version (LATEST) path and the
  // multi-version path, so reads must compare freshness across both (§5.2).
  bool post_switch = false;
};

struct Env {
  // ---- Identity ----
  std::string instance_id;  // Shared by every attempt/peer of this invocation.
  int attempt = 0;

  // ---- Protocol state (Figures 5 and 7) ----
  // Interned id of this instance's step-log tag, resolved once in InitSsf/InitChildSsf; every
  // subsequent logged step reuses the id instead of re-hashing the instance-id string.
  sharedlog::TagId step_tag = sharedlog::kInvalidTagId;
  sharedlog::SeqNum init_cursor_ts = 0;  // cursorTS acquired by Init; stable across attempts.
  sharedlog::SeqNum cursor_ts = 0;       // Advances with every logged operation.
  int64_t step = 0;                      // Operation counter (annotation in log records).
  int64_t consecutive_writes = 0;        // Tie-breaker counter of Halfmoon-write (§4.2).

  // Recovery state: shared views of the instance's step-log records in stream order, and the
  // logical position the next logged record will occupy. During re-execution, positions <
  // step_logs.size() are replayed from the log instead of re-executed. The views alias the
  // records held by the ShardedLog — fetching a step log never copies record payloads.
  std::vector<sharedlog::LogRecordPtr> step_logs;
  size_t log_pos = 0;

  // Protocols this attempt resolved from transition streams (§4.7), one entry per stream:
  // the scope's, keyed by its tag, or in advisor mode each accessed object's (DESIGN.md §11),
  // keyed by the object's write tag — its stream may have no id of its own yet, and two such
  // objects must not share an entry. Every entry derives from init_cursor_ts, so
  // re-executions resolve identically. An attempt touches few streams, so lookups scan.
  std::vector<std::pair<sharedlog::TagId, ProtocolResolution>> resolutions;

  // §4.4 ordered-writes extension state: the key of the previous operation when it was a
  // log-free write (empty otherwise). When the next write targets a *different* object, the
  // protocol inserts a sync record between them so the dependent pair cannot commute.
  std::string last_write_key;
  bool preserve_write_order = false;

  // Faultcheck negative control (see RuntimeConfig::drop_commit_append).
  bool drop_commit_append = false;

  // ---- Plumbing ----
  runtime::Cluster* cluster = nullptr;
  runtime::FunctionNode* node = nullptr;

  sharedlog::LogClient& log() { return node->log(); }
  // The log client for an append this attempt issues: stamps the client's next append as
  // in-attempt under byte class `append_class` (LogClient::set_append_in_attempt; 0 =
  // control, else a protocol's LogAppendClass), so a kill that loses its journal frame
  // aborts this attempt into the retry loop instead of handing back a rolled-back record.
  // Every append an attempt makes goes through here, in the append expression itself
  // (`co_await env.attempt_log(cls).Append(...)`), so no other coroutine can take the stamp
  // and a replayed step, which appends nothing, stamps nothing.
  sharedlog::LogClient& attempt_log(int append_class = 0) {
    node->log().set_append_in_attempt(append_class);
    return node->log();
  }
  kvstore::KvClient& kv() { return node->kv(); }

  // Interned id of `key`'s write-log tag ("k:<key>"). The two-part intern hashes the logical
  // concatenation without building a string, so the steady state costs one hash of the key
  // bytes and zero allocations. The id doubles as the object's handle in the versioned KV
  // store (kvstore::ObjectId).
  sharedlog::TagId WriteTag(const std::string& key) {
    return log().tags().InternPrefixed(sharedlog::kWriteLogPrefix, key);
  }

  // Crash site: throws SsfCrashed when the failure injector decides this attempt dies here.
  void MaybeCrash(const char* site) {
    if (cluster->failure_injector().ShouldCrash(cluster->rng(), site)) {
      throw runtime::SsfCrashed{site};
    }
  }

  // Fresh random identifier (version numbers, callee instance IDs). Non-deterministic; every
  // use must be made recoverable by logging, per §4.1.
  std::string RandomId() { return cluster->rng().HexString(16); }
};

}  // namespace halfmoon::core

#endif  // HALFMOON_CORE_ENV_H_
