// Pauseless protocol switching (§4.7, §5.2): one mechanism for every transition stream.
//
// A scope records its switching history in its transition stream, "switch:<scope>". An
// object is a scope too: in advisor mode (DESIGN.md §11) each object has its own stream,
// "switch:k:<key>", the scope named after its write log. A switch appends a BEGIN record,
// waits until every SSF that started before the BEGIN has finished (the running frontier,
// polled every 2 ms; new SSFs are never blocked — they simply run the transitional protocol),
// then appends the END record. SSFs resolve their protocol from the stream using their
// initial cursorTS (ResolveTransition), which makes the resolution stable across
// re-executions. The same writer, reader and per-attempt cache serve both kinds of stream;
// only the writer interns an object's stream.

#ifndef HALFMOON_CORE_SWITCH_MANAGER_H_
#define HALFMOON_CORE_SWITCH_MANAGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/core/env.h"
#include "src/runtime/cluster.h"
#include "src/sim/task.h"

namespace halfmoon::core {

// The transition streams, interned without building their names: a scope's
// ("switch:<scope>") and an object's ("switch:k:<key>"). No other code spells them.
inline sharedlog::TagId ScopeTransitionTag(sharedlog::TagRegistry& tags,
                                           std::string_view scope) {
  return tags.InternPrefixed(sharedlog::kTransitionLogPrefix, scope);
}
// An object's stream is interned only by its writer, the switch (the advisor, or a test or
// explorer driving SwitchObject). Readers find it: most objects never switch, and a stream
// that was never interned holds no records, so it resolves to the default protocol without
// costing a tag id per object ever accessed.
inline sharedlog::TagId ObjectTransitionTag(sharedlog::TagRegistry& tags, std::string_view key) {
  return tags.InternPrefixed(sharedlog::kObjectTransitionPrefix, key);
}
inline sharedlog::TagId FindObjectTransitionTag(const sharedlog::TagRegistry& tags,
                                                std::string_view key) {
  return tags.FindPrefixed(sharedlog::kObjectTransitionPrefix, key);
}

// Decodes the latest record of a transition stream at or below an SSF's cursor: none means
// `default_kind`, an END names its target, and a BEGIN means a switch is in flight (or was
// abandoned): the transitional protocol.
ProtocolResolution ResolveTransition(const sharedlog::LogRecordPtr& record,
                                     ProtocolKind default_kind);

struct SwitchReport {
  sharedlog::TagId transition_tag = sharedlog::kInvalidTagId;
  ProtocolKind target = ProtocolKind::kHalfmoonRead;
  // `began && !completed` means the advisor daemon died between BEGIN and END: the object
  // resolves to the transitional protocol — a correct (if slower) state — until a later
  // switch completes. `!began` means nothing was appended (busy, or the daemon died first).
  bool began = false;
  bool completed = false;
  SimTime begin_time = 0;
  SimTime end_time = 0;
  sharedlog::SeqNum begin_seqnum = 0;
  sharedlog::SeqNum end_seqnum = 0;

  SimDuration SwitchingDelay() const { return end_time - begin_time; }
};

class SwitchManager {
 public:
  SwitchManager(runtime::Cluster* cluster, std::string scope)
      : cluster_(cluster), scope_(std::move(scope)) {}

  // Switches the scope to `target`. Returns once the END record is durable; the system keeps
  // serving throughout. A second switch of the scope while one is in flight aborts.
  sim::Task<SwitchReport> SwitchTo(ProtocolKind target);

  // Switches one object's stream (advisor mode). Switches on distinct objects may run
  // concurrently; one on an object whose switch is still in flight returns at once with
  // began == false (busy — the advisor retries on a later sweep). Two crash sites model the
  // advisor daemon dying: "advisor.fire" before BEGIN and "advisor.mid_switch" between BEGIN
  // and END. An abandoned switch leaves the object transitional, which the consistency
  // oracle accepts.
  sim::Task<SwitchReport> SwitchObject(sharedlog::TagId transition_tag, ProtocolKind target);

  // True while a switch of this stream is in flight. The advisor skips such objects; a
  // BEGIN-terminated stream with no switch in flight is an abandoned transition, which a
  // fresh SwitchObject completes.
  bool InFlight(sharedlog::TagId transition_tag) const {
    return in_flight_.contains(transition_tag);
  }

  // Switches that appended their END, on the scope and on objects.
  int64_t switches_completed() const { return switches_completed_; }

  // The scope's completed switches. Object switches are not kept: they are unbounded.
  const std::vector<SwitchReport>& history() const { return history_; }

 private:
  // The one switch body: BEGIN, the frontier wait, END. `daemon` probes the advisor's crash
  // sites; the scope's switches have none.
  sim::Task<SwitchReport> Switch(sharedlog::TagId transition_tag, ProtocolKind target,
                                 bool daemon);

  runtime::Cluster* cluster_;
  std::string scope_;
  // Interned id of the scope's transition stream; resolved on the scope's first switch.
  sharedlog::TagId scope_tag_ = sharedlog::kInvalidTagId;
  std::unordered_set<sharedlog::TagId> in_flight_;
  std::vector<SwitchReport> history_;
  int64_t switches_completed_ = 0;
};

}  // namespace halfmoon::core

#endif  // HALFMOON_CORE_SWITCH_MANAGER_H_
