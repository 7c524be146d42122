#include "src/core/switch_manager.h"

#include "src/common/check.h"

namespace halfmoon::core {

namespace {

// The kind a transition record's "target" field names; aborts on an out-of-range value.
ProtocolKind KindFromInt(int64_t v) {
  HM_CHECK(v >= 0 && v <= static_cast<int64_t>(ProtocolKind::kTransitional));
  return static_cast<ProtocolKind>(v);
}

// A transition record: "BEGIN" or "END", naming the switch's target.
FieldMap TransitionRecord(const char* op, ProtocolKind target) {
  FieldMap fields;
  fields.Reserve(3);
  fields.SetStr(kFieldOp, op);
  fields.SetInt(kFieldStep, 0);
  fields.SetInt(kFieldTarget, static_cast<int64_t>(target));
  return fields;
}

}  // namespace

ProtocolResolution ResolveTransition(const sharedlog::LogRecordPtr& record,
                                     ProtocolKind default_kind) {
  ProtocolResolution res;
  if (record == nullptr) {
    res.kind = default_kind;
    return res;
  }
  res.kind = record->op == sharedlog::kOpSwitchEnd
                 ? KindFromInt(record->fields.GetInt(kFieldTarget))
                 : ProtocolKind::kTransitional;
  res.post_switch = true;
  return res;
}

sim::Task<SwitchReport> SwitchManager::SwitchTo(ProtocolKind target) {
  if (scope_tag_ == sharedlog::kInvalidTagId) {
    scope_tag_ = ScopeTransitionTag(cluster_->log_space().tags(), scope_);
  }
  HM_CHECK_MSG(!InFlight(scope_tag_), "concurrent switches on one scope are not supported");
  SwitchReport report = co_await Switch(scope_tag_, target, /*daemon=*/false);
  history_.push_back(report);
  co_return report;
}

sim::Task<SwitchReport> SwitchManager::SwitchObject(sharedlog::TagId transition_tag,
                                                    ProtocolKind target) {
  return Switch(transition_tag, target, /*daemon=*/true);
}

sim::Task<SwitchReport> SwitchManager::Switch(sharedlog::TagId transition_tag,
                                              ProtocolKind target, bool daemon) {
  HM_CHECK_MSG(target == ProtocolKind::kHalfmoonRead || target == ProtocolKind::kHalfmoonWrite,
               "switching targets must be Halfmoon protocols");
  SwitchReport report;
  report.transition_tag = transition_tag;
  report.target = target;
  if (!in_flight_.insert(transition_tag).second) {
    co_return report;  // This stream's switch is already in flight: busy.
  }
  runtime::FailureInjector& injector = cluster_->failure_injector();

  // The advisor daemon dies before appending anything: nothing changed for the object.
  if (daemon && injector.ShouldCrash(cluster_->rng(), "advisor.fire")) {
    in_flight_.erase(transition_tag);
    co_return report;
  }

  // The manager runs on node 0 (any node works; the transition log is globally visible).
  sharedlog::LogClient& log = cluster_->node(0).log();
  FieldMap begin = TransitionRecord("BEGIN", target);
  report.begin_seqnum = co_await log.Append(sharedlog::OneTag(transition_tag), std::move(begin));
  report.begin_time = cluster_->scheduler().Now();
  report.began = true;

  // Wait for every SSF that started before the BEGIN (initial cursorTS < begin_seqnum) to
  // finish. SSFs starting after the BEGIN already run the transitional protocol, so the
  // system stays fully operational — the switch is pauseless.
  while (cluster_->RunningFrontier() < report.begin_seqnum) {
    co_await cluster_->scheduler().Delay(Milliseconds(2));
  }

  // The daemon dies after BEGIN: the object stays transitional until a later switch.
  if (daemon && injector.ShouldCrash(cluster_->rng(), "advisor.mid_switch")) {
    in_flight_.erase(transition_tag);
    co_return report;
  }

  FieldMap end = TransitionRecord("END", target);
  report.end_seqnum = co_await log.Append(sharedlog::OneTag(transition_tag), std::move(end));
  report.end_time = cluster_->scheduler().Now();
  report.completed = true;
  ++switches_completed_;
  in_flight_.erase(transition_tag);
  co_return report;
}

}  // namespace halfmoon::core
