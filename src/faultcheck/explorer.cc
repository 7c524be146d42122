#include "src/faultcheck/explorer.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "src/common/check.h"
#include "src/core/gc_service.h"
#include "src/core/ssf_runtime.h"
#include "src/core/switch_manager.h"
#include "src/runtime/cluster.h"
#include "src/sim/task.h"

namespace halfmoon::faultcheck {

namespace {

sim::Task<void> DriveInvocation(core::SsfRuntime* runtime, std::string function, Value input,
                                Value* out, bool* done) {
  *out = co_await runtime->InvokeSsf(std::move(function), std::move(input));
  *done = true;
}

// Runs a switch (SwitchManager::SwitchTo or SwitchObject) detached, dropping its report.
sim::Task<void> DriveSwitch(sim::Task<core::SwitchReport> task) { co_await std::move(task); }

}  // namespace

std::string ExplorerReport::Summary() const {
  std::string out = "sites=" + std::to_string(baseline_sites) +
                    " schedules=" + std::to_string(TotalExplored()) + " (baseline=" +
                    std::to_string(explored_none) + " single=" + std::to_string(explored_single) +
                    " pairs=" + std::to_string(explored_pairs) +
                    " peer=" + std::to_string(explored_peer) +
                    " gc=" + std::to_string(explored_gc) +
                    " switch=" + std::to_string(explored_switch) +
                    " advisor=" + std::to_string(explored_advisor) +
                    " kill=" + std::to_string(explored_kill) +
                    " gc_kill=" + std::to_string(explored_gc_kill) +
                    " ckpt=" + std::to_string(explored_ckpt) + ")" +
                    " failures=" + std::to_string(failures.size());
  return out;
}

Explorer::Explorer(Workload workload, ExplorerOptions options)
    : workload_(std::move(workload)), options_(std::move(options)) {}

Explorer::RunOutcome Explorer::RunSchedule(const Schedule& schedule, bool record_trace) {
  runtime::ClusterConfig ccfg;
  ccfg.seed = options_.seed;
  ccfg.function_nodes = 4;
  ccfg.workers_per_node = 8;
  ccfg.log_shards = options_.log_shards;
  ccfg.append_batch_pipeline = options_.pipeline_depth;
  ccfg.durable = options_.durable;
  ccfg.checkpoint = options_.checkpoints;
  runtime::Cluster cluster(ccfg);

  core::RuntimeConfig rcfg;
  rcfg.default_protocol = options_.protocol;
  rcfg.enable_switching = options_.enable_switching;
  rcfg.duplicate_delay = options_.duplicate_delay;
  rcfg.drop_commit_append = options_.drop_commit_append;
  rcfg.advisor = options_.advisor_mode;
  core::SsfRuntime runtime(&cluster, rcfg);
  core::GcService gc(&cluster, Milliseconds(50));
  core::SwitchManager switcher(&cluster, rcfg.switch_scope);

  // Seed objects before arming the schedule so setup never consumes site hits.
  workload_.Install(runtime);

  runtime::FailureInjector& injector = cluster.failure_injector();
  injector.EnableTrace(record_trace);
  for (const FaultPoint& point : schedule.points) {
    switch (point.kind) {
      case FaultKind::kCrash:
        injector.CrashAtSite(point.site, point.occurrence);
        break;
      case FaultKind::kPeerSpawn:
        injector.SpawnPeerAfterHit(point.at_hit);
        break;
      case FaultKind::kGcScan:
        injector.RunAtHit(point.at_hit, [&gc] { gc.RunOnce(); });
        break;
      case FaultKind::kSwitchBegin:
        HM_CHECK_MSG(options_.enable_switching,
                     "switch fault points require enable_switching");
        injector.RunAtHit(point.at_hit, [&cluster, &switcher, target = point.target] {
          cluster.scheduler().Spawn(DriveSwitch(switcher.SwitchTo(target)));
        });
        break;
      case FaultKind::kAdvisorFire:
        // Models the advisor deciding to move every object at once — the densest possible
        // burst of per-object transitions racing the workload (and any scheduled crash).
        HM_CHECK_MSG(options_.advisor_mode, "advisor fault points require advisor_mode");
        injector.RunAtHit(point.at_hit, [&cluster, &switcher, target = point.target, this] {
          for (const std::string& key : workload_.keys) {
            const sharedlog::TagId tag =
                core::ObjectTransitionTag(cluster.log_space().tags(), key);
            cluster.scheduler().Spawn(DriveSwitch(switcher.SwitchObject(tag, target)));
          }
        });
        break;
      case FaultKind::kNodeKill:
        HM_CHECK_MSG(ccfg.durable,
                     "node-kill fault points require the durable storage tier "
                     "(ExplorerOptions::durable)");
        injector.RunAtHit(point.at_hit, [&cluster, domain = point.site] {
          if (domain == "store") {
            cluster.KillRestartStorage();
          } else if (domain == "seq") {
            cluster.KillRestartSequencer();
          } else if (domain.starts_with("fn")) {
            int node = 0;
            auto [ptr, ec] =
                std::from_chars(domain.data() + 2, domain.data() + domain.size(), node);
            HM_CHECK_MSG(ec == std::errc{} && ptr == domain.data() + domain.size(),
                         "malformed fn<i> kill domain");
            cluster.KillRestartFunctionNode(node);
          } else {
            HM_CHECK_MSG(false, "unknown kill domain (want store | seq | fn<i>)");
          }
        });
        break;
      case FaultKind::kCheckpoint:
        HM_CHECK_MSG(ccfg.checkpoint,
                     "checkpoint fault points require the checkpoint tier "
                     "(ExplorerOptions::checkpoints with durable)");
        injector.RunAtHit(point.at_hit,
                          [&cluster] { cluster.checkpoint_service()->TriggerRound(); });
        break;
    }
  }

  std::vector<Value> results;
  results.reserve(workload_.invocations.size());
  for (const auto& [function, input] : workload_.invocations) {
    Value out;
    bool done = false;
    cluster.scheduler().Spawn(DriveInvocation(&runtime, function, input, &out, &done));
    cluster.scheduler().Run();
    HM_CHECK_MSG(done, "faultcheck: invocation did not complete under the fault schedule");
    results.push_back(std::move(out));
  }

  RunOutcome outcome;
  if (record_trace) outcome.trace = injector.trace();
  // Quiesce injection: the oracle and the final GC scan run fault-free.
  injector.EnableTrace(false);
  injector.ClearCrashSchedule();

  // Advisor-mode runs may have moved individual objects mid-stream, so the oracle must use
  // its switching-aware (dual-read) final-state comparison just as for scope switches.
  const bool oracle_switching = options_.enable_switching || options_.advisor_mode;
  outcome.verdict = CheckConsistency(cluster, workload_, options_.protocol,
                                     oracle_switching, results);
  if (outcome.verdict.ok && options_.final_gc_check) {
    gc.RunOnce();
    outcome.verdict = CheckConsistency(cluster, workload_, options_.protocol,
                                       oracle_switching, results);
    if (!outcome.verdict.ok) {
      outcome.verdict.failure = "after final GC scan: " + outcome.verdict.failure;
    }
  }
  outcome.crashes = runtime.stats().crashes;
  outcome.peers = runtime.stats().peer_instances;
  return outcome;
}

Schedule Explorer::Shrink(const Schedule& failing) {
  Schedule current = failing;
  bool progress = true;
  while (progress && current.points.size() > 1) {
    progress = false;
    for (size_t i = 0; i < current.points.size(); ++i) {
      Schedule candidate = current;
      candidate.points.erase(candidate.points.begin() + static_cast<ptrdiff_t>(i));
      if (!RunSchedule(candidate).verdict.ok) {
        current = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return current;
}

void Explorer::NoteVerdict(const Schedule& schedule, const OracleVerdict& verdict,
                           ExplorerReport* report) {
  if (verdict.ok) return;
  FailingSchedule failure;
  failure.schedule = schedule;
  failure.reason = verdict.failure;
  failure.minimized = options_.shrink_failures ? Shrink(schedule) : schedule;
  report->failures.push_back(std::move(failure));
}

ExplorerReport Explorer::Run() {
  ExplorerReport report;

  // Depth 0: the fault-free baseline seeds the site trace.
  RunOutcome baseline = RunSchedule(Schedule{}, /*record_trace=*/true);
  report.explored_none = 1;
  report.baseline_sites = static_cast<int64_t>(baseline.trace.size());
  NoteVerdict(Schedule{}, baseline.verdict, &report);
  const std::vector<runtime::FailureInjector::TraceEntry> trace = std::move(baseline.trace);

  const size_t first_stride = static_cast<size_t>(std::max(options_.first_stride, 1));
  const size_t second_stride = static_cast<size_t>(std::max(options_.second_stride, 1));

  if (options_.node_kills) {
    // Node-kill family: wipe a whole node's volatile state at a traced hit and force the
    // rest of the workload to run against journal-replayed state. Addressed by the global
    // hit counter like GC scans, so positions replay deterministically.
    for (size_t i = 0; i < trace.size(); i += first_stride) {
      for (const std::string& domain : options_.kill_domains) {
        Schedule kill;
        kill.points.push_back(FaultPoint::NodeKill(domain, static_cast<int64_t>(i)));
        ++report.explored_kill;
        NoteVerdict(kill, RunSchedule(kill).verdict, &report);
      }
      // GC × kill: a scan trims write logs and the init stream and releases durably retired
      // tags, then the storage tier dies with its frames still volatile (same hit) or after
      // they may have flushed (later hits). Recovery must rebuild exactly the durable state.
      for (int64_t delta : {0, 1, 4}) {
        Schedule gc_kill;
        gc_kill.points.push_back(FaultPoint::GcScan(static_cast<int64_t>(i)));
        gc_kill.points.push_back(FaultPoint::NodeKill("store", static_cast<int64_t>(i) + delta));
        ++report.explored_gc_kill;
        NoteVerdict(gc_kill, RunSchedule(gc_kill).verdict, &report);
      }
    }
  }

  if (options_.checkpoints) {
    // Checkpoint family: start a round at a traced hit, then stress every way it can die.
    // The daemon crash sites cover the round's own phases (partial image / manifest without
    // truncation / truncation without store release); the node-kill compositions land a
    // whole-node loss while the round is walking (hit + 1) and just after it finished
    // (hit + 2), so recovery must come up through the image + replay-suffix path.
    static constexpr const char* kCkptCrashSites[] = {"ckpt.write", "ckpt.install",
                                                      "ckpt.truncate"};
    for (size_t i = 0; i < trace.size(); i += first_stride) {
      Schedule round;
      round.points.push_back(FaultPoint::Checkpoint(static_cast<int64_t>(i)));
      ++report.explored_ckpt;
      NoteVerdict(round, RunSchedule(round).verdict, &report);
      for (const char* site : kCkptCrashSites) {
        Schedule crash = round;
        crash.points.push_back(FaultPoint::Crash(site, 0));
        ++report.explored_ckpt;
        NoteVerdict(crash, RunSchedule(crash).verdict, &report);
      }
      for (const std::string& domain : options_.kill_domains) {
        for (int64_t delta : {1, 2}) {
          Schedule kill = round;
          kill.points.push_back(FaultPoint::NodeKill(domain, static_cast<int64_t>(i) + delta));
          ++report.explored_ckpt;
          NoteVerdict(kill, RunSchedule(kill).verdict, &report);
        }
      }
    }
  }

  for (size_t i = 0; i < trace.size(); i += first_stride) {
    Schedule first;
    first.points.push_back(FaultPoint::Crash(trace[i].site, trace[i].occurrence));

    // Depth 1 — and the faulted run's trace seeds the depth-2 suffix positions: the prefix
    // up to the first crash is identical to the baseline, the suffix covers retry/recovery.
    RunOutcome faulted = RunSchedule(first, /*record_trace=*/true);
    ++report.explored_single;
    NoteVerdict(first, faulted.verdict, &report);

    std::vector<size_t> seconds;
    for (size_t j = i + 1; j < faulted.trace.size(); j += second_stride) {
      if (options_.second_limit >= 0 &&
          seconds.size() >= static_cast<size_t>(options_.second_limit)) {
        break;
      }
      seconds.push_back(j);
    }

    if (options_.crash_pairs) {
      for (size_t j : seconds) {
        Schedule pair = first;
        pair.points.push_back(
            FaultPoint::Crash(faulted.trace[j].site, faulted.trace[j].occurrence));
        ++report.explored_pairs;
        NoteVerdict(pair, RunSchedule(pair).verdict, &report);
      }
    }

    if (options_.crash_plus_peer) {
      // -1 arms the peer at the very first attempt; suffix positions arm it during recovery.
      std::vector<int64_t> hits = {-1};
      for (size_t j : seconds) hits.push_back(static_cast<int64_t>(j));
      for (int64_t hit : hits) {
        Schedule with_peer = first;
        with_peer.points.push_back(FaultPoint::PeerSpawn(hit));
        ++report.explored_peer;
        NoteVerdict(with_peer, RunSchedule(with_peer).verdict, &report);
      }
    }

    if (options_.crash_plus_gc) {
      // A scan exactly at the crash hit (GC racing the dying attempt), plus suffix scans
      // racing the retry.
      std::vector<int64_t> hits = {static_cast<int64_t>(i)};
      for (size_t j : seconds) hits.push_back(static_cast<int64_t>(j));
      for (int64_t hit : hits) {
        Schedule with_gc = first;
        with_gc.points.push_back(FaultPoint::GcScan(hit));
        ++report.explored_gc;
        NoteVerdict(with_gc, RunSchedule(with_gc).verdict, &report);
      }
    }

    if (options_.crash_plus_advisor && options_.advisor_mode) {
      // Advisor fire before the crash (the crash lands while per-object transitions are in
      // flight), at it, and during recovery (retries resolve per-object protocols while the
      // transition streams grow).
      std::vector<int64_t> hits;
      if (i > 0) hits.push_back(0);
      hits.push_back(static_cast<int64_t>(i));
      for (size_t j : seconds) hits.push_back(static_cast<int64_t>(j));
      for (int64_t hit : hits) {
        Schedule with_advisor = first;
        with_advisor.points.push_back(FaultPoint::AdvisorFire(options_.switch_target, hit));
        ++report.explored_advisor;
        NoteVerdict(with_advisor, RunSchedule(with_advisor).verdict, &report);
      }
    }

    if (options_.crash_plus_switch && options_.enable_switching) {
      // Switch starting before the crash (the crash lands mid-switch), at it, and during
      // recovery (retries resolve their protocol while the transition log grows).
      std::vector<int64_t> hits;
      if (i > 0) hits.push_back(0);
      hits.push_back(static_cast<int64_t>(i));
      for (size_t j : seconds) hits.push_back(static_cast<int64_t>(j));
      for (int64_t hit : hits) {
        Schedule with_switch = first;
        with_switch.points.push_back(FaultPoint::SwitchBegin(options_.switch_target, hit));
        ++report.explored_switch;
        NoteVerdict(with_switch, RunSchedule(with_switch).verdict, &report);
      }
    }
  }

  return report;
}

}  // namespace halfmoon::faultcheck
