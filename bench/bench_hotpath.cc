// Hot-path benchmark for the simulator's log path (see DESIGN.md "Performance architecture").
// Every section measures the current code, and most also gate it:
//   * driven log-heavy load on a real cluster: group commit + timer wheel against their
//     in-tree reference modes (per-request appends, binary-heap queue), with committed
//     content asserted identical;
//   * shard scaling (>= 1.8x simulated throughput at 4 shards), pipelined group commit
//     (>= 1.5x at depth 4), and the node-local read cache (>= 60% hit rate);
//   * tag-intern, index-propagation coalescing and timer-wheel micro-sections;
//   * the zero-copy audit (read_record_copies == 0) and the advisor drift section (advisor
//     below both static protocols).
// Simulated-time gates are deterministic and therefore hard. Every section pins its own
// cluster config; no HM_* variable other than HM_BENCH_SCALE (workload size) is read.
//
// Output: BENCH_hotpath.json in the working directory, plus a human-readable summary on
// stdout.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"
#include "src/core/advisor.h"
#include "src/core/online_advisor.h"
#include "src/metrics/workload_sketch.h"
#include "src/runtime/cluster.h"
#include "src/sharedlog/log_client.h"
#include "src/sharedlog/sharded_log.h"
#include "src/sharedlog/tag_registry.h"
#include "src/sim/scheduler.h"

namespace halfmoon::bench {
namespace {

using sharedlog::LogRecordPtr;
using sharedlog::SeqNum;
using sharedlog::TagId;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Object keys of realistic length: composite "table/partition/object" names, as in real
// deployments, not three-byte labels.
std::vector<std::string> ObjectKeys(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "app/table-%d/partition-%03d/object-%06d", i % 8, i % 64, i);
    out.push_back(buf);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tag-intern micro-section: resolving "k:<key>" per operation, PR 1 style (build the string,
// hash it against a string-keyed map) vs the two-part InternPrefixed hit path.
// ---------------------------------------------------------------------------

struct TagInternResult {
  double string_ns = 0.0;
  double interned_ns = 0.0;
  int64_t intern_requests = 0;
  size_t distinct_tags = 0;
  uint64_t checksum = 0;
};

TagInternResult RunTagInternMicro(uint64_t iters) {
  TagInternResult out;
  std::vector<std::string> keys = ObjectKeys(256);

  // PR 1 path: "k:" + key materialized and byte-hashed every time.
  std::unordered_map<std::string, uint64_t> string_ids;
  for (size_t i = 0; i < keys.size(); ++i) string_ids.emplace("k:" + keys[i], i);
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    out.checksum += string_ids.find("k:" + keys[i % keys.size()])->second;
  }
  out.string_ns = SecondsSince(start) * 1e9 / static_cast<double>(iters);

  // Interned path: hash the key bytes behind a constant prefix; no allocation on hits.
  sharedlog::TagRegistry registry;
  for (const std::string& key : keys) registry.InternPrefixed("k:", key);
  uint64_t base = out.checksum;
  start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    out.checksum += registry.InternPrefixed("k:", keys[i % keys.size()]);
  }
  out.interned_ns = SecondsSince(start) * 1e9 / static_cast<double>(iters);
  HM_CHECK_MSG(out.checksum - base == base, "intern hit path resolved different ids");

  out.intern_requests = registry.intern_requests();
  out.distinct_tags = registry.size();
  // At-most-once materialization: millions of requests, a fixed number of distinct names.
  HM_CHECK(out.intern_requests == static_cast<int64_t>(iters + keys.size()));
  HM_CHECK(out.distinct_tags == keys.size());
  return out;
}

// ---------------------------------------------------------------------------
// Propagation section: commit notifications vs index-advance wake-ups, coalesced vs the
// per-commit reference mode, over a real cluster run with concurrent appenders.
// ---------------------------------------------------------------------------

struct PropagationResult {
  int64_t commits = 0;
  int64_t ticks = 0;
  SimTime end_time = 0;
  std::vector<SeqNum> indexed_upto;
};

PropagationResult RunPropagation(bool coalesce, int appends_per_node) {
  runtime::ClusterConfig config;
  config.function_nodes = 8;
  config.coalesce_index_propagation = coalesce;
  runtime::Cluster cluster(config);
  for (int n = 0; n < cluster.node_count(); ++n) {
    cluster.scheduler().Spawn([](runtime::Cluster* c, int node, int total) -> sim::Task<void> {
      for (int i = 0; i < total; ++i) {
        FieldMap fields;
        fields.SetStr("op", "write");
        fields.SetInt("step", i);
        co_await c->node(node).log().Append(
            sharedlog::OneTag("t" + std::to_string(node)), std::move(fields));
      }
    }(&cluster, n, appends_per_node));
  }
  cluster.scheduler().Run();
  PropagationResult out;
  out.commits = cluster.index_propagation_commits();
  out.ticks = cluster.index_propagation_ticks();
  out.end_time = cluster.scheduler().Now();
  for (int n = 0; n < cluster.node_count(); ++n) {
    out.indexed_upto.push_back(cluster.node(n).log().indexed_upto());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Driven log-heavy section: a real cluster (LogClient + stations + scheduler) under
// concurrent appenders. The embedded PR 2 baseline is the same binary with group commit
// disabled and the binary-heap scheduler — exactly the previous PR's configuration. The
// candidate runs the AppendBatcher + timer wheel. Committed content must be identical
// (the full-scale batched-vs-unbatched equivalence assertion); wall-clock time and
// events-per-op measure what group commit and the wheel buy.
// ---------------------------------------------------------------------------

struct DrivenResult {
  uint64_t sim_ops = 0;       // Log appends + cond-appends + reads driven through clients.
  uint64_t events = 0;        // Scheduler events fired to simulate them.
  uint64_t checksum = 0;      // Mode-invariant fold of all committed per-worker streams.
  double seconds = 0.0;
  int64_t append_rounds = 0;  // Batched mode only: sequencer rounds and their occupancy.
  int64_t batched_requests = 0;
};

struct DrivenShape {
  int nodes = 4;
  int workers_per_node = 48;
  int ops_per_worker = 192;
};

// One single-writer stream per worker ("w:<i>"), interned before any load runs.
std::vector<TagId> InternWorkerTags(runtime::Cluster& cluster, const DrivenShape& shape) {
  std::vector<TagId> tags;
  for (int w = 0; w < shape.nodes * shape.workers_per_node; ++w) {
    tags.push_back(cluster.log_space().tags().Intern("w:" + std::to_string(w)));
  }
  return tags;
}

// Content fingerprint: each worker stream's step sequence in order (program order for its
// single writer), combined order-independently across workers — invariant under batching,
// sharding and pipelining, which may change when records commit but never what commits.
uint64_t WorkerStreamChecksum(runtime::Cluster& cluster, const std::vector<TagId>& tags) {
  uint64_t checksum = 0;
  for (TagId tag : tags) {
    uint64_t h = 1469598103934665603ull;
    for (const LogRecordPtr& record :
         cluster.log_space().ReadStreamUpTo(tag, sharedlog::kMaxSeqNum)) {
      h = (h ^ static_cast<uint64_t>(record->fields.GetInt("step"))) * 1099511628211ull;
    }
    checksum ^= h;
  }
  return checksum;
}

sim::Task<void> DrivenWorker(runtime::Cluster* cluster, int node, TagId own, TagId obj,
                             int ops, uint64_t* read_sink) {
  sharedlog::LogClient& log = cluster->node(node).log();
  size_t own_len = 0;  // Single writer of `own`: the next expected stream offset.
  for (int i = 0; i < ops; ++i) {
    FieldMap fields;
    fields.SetStr("op", "write");
    fields.SetInt("step", i);
    if (i % 4 == 3) {
      sharedlog::CondAppendResult r = co_await log.CondAppend(
          sharedlog::TwoTags(own, obj), std::move(fields), own, own_len);
      if (r.ok) ++own_len;
    } else {
      co_await log.Append(sharedlog::TwoTags(own, obj), std::move(fields));
      ++own_len;
    }
    if (i % 8 == 7) {
      // Cached-path read against the worker's own stream. Results feed a sink, not the
      // cross-mode checksum: read timing (and thus what a bounded read sees) legitimately
      // differs between batched and unbatched runs.
      LogRecordPtr record = co_await log.ReadPrev(own, log.indexed_upto());
      if (record != nullptr) *read_sink += static_cast<uint64_t>(record->seqnum) & 7u;
    }
  }
}

DrivenResult RunDrivenLogHeavy(bool batched, const DrivenShape& shape) {
  runtime::ClusterConfig config;
  config.function_nodes = shape.nodes;
  config.seed = 1;
  // PR 2 configuration vs current: group commit + timer wheel off or on, as a unit.
  config.group_commit_appends = batched;
  config.queue_mode = batched ? sim::QueueMode::kTimerWheel : sim::QueueMode::kPriorityQueue;
  runtime::Cluster cluster(config);

  std::vector<TagId> worker_tags = InternWorkerTags(cluster, shape);
  uint64_t read_sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t w = 0; w < worker_tags.size(); ++w) {
    TagId obj = cluster.log_space().tags().InternPrefixed("k:", std::to_string(w % 32));
    cluster.scheduler().Spawn(DrivenWorker(&cluster, static_cast<int>(w) % shape.nodes,
                                           worker_tags[w], obj, shape.ops_per_worker,
                                           &read_sink));
  }
  cluster.scheduler().Run();

  DrivenResult out;
  out.seconds = SecondsSince(start);
  out.sim_ops = static_cast<uint64_t>(cluster.TotalLogAppends() + cluster.TotalLogReads());
  out.events = cluster.scheduler().events_processed();
  for (int n = 0; n < cluster.node_count(); ++n) {
    out.append_rounds += cluster.node(n).log().stats().append_rounds;
    out.batched_requests += cluster.node(n).log().stats().batched_requests;
  }
  // Group commit must not change what commits, only when. The committed record count must
  // also agree (no stream escaped the fingerprint).
  out.checksum = WorkerStreamChecksum(cluster, worker_tags) + cluster.log_space().next_seqnum();
  if (read_sink == ~0ull) std::printf("(unreachable)\n");  // Keep the reads observable.
  return out;
}

std::pair<DrivenResult, DrivenResult> BestOfDriven(int passes, const DrivenShape& shape) {
  DrivenResult best_base, best_cand;
  for (int pass = 0; pass < passes; ++pass) {
    DrivenResult base = RunDrivenLogHeavy(/*batched=*/false, shape);
    DrivenResult cand = RunDrivenLogHeavy(/*batched=*/true, shape);
    HM_CHECK_MSG(base.checksum == cand.checksum,
                 "group commit changed committed log content");
    if (pass == 0) {
      best_base = base;
      best_cand = cand;
      continue;
    }
    HM_CHECK_MSG(base.checksum == best_base.checksum,
                 "driven passes observed different data");
    if (base.seconds < best_base.seconds) best_base = base;
    if (cand.seconds < best_cand.seconds) best_cand = cand;
  }
  return {best_base, best_cand};
}

// ---------------------------------------------------------------------------
// Append-storm sections: closed-loop appenders against a configurable log, measured in
// *simulated* throughput (committed appends per virtual second) at identical offered load.
//   * Shard scaling: 1 vs 4 shards at pipeline depth 1. The bottleneck sharding removes is
//     the sequencer: each node's batcher keeps one round in flight per shard, so with
//     hundreds of concurrent workers per node a single shard serializes rounds end to end
//     while four shards run four rounds concurrently.
//   * Pipeline: one shard at depth 1/2/4/8. More concurrent workers per node than max_batch,
//     so the pending queue always holds more than one full round — the regime where
//     overlapping rounds pays.
// Committed per-stream content must be invariant across shard counts and depths (and the
// final seqnum across depths: the FIFO commit-ticket assertion at full scale). Simulated
// time is deterministic, so the throughput floors are hard gates, not wall-clock guesses.
// ---------------------------------------------------------------------------

struct StormResult {
  uint64_t appends = 0;
  SimTime end_time = 0;
  uint64_t checksum = 0;   // Order-independent fold of per-worker stream contents.
  uint64_t next_seqnum = 0;
  int64_t append_rounds = 0;  // Sequencer rounds across all nodes and shards.
  int64_t rounds_overlapped = 0;
  int64_t max_inflight = 0;
  int64_t ctrl_raised = 0;
  int64_t ctrl_widened = 0;
  int64_t ctrl_narrowed = 0;
  int64_t ctrl_lowered = 0;

  double AppendsPerVsec() const {
    return static_cast<double>(appends) / ToSecondsDouble(end_time);
  }
};

sim::Task<void> StormWorker(runtime::Cluster* cluster, int node, TagId own, TagId obj,
                            int ops) {
  sharedlog::LogClient& log = cluster->node(node).log();
  for (int i = 0; i < ops; ++i) {
    FieldMap fields;
    fields.SetStr("op", "write");
    fields.SetInt("step", i);
    co_await log.Append(sharedlog::TwoTags(own, obj), std::move(fields));
  }
}

StormResult RunAppendStorm(int shards, int depth, const DrivenShape& shape) {
  runtime::ClusterConfig config;
  config.function_nodes = shape.nodes;
  config.seed = 1;
  config.log_shards = shards;
  config.append_batch_pipeline = depth;
  runtime::Cluster cluster(config);

  std::vector<TagId> worker_tags = InternWorkerTags(cluster, shape);
  for (size_t w = 0; w < worker_tags.size(); ++w) {
    TagId obj = cluster.log_space().tags().InternPrefixed("k:", std::to_string(w % 64));
    cluster.scheduler().Spawn(StormWorker(&cluster, static_cast<int>(w) % shape.nodes,
                                          worker_tags[w], obj, shape.ops_per_worker));
  }
  cluster.scheduler().Run();

  StormResult out;
  out.end_time = cluster.scheduler().Now();
  out.appends = static_cast<uint64_t>(cluster.TotalLogAppends());
  out.next_seqnum = cluster.log_space().next_seqnum();
  for (int n = 0; n < cluster.node_count(); ++n) {
    const sharedlog::LogClientStats& stats = cluster.node(n).log().stats();
    out.append_rounds += stats.append_rounds;
    out.rounds_overlapped += stats.pipeline_rounds_overlapped;
    out.max_inflight = std::max(out.max_inflight, stats.pipeline_max_inflight);
    out.ctrl_raised += stats.ctrl_depth_raised;
    out.ctrl_widened += stats.ctrl_window_widened;
    out.ctrl_narrowed += stats.ctrl_window_narrowed;
    out.ctrl_lowered += stats.ctrl_depth_lowered;
  }
  out.checksum = WorkerStreamChecksum(cluster, worker_tags);
  return out;
}

// ---------------------------------------------------------------------------
// Read-cache section: the Halfmoon-read log-free read path (ReadPrev of an object's write
// log at the client's index horizon) with the node-local consistent cache enabled. Workers
// mix one write per eight reads over a shared object set; the cache serves repeat reads
// whose cached record still matches the index replica's latest-version answer.
// ---------------------------------------------------------------------------

struct CacheRunResult {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t reads_index_local = 0;
  int64_t reads_storage = 0;
  SimTime end_time = 0;
};

sim::Task<void> CacheWorker(runtime::Cluster* cluster, int node, TagId own, TagId obj,
                            int ops, uint64_t* sink) {
  sharedlog::LogClient& log = cluster->node(node).log();
  for (int i = 0; i < ops; ++i) {
    if (i % 8 == 0) {
      FieldMap fields;
      fields.SetStr("op", "write");
      fields.SetInt("step", i);
      co_await log.Append(sharedlog::TwoTags(own, obj), std::move(fields));
    } else {
      LogRecordPtr record = co_await log.ReadPrev(obj, log.indexed_upto());
      if (record != nullptr) *sink += static_cast<uint64_t>(record->fields.GetInt("step"));
    }
  }
}

CacheRunResult RunReadCache(bool cache_enabled, const DrivenShape& shape) {
  runtime::ClusterConfig config;
  config.function_nodes = shape.nodes;
  config.seed = 1;
  config.log_read_cache = cache_enabled;
  runtime::Cluster cluster(config);

  int total_workers = shape.nodes * shape.workers_per_node;
  uint64_t sink = 0;
  for (int w = 0; w < total_workers; ++w) {
    TagId own = cluster.log_space().tags().Intern("w:" + std::to_string(w));
    TagId obj = cluster.log_space().tags().InternPrefixed("k:", std::to_string(w % 16));
    cluster.scheduler().Spawn(CacheWorker(&cluster, w % shape.nodes, own, obj,
                                          shape.ops_per_worker, &sink));
  }
  cluster.scheduler().Run();

  CacheRunResult out;
  out.end_time = cluster.scheduler().Now();
  for (int n = 0; n < cluster.node_count(); ++n) {
    const sharedlog::LogClientStats& stats = cluster.node(n).log().stats();
    out.cache_hits += stats.cache_hits;
    out.cache_misses += stats.cache_misses;
    out.reads_index_local += stats.reads_index_local;
    out.reads_storage += stats.reads_storage;
  }
  if (sink == ~0ull) std::printf("(unreachable)\n");
  return out;
}

// ---------------------------------------------------------------------------
// Timer-wheel micro-section: the same post/drain event storm through the binary-heap
// reference queue and the hierarchical wheel. Delays span L0 slots through mid levels, the
// wheel's busiest regime.
// ---------------------------------------------------------------------------

struct EventResult {
  uint64_t events = 0;
  double seconds = 0.0;
};

// Events capture what the simulation's real call sites capture: a couple of pointers plus a
// value (~32 bytes), within the scheduler's inline event storage.
EventResult RunSchedulerEvents(sim::QueueMode mode, uint64_t total, int batch) {
  sim::Scheduler scheduler(mode);
  EventResult out;
  uint64_t counter = 0;
  uint64_t sink = 0;
  auto start = std::chrono::steady_clock::now();
  while (out.events < total) {
    uint64_t before = scheduler.events_processed();
    for (int i = 0; i < batch; ++i) {
      auto delay = static_cast<SimDuration>(
          (static_cast<uint64_t>(i) * 2654435761ull) % static_cast<uint64_t>(Milliseconds(2)));
      scheduler.Post(delay, [&counter, &sink, &out, i] {
        counter += static_cast<uint64_t>(i) + sink + out.events;
      });
    }
    scheduler.Run();
    out.events += scheduler.events_processed() - before;
  }
  out.seconds = SecondsSince(start);
  if (counter == 0) std::printf("(unreachable)\n");
  return out;
}

// ---------------------------------------------------------------------------
// Zero-copy audit: exercise the client read paths and report the stats counters.
// ---------------------------------------------------------------------------

struct AuditResult {
  int64_t shared = 0;
  int64_t copies = 0;
};

AuditResult RunZeroCopyAudit() {
  sim::Scheduler scheduler;
  Rng rng{11};
  LatencyModels models;
  sharedlog::ShardedLog log_space;
  sharedlog::LogClient client{&scheduler,
                              &rng,
                              &models,
                              &log_space,
                              {nullptr},
                              nullptr,
                              sharedlog::AppendBatchConfig{.enabled = false},
                              /*read_cache=*/false};
  scheduler.Spawn([](sharedlog::LogClient* log) -> sim::Task<void> {
    for (int i = 0; i < 64; ++i) {
      FieldMap fields;
      fields.SetStr("op", "write");
      fields.SetInt("step", i);
      co_await log->Append(sharedlog::OneTag(std::string("t")), std::move(fields));
    }
    for (int i = 0; i < 64; ++i) {
      co_await log->ReadPrev("t", log->indexed_upto());
      co_await log->ReadNext("t", 1);
      co_await log->FindFirstByStep("t", "write", i);
    }
    co_await log->ReadStream("t");
  }(&client));
  scheduler.Run();
  return AuditResult{client.stats().read_record_shared, client.stats().read_record_copies};
}

// ---------------------------------------------------------------------------
// Advisor-drift section (DESIGN.md §11): the online cost-model advisor over a
// million-object keyspace whose hot set drifts from read-heavy to write-heavy.
// ---------------------------------------------------------------------------
//
// Direct-drive: the workload feeds the REAL hot-path sketch and the decisions run the REAL
// AdvisorDecision with the shipped dwell/token dampers, while log cost is accounted with the
// protocols' record-count model (HM-read: 2 records per write, reads log-free; HM-write: 1
// record per read, writes log-free; 2 records per §4.7 object switch). This keeps a
// 10^6-object sweep in benchmark time while measuring exactly the decision pipeline the
// runtime ships; the end-to-end byte gate on a real cluster is online_advisor_test.
struct AdvisorDriftResult {
  int64_t objects = 0;
  int64_t hot_objects = 0;
  size_t sketch_bytes = 0;
  int64_t advisor_bytes = 0;
  int64_t static_read_bytes = 0;
  int64_t static_write_bytes = 0;
  int64_t switches = 0;
  int64_t sweep_ticks = 0;  // Bounded keyspace-walk slices across both sweeps.
  int64_t ids_per_tick = 0;
  double wall_seconds = 0;
};

AdvisorDriftResult RunAdvisorDrift(double scale) {
  AdvisorDriftResult r;
  r.objects = std::max<int64_t>(1 << 16, static_cast<int64_t>(1'000'000 * scale));
  r.hot_objects = 4096;
  r.ids_per_tick = 65536;
  constexpr int64_t kRecordBytes = 96;   // Uniform record-size model; ratios are what matter.
  constexpr int64_t kMinOps = 16;
  constexpr double kMargin = 0.05;

  metrics::WorkloadSketchConfig sketch_config;
  sketch_config.width = 1 << 17;  // eps*N stays below kMinOps for the phase-B window.
  sketch_config.depth = 4;
  metrics::WorkloadSketch sketch(sketch_config);
  r.sketch_bytes = sketch.MemoryBytes();
  const size_t sketch_bytes_at_start = r.sketch_bytes;

  const double boundary = core::RuntimeBoundaryReadRatio(core::WorkloadProfile{});

  // Per-object protocol (advisor run): everyone starts on the HM-read default. Tracked
  // per-phase true counts feed the static-protocol cost model; the ADVISOR only ever sees
  // the sketch estimates.
  constexpr uint8_t kRead = 0, kWrite = 1;
  std::vector<uint8_t> protocol(static_cast<size_t>(r.objects), kRead);

  int64_t advisor_records = 0, static_read_records = 0, static_write_records = 0;

  // One workload phase: each hot object performs `hot_reads`+`hot_writes`, and (optionally)
  // every cold object one read. Costs accrue to all three accounting models at once.
  auto run_phase = [&](int hot_reads, int hot_writes, bool touch_cold) {
    for (int64_t o = 0; o < r.hot_objects; ++o) {
      const uint64_t id = static_cast<uint64_t>(o);
      for (int i = 0; i < hot_reads; ++i) sketch.RecordRead(id);
      for (int i = 0; i < hot_writes; ++i) sketch.RecordWrite(id);
      static_read_records += 2ll * hot_writes;
      static_write_records += hot_reads;
      advisor_records += protocol[o] == kRead ? 2ll * hot_writes : hot_reads;
    }
    if (touch_cold) {
      for (int64_t o = r.hot_objects; o < r.objects; ++o) {
        sketch.RecordRead(static_cast<uint64_t>(o));
        static_write_records += 1;  // HM-write logs every read; HM-read and advisor: free.
      }
    }
  };

  // One full advisor sweep: the bounded incremental walk over the whole keyspace, the
  // shipped decision rule, and the shipped dampers (dwell via last-switch epoch stamps, a
  // token bucket sized to admit the full hot set per sweep).
  int64_t sweep_epoch = 0;
  std::vector<int64_t> last_switch(static_cast<size_t>(r.objects), -1);
  double tokens = 2.0 * static_cast<double>(r.hot_objects);
  auto run_sweep = [&]() {
    ++sweep_epoch;
    for (int64_t cursor = 0; cursor < r.objects; cursor += r.ids_per_tick) {
      ++r.sweep_ticks;
      const int64_t end = std::min(r.objects, cursor + r.ids_per_tick);
      for (int64_t o = cursor; o < end; ++o) {
        const uint64_t id = static_cast<uint64_t>(o);
        std::optional<core::ProtocolKind> decision = core::AdvisorDecision(
            static_cast<int64_t>(sketch.EstimateReads(id)),
            static_cast<int64_t>(sketch.EstimateWrites(id)), boundary, kMargin, kMinOps);
        if (!decision.has_value()) continue;
        const uint8_t want =
            *decision == core::ProtocolKind::kHalfmoonRead ? kRead : kWrite;
        if (want == protocol[o]) continue;
        if (last_switch[o] == sweep_epoch) continue;  // Dwell: once per sweep window.
        if (tokens < 1.0) continue;
        tokens -= 1.0;
        last_switch[o] = sweep_epoch;
        protocol[o] = want;
        advisor_records += 2;  // BEGIN + END transition records.
        ++r.switches;
      }
    }
  };

  auto start = std::chrono::steady_clock::now();

  // Phase A: read-heavy hot set over the full keyspace; the sweep must leave everything on
  // the HM-read default.
  run_phase(/*hot_reads=*/180, /*hot_writes=*/20, /*touch_cold=*/true);
  run_sweep();
  // Count-min estimates only overcount, so over a million-object tail a few cold objects can
  // collide with hot buckets in every row and draw a spurious switch; the gate bounds that
  // tail (< 1/64 of the hot set) rather than demanding sketch exactness.
  const int64_t spurious_cap = r.hot_objects / 64;
  HM_CHECK_MSG(r.switches <= spurious_cap,
               "advisor switched objects on the read-heavy phase");

  // The mix drifts write-heavy: age out the old window, show one drift chunk, sweep (the
  // hot set flips to HM-write), then the write-heavy tail runs on the switched protocol.
  sketch.AdvanceEpoch();
  sketch.AdvanceEpoch();
  run_phase(/*hot_reads=*/5, /*hot_writes=*/45, /*touch_cold=*/false);
  run_sweep();
  for (int64_t o = 0; o < r.hot_objects; ++o) {
    HM_CHECK_MSG(protocol[o] == kWrite, "a hot object did not switch after the drift");
  }
  HM_CHECK_MSG(r.switches <= r.hot_objects + 2 * spurious_cap,
               "spurious cold-object switches exceeded the sketch-noise bound");
  run_phase(/*hot_reads=*/15, /*hot_writes=*/135, /*touch_cold=*/false);

  r.wall_seconds = SecondsSince(start);
  r.advisor_bytes = advisor_records * kRecordBytes;
  r.static_read_bytes = static_read_records * kRecordBytes;
  r.static_write_bytes = static_write_records * kRecordBytes;

  // The §4.6 gates: strictly fewer simulated log bytes than BOTH static assignments, a
  // bounded switch count, and sketch memory independent of the keyspace size.
  HM_CHECK_MSG(r.advisor_bytes < r.static_read_bytes,
               "advisor did not beat static Halfmoon-read");
  HM_CHECK_MSG(r.advisor_bytes < r.static_write_bytes,
               "advisor did not beat static Halfmoon-write");
  HM_CHECK_MSG(r.switches <= 2 * r.hot_objects, "switch count exceeded the cap");
  HM_CHECK_MSG(sketch.MemoryBytes() == sketch_bytes_at_start,
               "sketch memory grew with the keyspace");
  return r;
}

void Report() {
  double scale = BenchScale();
  const uint64_t event_total = static_cast<uint64_t>(2'000'000 * scale);
  const uint64_t intern_iters = static_cast<uint64_t>(4'000'000 * scale);
  constexpr int kEventBatch = 4096;

  std::printf("== Hot-path benchmark ==\n");

  // Section 1: the driven log-heavy shape — a real cluster under concurrent appenders.
  // Baseline = PR 2 configuration (per-request appends, binary-heap scheduler); candidate =
  // group commit + timer wheel. Committed content is asserted identical every pass.
  DrivenShape driven_shape;
  driven_shape.ops_per_worker =
      std::max(32, static_cast<int>(driven_shape.ops_per_worker * scale));
  RunDrivenLogHeavy(/*batched=*/true, DrivenShape{2, 8, 32});  // Warm-up.
  auto [pr2_driven, cur_driven] = BestOfDriven(5, driven_shape);

  // Sections 2 and 3: the append storm, 2 nodes x 256 workers. The 1-shard depth-1 run is
  // the baseline of both sections.
  DrivenShape storm_shape;
  storm_shape.nodes = 2;
  storm_shape.workers_per_node = 256;
  storm_shape.ops_per_worker = std::max(12, static_cast<int>(48 * scale));
  const StormResult one_shard = RunAppendStorm(/*shards=*/1, /*depth=*/1, storm_shape);

  // Section 2: shard scaling — four shards must scale throughput by at least 1.8x.
  StormResult four_shard = RunAppendStorm(/*shards=*/4, /*depth=*/1, storm_shape);
  HM_CHECK_MSG(one_shard.checksum == four_shard.checksum,
               "sharding changed committed log content");
  HM_CHECK(one_shard.appends == four_shard.appends);
  double one_shard_tput = one_shard.AppendsPerVsec();
  double four_shard_tput = four_shard.AppendsPerVsec();
  double shard_speedup = four_shard_tput / one_shard_tput;
  HM_CHECK_MSG(shard_speedup >= 1.8, "shard scaling fell below the 1.8x floor");

  // Section 3: pipelined group commit through one sequencer — depth 4 must commit the storm
  // at least 1.5x faster than the serial depth-1 engine.
  const StormResult& pipe_d1 = one_shard;
  StormResult pipe_d2 = RunAppendStorm(/*shards=*/1, /*depth=*/2, storm_shape);
  StormResult pipe_d4 = RunAppendStorm(/*shards=*/1, /*depth=*/4, storm_shape);
  StormResult pipe_d8 = RunAppendStorm(/*shards=*/1, /*depth=*/8, storm_shape);
  for (const StormResult* r : {&pipe_d2, &pipe_d4, &pipe_d8}) {
    HM_CHECK_MSG(pipe_d1.checksum == r->checksum,
                 "pipelining changed committed log content");
    HM_CHECK_MSG(pipe_d1.next_seqnum == r->next_seqnum,
                 "pipelining changed the committed record count");
    HM_CHECK(pipe_d1.appends == r->appends);
  }
  HM_CHECK_MSG(pipe_d1.rounds_overlapped == 0, "depth 1 overlapped rounds");
  double pipe_d1_tput = pipe_d1.AppendsPerVsec();
  double pipe_d2_tput = pipe_d2.AppendsPerVsec();
  double pipe_d4_tput = pipe_d4.AppendsPerVsec();
  double pipe_d8_tput = pipe_d8.AppendsPerVsec();
  double pipe_speedup = pipe_d4_tput / pipe_d1_tput;
  HM_CHECK_MSG(pipe_d4.rounds_overlapped > 0, "depth-4 pipeline never overlapped rounds");
  HM_CHECK_MSG(pipe_speedup >= 1.5, "pipelined group commit fell below the 1.5x floor");

  // Section 4: the node-local read cache on the Halfmoon-read log-free read mix (1 write
  // per 8 reads over shared objects). Cache-off is the reference; the cache must cut
  // simulated completion time, and the hit rate is the headline number.
  DrivenShape cache_shape;
  cache_shape.nodes = 4;
  cache_shape.workers_per_node = 16;
  cache_shape.ops_per_worker = std::max(32, static_cast<int>(128 * scale));
  CacheRunResult cache_on = RunReadCache(/*cache_enabled=*/true, cache_shape);
  CacheRunResult cache_off = RunReadCache(/*cache_enabled=*/false, cache_shape);
  HM_CHECK_MSG(cache_off.cache_hits == 0 && cache_off.cache_misses == 0,
               "read cache counters moved with the cache disabled");
  double cache_hit_rate =
      static_cast<double>(cache_on.cache_hits) /
      static_cast<double>(std::max<int64_t>(1, cache_on.cache_hits + cache_on.cache_misses));
  double cache_time_ratio =
      ToSecondsDouble(cache_off.end_time) / ToSecondsDouble(cache_on.end_time);
  // Also deterministic: the log-free read mix must hit the cache at least 60% of the time.
  HM_CHECK_MSG(cache_hit_rate >= 0.6, "read-cache hit rate fell below the 60% floor");

  // Section 5: tag-interning micro-section.
  TagInternResult intern = RunTagInternMicro(intern_iters);

  // Section 6: index-propagation coalescing on a real cluster. The reference run must be
  // observably identical (bit-identical virtual time and final replica state).
  int appends_per_node = std::max(16, static_cast<int>(64 * scale));
  PropagationResult coalesced = RunPropagation(/*coalesce=*/true, appends_per_node);
  PropagationResult reference = RunPropagation(/*coalesce=*/false, appends_per_node);
  HM_CHECK_MSG(coalesced.end_time == reference.end_time &&
                   coalesced.indexed_upto == reference.indexed_upto,
               "coalesced propagation changed observable simulation state");
  double coalescing_ratio = static_cast<double>(coalesced.commits) /
                            static_cast<double>(std::max<int64_t>(1, coalesced.ticks));

  // Section 7: binary-heap reference vs timer wheel on the same multi-level delay storm.
  EventResult pq_events = RunSchedulerEvents(sim::QueueMode::kPriorityQueue, event_total,
                                             kEventBatch);
  EventResult wheel_events = RunSchedulerEvents(sim::QueueMode::kTimerWheel, event_total,
                                                kEventBatch);

  // Section 8: zero-copy audit of the client read paths.
  AuditResult audit = RunZeroCopyAudit();
  HM_CHECK_MSG(audit.copies == 0, "read path copied a record");

  // Section 9: the online advisor over a drifting million-object keyspace (gates inside).
  AdvisorDriftResult drift = RunAdvisorDrift(scale);

  double pq_eps = static_cast<double>(pq_events.events) / pq_events.seconds;
  double wheel_eps = static_cast<double>(wheel_events.events) / wheel_events.seconds;
  double pr2_ops = static_cast<double>(pr2_driven.sim_ops) / pr2_driven.seconds;
  double cur_ops = static_cast<double>(cur_driven.sim_ops) / cur_driven.seconds;
  double pr2_epo = static_cast<double>(pr2_driven.events) /
                   static_cast<double>(std::max<uint64_t>(1, pr2_driven.sim_ops));
  double cur_epo = static_cast<double>(cur_driven.events) /
                   static_cast<double>(std::max<uint64_t>(1, cur_driven.sim_ops));
  double occupancy = static_cast<double>(cur_driven.batched_requests) /
                     static_cast<double>(std::max<int64_t>(1, cur_driven.append_rounds));

  std::printf("  log-heavy (driven): pr2 %.0f ops/s (%.2f ev/op), current %.0f ops/s"
              " (%.2f ev/op) (%.2fx)\n",
              pr2_ops, pr2_epo, cur_ops, cur_epo, cur_ops / pr2_ops);
  std::printf("  group commit: %lld requests over %lld rounds (%.2f occupancy)\n",
              static_cast<long long>(cur_driven.batched_requests),
              static_cast<long long>(cur_driven.append_rounds), occupancy);
  std::printf("  shard scaling: 1 shard %.0f appends/vsec, 4 shards %.0f appends/vsec"
              " (%.2fx)\n",
              one_shard_tput, four_shard_tput, shard_speedup);
  std::printf("  pipeline:    depth 1/2/4/8 = %.0f/%.0f/%.0f/%.0f appends/vsec (d4 %.2fx);"
              " max in-flight %lld, %lld overlapped rounds, controller +%lld/-%lld depth"
              " %lld/%lld window\n",
              pipe_d1_tput, pipe_d2_tput, pipe_d4_tput, pipe_d8_tput, pipe_speedup,
              static_cast<long long>(pipe_d4.max_inflight),
              static_cast<long long>(pipe_d4.rounds_overlapped),
              static_cast<long long>(pipe_d4.ctrl_raised),
              static_cast<long long>(pipe_d4.ctrl_lowered),
              static_cast<long long>(pipe_d4.ctrl_widened),
              static_cast<long long>(pipe_d4.ctrl_narrowed));
  std::printf("  read cache:  %.1f%% hit rate (%lld hits, %lld misses), %.2fx less"
              " simulated time; index-local reads %lld, storage reads %lld\n",
              cache_hit_rate * 100.0, static_cast<long long>(cache_on.cache_hits),
              static_cast<long long>(cache_on.cache_misses), cache_time_ratio,
              static_cast<long long>(cache_on.reads_index_local),
              static_cast<long long>(cache_on.reads_storage));
  std::printf("  timer wheel: pq %.0f ev/s, wheel %.0f ev/s (%.2fx)\n", pq_eps, wheel_eps,
              wheel_eps / pq_eps);
  std::printf("  tag intern:  string %.1f ns/op, interned %.1f ns/op (%.2fx); %lld requests"
              " -> %zu names\n",
              intern.string_ns, intern.interned_ns, intern.string_ns / intern.interned_ns,
              static_cast<long long>(intern.intern_requests), intern.distinct_tags);
  std::printf("  propagation: %lld commits -> %lld wake-ups (%.2fx coalescing)\n",
              static_cast<long long>(coalesced.commits),
              static_cast<long long>(coalesced.ticks), coalescing_ratio);
  std::printf("  zero-copy:   read_record_shared=%lld read_record_copies=%lld\n",
              static_cast<long long>(audit.shared), static_cast<long long>(audit.copies));
  std::printf("  advisor drift: %lld objects (%lld hot), advisor %lld B vs static-read"
              " %lld B / static-write %lld B (%.2fx / %.2fx), %lld switches, %lld ticks,"
              " sketch %zu B, %.2fs\n",
              static_cast<long long>(drift.objects),
              static_cast<long long>(drift.hot_objects),
              static_cast<long long>(drift.advisor_bytes),
              static_cast<long long>(drift.static_read_bytes),
              static_cast<long long>(drift.static_write_bytes),
              static_cast<double>(drift.static_read_bytes) /
                  static_cast<double>(drift.advisor_bytes),
              static_cast<double>(drift.static_write_bytes) /
                  static_cast<double>(drift.advisor_bytes),
              static_cast<long long>(drift.switches),
              static_cast<long long>(drift.sweep_ticks), drift.sketch_bytes,
              drift.wall_seconds);

  FILE* json = std::fopen("BENCH_hotpath.json", "w");
  HM_CHECK(json != nullptr);
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"hotpath\",\n"
               "  \"log_heavy\": {\"pr2_sim_ops_per_sec\": %.1f,\n"
               "                \"optimized_sim_ops_per_sec\": %.1f, \"sim_ops\": %llu,\n"
               "                \"pr2_events_per_op\": %.2f, \"optimized_events_per_op\": %.2f,\n"
               "                \"append_rounds\": %lld, \"batched_requests\": %lld,\n"
               "                \"batch_occupancy\": %.2f},\n"
               "  \"speedup_vs_pr2\": %.3f,\n"
               "  \"shard_scaling\": {\"one_shard_appends_per_vsec\": %.1f,\n"
               "                   \"four_shard_appends_per_vsec\": %.1f,\n"
               "                   \"speedup\": %.3f, \"appends\": %llu,\n"
               "                   \"one_shard_rounds\": %lld, \"four_shard_rounds\": %lld},\n"
               "  \"pipeline\": {\"depth1_appends_per_vsec\": %.1f,\n"
               "               \"depth2_appends_per_vsec\": %.1f,\n"
               "               \"depth4_appends_per_vsec\": %.1f,\n"
               "               \"depth8_appends_per_vsec\": %.1f, \"speedup\": %.3f,\n"
               "               \"appends\": %llu, \"depth4_rounds\": %lld,\n"
               "               \"rounds_overlapped\": %lld, \"max_inflight\": %lld,\n"
               "               \"ctrl_depth_raised\": %lld, \"ctrl_depth_lowered\": %lld,\n"
               "               \"ctrl_window_widened\": %lld, \"ctrl_window_narrowed\": %lld,\n"
               "               \"gate\": \"speedup >= 1.5, checksum depth-invariant\"},\n"
               "  \"read_cache\": {\"hit_rate\": %.3f, \"hits\": %lld, \"misses\": %lld,\n"
               "                 \"sim_time_ratio\": %.3f, \"reads_index_local\": %lld,\n"
               "                 \"reads_storage\": %lld},\n"
               "  \"timer_wheel\": {\"pq_events_per_sec\": %.1f,\n"
               "                  \"wheel_events_per_sec\": %.1f, \"speedup\": %.3f},\n"
               "  \"tag_intern\": {\"string_ns_per_op\": %.2f, \"interned_ns_per_op\": %.2f,\n"
               "                 \"speedup\": %.3f, \"intern_requests\": %lld,\n"
               "                 \"distinct_tags\": %zu},\n"
               "  \"propagation\": {\"commits\": %lld, \"ticks\": %lld,\n"
               "                  \"coalescing_ratio\": %.3f},\n"
               "  \"advisor_drift\": {\"objects\": %lld, \"hot_objects\": %lld,\n"
               "                   \"advisor_bytes\": %lld, \"static_read_bytes\": %lld,\n"
               "                   \"static_write_bytes\": %lld, \"switches\": %lld,\n"
               "                   \"sweep_ticks\": %lld, \"ids_per_tick\": %lld,\n"
               "                   \"sketch_bytes\": %zu, \"gate\": \"advisor < both statics\"},\n"
               "  \"read_record_shared\": %lld,\n"
               "  \"read_record_copies\": %lld\n"
               "}\n",
               pr2_ops, cur_ops, static_cast<unsigned long long>(cur_driven.sim_ops),
               pr2_epo, cur_epo, static_cast<long long>(cur_driven.append_rounds),
               static_cast<long long>(cur_driven.batched_requests), occupancy,
               cur_ops / pr2_ops, one_shard_tput, four_shard_tput, shard_speedup,
               static_cast<unsigned long long>(four_shard.appends),
               static_cast<long long>(one_shard.append_rounds),
               static_cast<long long>(four_shard.append_rounds),
               pipe_d1_tput, pipe_d2_tput, pipe_d4_tput, pipe_d8_tput, pipe_speedup,
               static_cast<unsigned long long>(pipe_d4.appends),
               static_cast<long long>(pipe_d4.append_rounds),
               static_cast<long long>(pipe_d4.rounds_overlapped),
               static_cast<long long>(pipe_d4.max_inflight),
               static_cast<long long>(pipe_d4.ctrl_raised),
               static_cast<long long>(pipe_d4.ctrl_lowered),
               static_cast<long long>(pipe_d4.ctrl_widened),
               static_cast<long long>(pipe_d4.ctrl_narrowed),
               cache_hit_rate,
               static_cast<long long>(cache_on.cache_hits),
               static_cast<long long>(cache_on.cache_misses), cache_time_ratio,
               static_cast<long long>(cache_on.reads_index_local),
               static_cast<long long>(cache_on.reads_storage),
               pq_eps, wheel_eps, wheel_eps / pq_eps,
               intern.string_ns, intern.interned_ns, intern.string_ns / intern.interned_ns,
               static_cast<long long>(intern.intern_requests), intern.distinct_tags,
               static_cast<long long>(coalesced.commits),
               static_cast<long long>(coalesced.ticks), coalescing_ratio,
               static_cast<long long>(drift.objects),
               static_cast<long long>(drift.hot_objects),
               static_cast<long long>(drift.advisor_bytes),
               static_cast<long long>(drift.static_read_bytes),
               static_cast<long long>(drift.static_write_bytes),
               static_cast<long long>(drift.switches),
               static_cast<long long>(drift.sweep_ticks),
               static_cast<long long>(drift.ids_per_tick), drift.sketch_bytes,
               static_cast<long long>(audit.shared), static_cast<long long>(audit.copies));
  std::fclose(json);
  std::printf("  wrote BENCH_hotpath.json\n");
}

}  // namespace
}  // namespace halfmoon::bench

int main() {
  halfmoon::bench::Report();
  return 0;
}
