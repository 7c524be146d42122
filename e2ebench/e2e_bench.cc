// End-to-end benchmark of the Halfmoon SSF stack: the paper's application workflows (travel,
// movie, retwis; §6.2) running through runtime::Cluster + core::SsfRuntime + GC on ONE
// simulation thread, under open-loop Poisson load.
//
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--short]
//             [--expect-checksum HEX] [--out-dir DIR]
//
// A run repeats one deterministic "rep" (fresh cluster at the run's seed, set-up, simulated
// warm-up, measured window, drain, post-drain checks) until --seconds of host time have passed.
// Every metric is labelled with its kind:
//   * sim  — simulated time or counts; identical in every rep at one seed (checked: a rep whose
//            simulated fingerprint differs from the first fails the run), so they are exact;
//   * host — wall-clock cost of running the simulator; reported as the median over reps.
// The last stdout line is one JSON object {correct, attempted, failed, metrics}: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics.
//
// Every layer is measured from outside: by timing and counting the benchmark's own calls into
// public entry points (SsfRuntime::InvokeSsf, LogClient/KvClient probes, GcService::RunOnce,
// Cluster::KillRestartStorage, Scheduler::RunUntil) and by reading public stats accessors. The
// --trace 1 run adds samplers and probes (which draw from the cluster RNG, so its simulation
// diverges from the untraced one by design), keeps spans in memory and writes them to
// <out-dir>/trace-<workload>-seed<N>.jsonl when it ends. It also runs untraced reps in the same
// process, which give the host-cost layer metrics and the tracing overhead.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "e2ebench/alloc_counter.h"
#include "src/core/gc_service.h"
#include "src/core/online_advisor.h"
#include "src/core/ssf_runtime.h"
#include "src/core/switch_manager.h"
#include "src/metrics/latency_recorder.h"
#include "src/runtime/cluster.h"
#include "src/workloads/applications.h"
#include "src/workloads/args.h"

extern char** environ;

namespace halfmoon::e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr uint64_t kDefaultSeed = 1;
// Never used while the benchmark was tuned; later performance claims must also hold here.
constexpr uint64_t kHeldOutSeed = 7919;
constexpr SimDuration kGcInterval = Seconds(10);
// A step has no growing backlog when every request it offered completed within the step plus
// this allowance.
constexpr SimDuration kDrainAllowance = Seconds(1);
constexpr SimDuration kSliceLength = Milliseconds(100);  // One RunUntil slice.
constexpr int kExtraSetups = 10;  // Set-up-only reps per run, for the setup_s median.

// ---------------------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------------------

struct Step {
  double rate;  // Offered requests per simulated second.
  SimDuration duration;
};

struct WorkloadSpec {
  std::string name;
  std::string app;  // "travel" | "movie" | "retwis"
  core::ProtocolKind protocol = core::ProtocolKind::kHalfmoonRead;
  bool durable = false;
  bool checkpoint = false;
  int64_t checkpoint_trigger_bytes = 0;
  bool advisor = false;
  SimDuration warmup = Seconds(2);  // At the first step's rate, before the measured window.
  std::vector<Step> steps;          // The measured window: offered-rate steps, back to back.
  size_t latency_step = 0;          // Step whose requests give the latency metrics.
  double slo_p99_ms = 0;            // Latency limit of max_rate_at_slo.
  int kills = 0;                    // KillRestartStorage calls after the load drains.
};

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> out;

  // Read-dominated traffic on the log-free read path, volatile tier: the bypass workload for
  // storage, checkpoint and advisor changes. ~75% of the ~1,050 req/s knee.
  WorkloadSpec travel;
  travel.name = "travel-hmread";
  travel.app = "travel";
  travel.protocol = core::ProtocolKind::kHalfmoonRead;
  travel.steps = {Step{800, Seconds(100)}};
  travel.slo_p99_ms = 80;
  out.push_back(travel);

  // Write path through the same layers: every read logged, conditional KV writes, journal
  // group flushes, checkpoint walks, and post-drain recovery. ~75% of the ~650 req/s knee.
  WorkloadSpec movie;
  movie.name = "movie-hmwrite-durable";
  movie.app = "movie";
  movie.protocol = core::ProtocolKind::kHalfmoonWrite;
  movie.durable = true;
  movie.checkpoint = true;
  movie.checkpoint_trigger_bytes = 16 << 20;
  movie.steps = {Step{500, Seconds(60)}};
  movie.slo_p99_ms = 100;
  movie.kills = 3;
  out.push_back(movie);

  // The queueing regime: offered rate steps from ~60% of capacity to past the ~2,000 req/s
  // knee, with the online advisor sketching every access.
  WorkloadSpec retwis;
  retwis.name = "retwis-ramp";
  retwis.app = "retwis";
  retwis.protocol = core::ProtocolKind::kHalfmoonRead;
  retwis.advisor = true;
  // The latency step runs longest: its p99.9 needs tens of thousands of samples.
  // Steps sit clear of the fuzzy zone just below the knee (p99 at 1,800 req/s crosses the
  // limit on some seeds), so max_rate_at_slo does not flip between seeds.
  retwis.steps = {Step{1200, Seconds(40)}, Step{1400, Seconds(8)}, Step{1600, Seconds(8)},
                  Step{2000, Seconds(8)}, Step{2200, Seconds(8)}};
  retwis.latency_step = 0;
  retwis.slo_p99_ms = 50;
  out.push_back(retwis);
  return out;
}

// --short: a tenth of every simulated duration (and of the checkpoint trigger, so rounds still
// complete), for the benchmark's own self-test.
WorkloadSpec Shorten(WorkloadSpec spec) {
  spec.warmup /= 10;
  for (Step& s : spec.steps) s.duration /= 10;
  spec.checkpoint_trigger_bytes /= 10;
  if (spec.kills > 0) spec.kills = 2;
  return spec;
}

// ---------------------------------------------------------------------------------------
// The program under test, pinned
// ---------------------------------------------------------------------------------------

// Environment knobs that the library's config default member initializers read. Any of them
// would silently change the program being measured, so the benchmark refuses to run.
bool RefuseProgramEnv() {
  static const char* const kPrefixes[] = {"HM_SHARDS=",     "HM_PIPELINE=", "HM_BATCH_",
                                          "HM_DURABLE=",    "HM_CHECKPOINT", "HM_ADVISOR=",
                                          "HM_PARALLEL=",   "HM_BENCH_SCALE="};
  bool refused = false;
  for (char** env = environ; *env != nullptr; ++env) {
    for (const char* prefix : kPrefixes) {
      if (std::strncmp(*env, prefix, std::strlen(prefix)) == 0) {
        std::fprintf(stderr, "e2e_bench: refusing to run with %s set (it changes the program "
                             "under test; unset it)\n", *env);
        refused = true;
      }
    }
  }
  return refused;
}

runtime::ClusterConfig PinnedClusterConfig(const WorkloadSpec& spec, uint64_t seed) {
  runtime::ClusterConfig c;
  c.function_nodes = 8;
  c.workers_per_node = 16;
  c.sequencer_servers = 6;
  c.storage_servers = 12;
  c.log_shards = 1;
  c.log_read_cache = false;
  // Fig. 11 calibration: the external store binds capacity (EXPERIMENTS.md).
  c.db_servers = 4;
  c.model_queueing = true;
  c.coalesce_index_propagation = true;
  c.group_commit_appends = true;
  c.append_batch_window = 0;
  c.append_batch_max = 64;
  c.append_batch_pipeline = 1;
  c.queue_mode = sim::QueueMode::kTimerWheel;
  c.durable = spec.durable;
  c.checkpoint = spec.checkpoint;
  c.checkpoint_slice = 4096;
  c.checkpoint_trigger_bytes = spec.checkpoint_trigger_bytes;
  c.seed = seed;
  return c;
}

core::RuntimeConfig PinnedRuntimeConfig(const WorkloadSpec& spec) {
  core::RuntimeConfig r;
  r.default_protocol = spec.protocol;
  r.enable_switching = false;
  r.switch_scope = "global";
  r.retry_delay = Milliseconds(1);
  r.max_attempts = 200;
  r.duplicate_delay = Milliseconds(5);
  r.inherit_child_cursor = true;
  r.preserve_write_order = false;
  r.drop_commit_append = false;
  r.advisor = spec.advisor;
  return r;
}

void PrintConfig(const WorkloadSpec& spec, uint64_t seed) {
  runtime::ClusterConfig c = PinnedClusterConfig(spec, seed);
  core::RuntimeConfig r = PinnedRuntimeConfig(spec);
  std::printf("config: app=%s protocol=%s function_nodes=%d workers_per_node=%d "
              "sequencer_servers=%d storage_servers=%d db_servers=%d log_shards=%d "
              "pipeline=%d batch_window_us=%lld batch_max=%d read_cache=%d durable=%d "
              "checkpoint=%d checkpoint_trigger_bytes=%lld checkpoint_slice=%lld advisor=%d "
              "gc_interval_s=%.0f seed=%llu held_out_seed=%llu hardware_threads=%u\n",
              spec.app.c_str(), core::ProtocolName(r.default_protocol), c.function_nodes,
              c.workers_per_node, c.sequencer_servers, c.storage_servers, c.db_servers,
              c.log_shards, c.append_batch_pipeline,
              static_cast<long long>(c.append_batch_window / 1000), c.append_batch_max,
              c.log_read_cache, c.durable, c.checkpoint,
              static_cast<long long>(c.checkpoint_trigger_bytes),
              static_cast<long long>(c.checkpoint_slice), r.advisor,
              ToSecondsDouble(kGcInterval), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(kHeldOutSeed),
              std::thread::hardware_concurrency());
  std::printf("steps:");
  for (const Step& s : spec.steps) {
    std::printf(" %.0freq/s x %.1fs", s.rate, ToSecondsDouble(s.duration));
  }
  std::printf(" (warm-up %.1fs, latency from step %zu, slo p99 <= %.0f ms)\n",
              ToSecondsDouble(spec.warmup), spec.latency_step, spec.slo_p99_ms);
}

// ---------------------------------------------------------------------------------------
// Content checksum (movie-hmwrite-durable): FNV-1a over every live log stream and the KV
// latest slots of every key the workload can have touched.
// ---------------------------------------------------------------------------------------

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}
uint64_t FnvU64(uint64_t h, uint64_t v) { return FnvBytes(h, &v, sizeof(v)); }
uint64_t FnvStr(uint64_t h, const std::string& s) { return FnvBytes(h, s.data(), s.size()); }

uint64_t ContentChecksum(runtime::Cluster& cluster, const std::set<std::string>& kv_keys) {
  sharedlog::ShardedLog& log = cluster.log_space();
  uint64_t combined = 0;  // Per-stream hashes XOR-combined: independent of tag order.
  for (sharedlog::TagId tag : log.LiveTagsWithPrefix("")) {
    uint64_t h = FnvStr(kFnvOffset, log.tags().Name(tag));
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
  kvstore::KvState& kv = cluster.kv_state();
  uint64_t kv_hash = FnvU64(kFnvOffset, log.next_seqnum());
  kv_hash = FnvU64(kv_hash, kv.key_count());
  for (const std::string& key : kv_keys) {
    kv_hash = FnvStr(kv_hash, key);
    std::optional<Value> value = kv.Get(key);
    kv_hash = FnvStr(kv_hash, value.has_value() ? *value : std::string("<missing>"));
    std::optional<kvstore::VersionTuple> version = kv.GetVersion(key);
    kv_hash = FnvU64(kv_hash, version.has_value() ? version->cursor_ts : ~0ull);
    kv_hash = FnvU64(kv_hash, version.has_value() ? version->counter : ~0ull);
  }
  for (sharedlog::TagId object : log.LiveTagsWithPrefix(sharedlog::kWriteLogPrefix)) {
    kv_hash = FnvU64(kv_hash, object);
    kv_hash = FnvU64(kv_hash, kv.VersionCount(object));
  }
  return combined ^ kv_hash;
}

std::string Id(const char* prefix, int64_t i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%04lld", prefix, static_cast<long long>(i));
  return buf;
}

// Every KV key the movie app can touch: its dataset plus the keys named by each request.
void AddMovieDatasetKeys(const workloads::AppDataset& data, std::set<std::string>* keys) {
  for (int i = 0; i < data.movies; ++i) {
    keys->insert("movie:" + Id("m", i));
    keys->insert("movie-reviews:" + Id("m", i));
    keys->insert("movie-stats:" + Id("m", i));
  }
  for (int i = 0; i < data.users; ++i) {
    keys->insert("muser:" + Id("u", i));
    keys->insert("user-reviews:" + Id("u", i));
  }
}
void AddMovieRequestKeys(const Value& input, std::set<std::string>* keys) {
  workloads::Args args = workloads::Args::Parse(input);
  const std::string& rid = args.Get("rid");
  keys->insert("movie:" + args.Get("movie"));
  keys->insert("movie-reviews:" + args.Get("movie"));
  keys->insert("review-id:" + rid);
  keys->insert("review:" + rid);
  for (const char* part : {":user", ":movie", ":text", ":rating"}) {
    keys->insert("review:" + rid + part);
  }
}

// ---------------------------------------------------------------------------------------
// Tracing (--trace 1): spans and counter snapshots kept in memory, written when the run ends.
// ---------------------------------------------------------------------------------------

struct Span {
  uint64_t trace;
  uint64_t id;
  uint64_t parent;
  std::string name;
  bool host;  // Host clock (ns since the rep started) vs simulated clock (ns).
  int64_t start;
  int64_t end;
};

struct Snapshot {
  SimTime t;
  uint64_t events;
  int64_t completed;
  int64_t log_appends;
  int64_t log_reads;
  int64_t db_ops;
  int64_t logged_bytes;
  size_t live_records;
  int64_t queued;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  uint64_t NewId() { return ++last_id_; }
  void AddSim(uint64_t trace, uint64_t id, uint64_t parent, std::string name, SimTime start,
              SimTime end) {
    spans_.push_back(Span{trace, id, parent, std::move(name), false, start, end});
  }
  void AddHost(uint64_t id, uint64_t parent, std::string name, Clock::time_point start,
               Clock::time_point end) {
    spans_.push_back(Span{0, id, parent, std::move(name), true, HostNs(start), HostNs(end)});
  }
  void AddSnapshot(const Snapshot& s) { snapshots_.push_back(s); }

  bool Write(const std::string& path, const std::string& workload, uint64_t seed) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"type\":\"run\",\"workload\":\"%s\",\"seed\":%" PRIu64 "}\n",
                 workload.c_str(), seed);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"type\":\"span\",\"trace\":%" PRIu64 ",\"span\":%" PRIu64
                   ",\"parent\":%" PRIu64 ",\"name\":\"%s\",\"clock\":\"%s\",\"start_ns\":%" PRId64
                   ",\"end_ns\":%" PRId64 "}\n",
                   s.trace, s.id, s.parent, s.name.c_str(), s.host ? "host" : "sim", s.start,
                   s.end);
    }
    for (const Snapshot& s : snapshots_) {
      std::fprintf(f,
                   "{\"type\":\"counters\",\"clock\":\"sim\",\"t_ns\":%" PRId64
                   ",\"events\":%" PRIu64 ",\"completed\":%" PRId64 ",\"log_appends\":%" PRId64
                   ",\"log_reads\":%" PRId64 ",\"db_ops\":%" PRId64 ",\"logged_bytes\":%" PRId64
                   ",\"live_records\":%zu,\"worker_queue\":%" PRId64 "}\n",
                   s.t, s.events, s.completed, s.log_appends, s.log_reads, s.db_ops,
                   s.logged_bytes, s.live_records, s.queued);
    }
    return std::fclose(f) == 0;
  }

 private:
  int64_t HostNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Clock::time_point origin_;
  uint64_t last_id_ = 0;
  std::vector<Span> spans_;
  std::vector<Snapshot> snapshots_;
};

// ---------------------------------------------------------------------------------------
// One rep
// ---------------------------------------------------------------------------------------

struct StepResult {
  double rate = 0;
  SimTime start = 0;
  SimTime end = 0;
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t late = 0;  // Completed after end + kDrainAllowance: a growing backlog.
  metrics::LatencyRecorder latency;
  double queue_sum = 0;  // Worker-queue samples (traced reps).
  int64_t queue_samples = 0;

  bool MeetsSlo(double slo_ms) const {
    return completed == offered && late == 0 && latency.P99Ms() <= slo_ms;
  }
  double CompletedPerSimSecond() const {
    return static_cast<double>(completed) / ToSecondsDouble(end - start);
  }
  double QueueMean() const {
    return queue_samples == 0 ? 0.0 : queue_sum / static_cast<double>(queue_samples);
  }
};

// Counters folded over the cluster at one instant; the window's figures are deltas.
struct Counters {
  uint64_t events = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  int64_t completed = 0;
  sharedlog::LogClientStats log;
  int64_t kv_cond_writes = 0;
  int64_t kv_cond_rejects = 0;
  int64_t db_ops = 0;
  int64_t logged_bytes = 0;
  int64_t control_bytes = 0;
  int64_t root_invocations = 0;
  int64_t attempts = 0;
  int64_t index_ticks = 0;
  int64_t index_commits = 0;
  int64_t advisor_evaluated = 0;
  storage::DurabilityService::Stats log_dur;
  storage::DurabilityService::Stats kv_dur;
};

struct RepResult {
  bool traced = false;
  double setup_s = 0;
  double window_s = 0;  // Host seconds from the end of warm-up until the load drained.
  SimDuration window_sim = 0;
  Counters before;
  Counters after;
  int64_t offered = 0;  // Whole rep, warm-up included.
  int64_t completed = 0;
  std::vector<StepResult> steps;
  double max_rate_at_slo = 0;

  // Sampled (traced reps).
  int64_t worker_queue_max = 0;
  double worker_queue_mean = 0;
  double worker_busy_fraction = 0;
  size_t tracking_entries_max = 0;
  size_t live_records_max = 0;
  size_t index_entries_max = 0;
  metrics::LatencyRecorder probe_append, probe_read_prev, probe_get, probe_cond_put;

  std::vector<double> gc_scan_ms;
  core::GcStats gc;
  int64_t advisor_switches = 0;
  int64_t advisor_evaluated = 0;
  size_t sketch_bytes = 0;
  int64_t read_record_copies = 0;

  // Durable tier (zero when absent).
  bool durable = false;
  int64_t ckpt_rounds = 0;
  int64_t ckpt_image_frames = 0;
  double write_amplification = 0;
  double retained_journal_mb = 0;
  std::vector<double> kill_s;
  int64_t recovery_suffix_frames = 0;
  int64_t recovery_image_frames = 0;
  uint64_t checksum = 0;

  std::vector<std::string> failures;

  int64_t WindowCompleted() const { return after.completed - before.completed; }
  double InvocationsPerSecond() const {
    return static_cast<double>(WindowCompleted()) / window_s;
  }
  double PerInvocation(int64_t delta) const {
    return WindowCompleted() == 0 ? 0.0
                                  : static_cast<double>(delta) /
                                        static_cast<double>(WindowCompleted());
  }
  const StepResult& latency_step(const WorkloadSpec& spec) const {
    return steps[spec.latency_step];
  }
  double LoggedBytesPerInvocation() const {
    return PerInvocation(after.logged_bytes - before.logged_bytes);
  }
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

class Rep {
 public:
  Rep(const WorkloadSpec& spec, uint64_t seed, Tracer* tracer)
      : spec_(spec),
        tracer_(tracer),
        rep_start_(Clock::now()),
        cluster_(PinnedClusterConfig(spec, seed)),
        runtime_(&cluster_, PinnedRuntimeConfig(spec)),
        gc_(&cluster_, kGcInterval),
        // Arrival gaps have their own stream: the program receives only the generated inputs.
        arrivals_(seed * 0x9E3779B97F4A7C15ull + 0x5EED) {
    result_.traced = tracer != nullptr;
    result_.durable = spec.durable;
    for (const Step& s : spec.steps) {
      StepResult step;
      step.rate = s.rate;
      result_.steps.push_back(std::move(step));
    }
  }

  // Set-up only: builds and warms up the cluster, then ends the load early and drains.
  // Returns the set-up seconds.
  double SetupOnly();
  RepResult Run(std::optional<uint64_t> expect_checksum);

 private:
  void Setup();
  void Quiesce();
  Counters Snap();
  int PhaseAt(SimTime t) const;
  sim::Task<void> Offer();
  sim::Task<void> Fire(std::string name, Value input, int phase, uint64_t trace_id);
  sim::Task<void> GcLoop();
  sim::Task<void> SampleWorkers();
  sim::Task<void> SampleState();
  sim::Task<void> Probe();
  void DriveUntil(SimTime deadline);
  void DriveUntilDrained();
  void PostDrainChecks(std::optional<uint64_t> expect_checksum);
  void Fail(std::string why) { result_.failures.push_back(std::move(why)); }

  const WorkloadSpec& spec_;
  Tracer* tracer_;
  uint64_t rep_span_ = 0;
  Clock::time_point rep_start_;
  runtime::Cluster cluster_;
  core::SsfRuntime runtime_;
  core::GcService gc_;
  std::unique_ptr<core::SwitchManager> switcher_;
  std::unique_ptr<core::OnlineAdvisor> advisor_;
  Rng arrivals_;
  workloads::RequestFactory factory_;
  std::set<std::string> kv_keys_;

  SimTime window_start_ = 0;  // End of warm-up.
  SimTime load_end_ = 0;
  bool measuring_ = false;
  bool stop_offering_ = false;  // Ends the load early (set-up-only reps).
  bool drained_ = false;
  bool stop_daemons_ = false;
  uint64_t next_trace_ = 0;
  double busy_sum_ = 0;
  int64_t busy_samples_ = 0;
  RepResult result_;
};

Counters Rep::Snap() {
  Counters c;
  c.events = cluster_.scheduler().events_processed();
  const AllocCount allocs = Allocations();
  c.allocs = allocs.calls;
  c.alloc_bytes = allocs.bytes;
  c.completed = result_.completed;
  for (int i = 0; i < cluster_.node_count(); ++i) {
    c.log.Add(cluster_.node(i).log().stats());
    c.kv_cond_writes += cluster_.node(i).kv().stats().cond_writes;
    c.kv_cond_rejects += cluster_.node(i).kv().stats().cond_write_rejects;
  }
  c.db_ops = cluster_.TotalDbOps();
  c.logged_bytes = cluster_.TotalLoggedBytes();
  c.control_bytes = cluster_.TotalLoggedBytesByClass(0);
  c.root_invocations = runtime_.stats().invocations;
  c.attempts = runtime_.stats().attempts;
  c.index_ticks = cluster_.index_propagation_ticks();
  c.index_commits = cluster_.index_propagation_commits();
  if (advisor_ != nullptr) c.advisor_evaluated = advisor_->stats().objects_evaluated;
  if (cluster_.log_durability() != nullptr) c.log_dur = cluster_.log_durability()->stats();
  if (cluster_.kv_durability() != nullptr) c.kv_dur = cluster_.kv_durability()->stats();
  return c;
}

int Rep::PhaseAt(SimTime t) const {
  if (t < window_start_) return -1;
  SimTime end = window_start_;
  for (size_t i = 0; i < spec_.steps.size(); ++i) {
    end += spec_.steps[i].duration;
    if (t < end) return static_cast<int>(i);
  }
  return -2;  // Past the measured window.
}

sim::Task<void> Rep::Offer() {
  sim::Scheduler& scheduler = cluster_.scheduler();
  while (true) {
    SimTime now = scheduler.Now();
    int phase = PhaseAt(now);
    if (phase == -2 || stop_offering_) break;
    auto [name, input] = factory_();
    if (spec_.app == "movie") AddMovieRequestKeys(input, &kv_keys_);
    ++result_.offered;
    if (phase >= 0) ++result_.steps[phase].offered;
    scheduler.Spawn(Fire(std::move(name), std::move(input), phase, ++next_trace_));
    double rate = spec_.steps[phase < 0 ? 0 : phase].rate;
    auto gap = static_cast<SimDuration>(arrivals_.Exponential(1.0 / rate) * 1e9);
    co_await scheduler.Delay(gap);
  }
  co_await runtime_.inflight().Wait();
  drained_ = true;
}

sim::Task<void> Rep::Fire(std::string name, Value input, int phase, uint64_t trace_id) {
  sim::Scheduler& scheduler = cluster_.scheduler();
  // Open loop: the spawn happens exactly when the request is due, so latency counts from the
  // due time and the generator is never late.
  SimTime due = scheduler.Now();
  std::string span_name = tracer_ != nullptr ? name : std::string();
  co_await runtime_.InvokeSsf(std::move(name), std::move(input));
  SimTime done = scheduler.Now();
  ++result_.completed;
  if (phase >= 0) {
    StepResult& step = result_.steps[phase];
    ++step.completed;
    step.latency.Record(done - due);
    if (done > step.end + kDrainAllowance) ++step.late;
  }
  if (tracer_ != nullptr) {
    tracer_->AddSim(trace_id, tracer_->NewId(), 0, "invoke:" + span_name, due, done);
  }
}

sim::Task<void> Rep::GcLoop() {
  sim::Scheduler& scheduler = cluster_.scheduler();
  while (true) {
    co_await scheduler.Delay(kGcInterval);
    if (stop_daemons_) co_return;
    Clock::time_point t0 = Clock::now();
    gc_.RunOnce();
    Clock::time_point t1 = Clock::now();
    result_.gc_scan_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (tracer_ != nullptr) {
      tracer_->AddHost(tracer_->NewId(), rep_span_, "gc.run_once", t0, t1);
    }
  }
}

// Worker pools, every simulated millisecond of the measured window.
sim::Task<void> Rep::SampleWorkers() {
  sim::Scheduler& scheduler = cluster_.scheduler();
  const int64_t total_workers =
      static_cast<int64_t>(cluster_.node_count()) * cluster_.config().workers_per_node;
  while (!stop_daemons_) {
    co_await scheduler.Delay(Milliseconds(1));
    int phase = PhaseAt(scheduler.Now());
    if (!measuring_ || phase < 0) continue;
    int64_t queued = 0;
    int64_t free_workers = 0;
    for (int i = 0; i < cluster_.node_count(); ++i) {
      queued += static_cast<int64_t>(cluster_.node(i).workers().queue_length());
      free_workers += cluster_.node(i).workers().available();
    }
    StepResult& step = result_.steps[phase];
    step.queue_sum += static_cast<double>(queued);
    ++step.queue_samples;
    result_.worker_queue_max = std::max(result_.worker_queue_max, queued);
    busy_sum_ += static_cast<double>(total_workers - free_workers) /
                 static_cast<double>(total_workers);
    ++busy_samples_;
  }
}

// Slower-moving state, every 100 simulated ms, plus a counter snapshot every second.
sim::Task<void> Rep::SampleState() {
  sim::Scheduler& scheduler = cluster_.scheduler();
  int64_t ticks = 0;
  while (!stop_daemons_) {
    co_await scheduler.Delay(Milliseconds(100));
    if (!measuring_) continue;
    result_.tracking_entries_max =
        std::max(result_.tracking_entries_max, cluster_.live_tracking_entries());
    result_.live_records_max =
        std::max(result_.live_records_max, cluster_.log_space().live_records());
    result_.index_entries_max =
        std::max(result_.index_entries_max, cluster_.log_space().IndexEntries());
    if (++ticks % 10 == 0) {
      int64_t queued = 0;
      for (int i = 0; i < cluster_.node_count(); ++i) {
        queued += static_cast<int64_t>(cluster_.node(i).workers().queue_length());
      }
      tracer_->AddSnapshot(Snapshot{scheduler.Now(), scheduler.events_processed(),
                                    result_.completed, cluster_.TotalLogAppends(),
                                    cluster_.TotalLogReads(),
                                    cluster_.TotalDbOps(), cluster_.TotalLoggedBytes(),
                                    cluster_.log_space().live_records(), queued});
    }
  }
}

// Low-rate probes of the log and KV layers from node 0, on a probe tag and a probe key that no
// application touches. Each tick is one probe trace with four child spans.
sim::Task<void> Rep::Probe() {
  sim::Scheduler& scheduler = cluster_.scheduler();
  runtime::FunctionNode& node = cluster_.node(0);
  const sharedlog::TagId tag = node.log().tags().Intern("e2ebench.probe");
  const std::string key = "e2ebench.probe";
  uint64_t n = 0;
  while (!stop_daemons_) {
    co_await scheduler.Delay(Milliseconds(20));
    if (!measuring_) continue;
    ++n;
    const uint64_t trace = (uint64_t{1} << 40) + n;
    const uint64_t root = tracer_->NewId();
    const SimTime t0 = scheduler.Now();

    FieldMap fields;
    fields.SetStr("op", "probe");
    fields.SetInt("n", static_cast<int64_t>(n));
    co_await node.log().Append(sharedlog::OneTag(tag), std::move(fields));
    const SimTime t1 = scheduler.Now();
    result_.probe_append.Record(t1 - t0);
    tracer_->AddSim(trace, tracer_->NewId(), root, "sharedlog.append", t0, t1);

    co_await node.log().ReadPrev(tag, node.log().indexed_upto());
    const SimTime t2 = scheduler.Now();
    result_.probe_read_prev.Record(t2 - t1);
    tracer_->AddSim(trace, tracer_->NewId(), root, "sharedlog.read_prev", t1, t2);

    co_await node.kv().Get(key);
    const SimTime t3 = scheduler.Now();
    result_.probe_get.Record(t3 - t2);
    tracer_->AddSim(trace, tracer_->NewId(), root, "kvstore.get", t2, t3);

    kvstore::VersionTuple version;
    version.counter = n;
    co_await node.kv().CondPut(key, "v", version);
    const SimTime t4 = scheduler.Now();
    result_.probe_cond_put.Record(t4 - t3);
    tracer_->AddSim(trace, tracer_->NewId(), root, "kvstore.cond_put", t3, t4);
    tracer_->AddSim(trace, root, 0, "probe", t0, t4);
  }
}

void Rep::DriveUntil(SimTime deadline) {
  sim::Scheduler& scheduler = cluster_.scheduler();
  while (scheduler.Now() < deadline && !drained_) {
    SimTime slice_end = std::min(deadline, scheduler.Now() + kSliceLength);
    Clock::time_point t0 = Clock::now();
    scheduler.RunUntil(slice_end);
    if (tracer_ != nullptr) {
      tracer_->AddHost(tracer_->NewId(), rep_span_, "scheduler.run_until", t0, Clock::now());
    }
  }
}

void Rep::DriveUntilDrained() {
  sim::Scheduler& scheduler = cluster_.scheduler();
  while (!drained_) {
    HM_CHECK_MSG(!scheduler.empty(), "load did not drain");
    DriveUntil(scheduler.Now() + kSliceLength);
  }
}

void Rep::Setup() {
  sim::Scheduler& scheduler = cluster_.scheduler();
  workloads::AppDataset data;
  for (const workloads::AppDescriptor& app : workloads::AllApplications()) {
    if (app.name != spec_.app) continue;
    app.register_fn(runtime_, data);
    factory_ = app.factory_fn(runtime_, data);
  }
  HM_CHECK(factory_ != nullptr);
  if (spec_.app == "movie") AddMovieDatasetKeys(data, &kv_keys_);
  if (spec_.advisor) {
    switcher_ = std::make_unique<core::SwitchManager>(&cluster_, runtime_.config().switch_scope);
    advisor_ = std::make_unique<core::OnlineAdvisor>(&runtime_, switcher_.get(),
                                                     core::OnlineAdvisorConfig{});
    advisor_->Start();
  }
  window_start_ = scheduler.Now() + spec_.warmup;
  load_end_ = window_start_;
  for (size_t i = 0; i < spec_.steps.size(); ++i) {
    result_.steps[i].start = load_end_;
    load_end_ += spec_.steps[i].duration;
    result_.steps[i].end = load_end_;
  }
  scheduler.Spawn(GcLoop());
  if (tracer_ != nullptr) {
    scheduler.Spawn(SampleWorkers());
    scheduler.Spawn(SampleState());
    scheduler.Spawn(Probe());
  }
  scheduler.Spawn(Offer());
  DriveUntil(window_start_);
  result_.setup_s = SecondsSince(rep_start_);
}

// Stops the daemons and lets checkpoint rounds and flushes finish.
void Rep::Quiesce() {
  stop_daemons_ = true;
  if (advisor_ != nullptr) advisor_->Stop();
  cluster_.scheduler().Run();
}

double Rep::SetupOnly() {
  Setup();
  stop_offering_ = true;
  DriveUntilDrained();
  Quiesce();
  return result_.setup_s;
}

RepResult Rep::Run(std::optional<uint64_t> expect_checksum) {
  sim::Scheduler& scheduler = cluster_.scheduler();
  if (tracer_ != nullptr) rep_span_ = tracer_->NewId();
  Setup();

  // ---- Measured window: every step, then the drain ----
  measuring_ = true;
  result_.before = Snap();
  Clock::time_point w0 = Clock::now();
  DriveUntil(load_end_);
  DriveUntilDrained();
  result_.window_s = SecondsSince(w0);
  result_.after = Snap();
  result_.window_sim = scheduler.Now() - window_start_;
  measuring_ = false;
  Quiesce();

  result_.gc = gc_.stats();
  if (advisor_ != nullptr) {
    result_.advisor_switches = advisor_->stats().switches_fired;
    result_.advisor_evaluated = result_.after.advisor_evaluated - result_.before.advisor_evaluated;
    result_.sketch_bytes = runtime_.sketch().MemoryBytes();
  }
  result_.read_record_copies = result_.after.log.read_record_copies;
  if (busy_samples_ > 0) result_.worker_busy_fraction = busy_sum_ / busy_samples_;
  double queue_sum = 0;
  int64_t queue_samples = 0;
  for (const StepResult& s : result_.steps) {
    queue_sum += s.queue_sum;
    queue_samples += s.queue_samples;
  }
  result_.worker_queue_mean = Ratio(queue_sum, static_cast<double>(queue_samples));
  for (const StepResult& s : result_.steps) {
    if (s.MeetsSlo(spec_.slo_p99_ms)) {
      result_.max_rate_at_slo = std::max(result_.max_rate_at_slo, s.CompletedPerSimSecond());
    }
  }

  PostDrainChecks(expect_checksum);
  if (tracer_ != nullptr) tracer_->AddHost(rep_span_, 0, "rep", rep_start_, Clock::now());
  return std::move(result_);
}

void Rep::PostDrainChecks(std::optional<uint64_t> expect_checksum) {
  if (result_.completed != result_.offered) {
    Fail("completed " + std::to_string(result_.completed) + " != offered " +
         std::to_string(result_.offered));
  }
  if (result_.read_record_copies != 0) {
    Fail("read_record_copies = " + std::to_string(result_.read_record_copies));
  }
  if (!spec_.durable) return;

  storage::DurabilityService* log_dur = cluster_.log_durability();
  storage::DurabilityService* kv_dur = cluster_.kv_durability();
  const int64_t device_bytes =
      log_dur->device().stats().bytes_written + kv_dur->device().stats().bytes_written;
  const int64_t journal_bytes = log_dur->stats().appended_bytes + kv_dur->stats().appended_bytes;
  result_.write_amplification =
      Ratio(static_cast<double>(device_bytes), static_cast<double>(journal_bytes));
  result_.retained_journal_mb =
      static_cast<double>((log_dur->durable_offset() - log_dur->retained_offset()) +
                          (kv_dur->durable_offset() - kv_dur->retained_offset())) /
      (1024.0 * 1024.0);
  if (storage::CheckpointService* ckpt = cluster_.checkpoint_service()) {
    result_.ckpt_rounds = ckpt->stats().rounds_completed;
    result_.ckpt_image_frames = ckpt->stats().image_frames;
  }

  result_.checksum = ContentChecksum(cluster_, kv_keys_);
  if (expect_checksum.has_value() && result_.checksum != *expect_checksum) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "content checksum %016" PRIx64 " != expected %016" PRIx64,
                  result_.checksum, *expect_checksum);
    Fail(buf);
  }
  for (int k = 0; k < spec_.kills; ++k) {
    Clock::time_point t0 = Clock::now();
    cluster_.KillRestartStorage();
    Clock::time_point t1 = Clock::now();
    result_.kill_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    if (tracer_ != nullptr) {
      tracer_->AddHost(tracer_->NewId(), rep_span_, "cluster.kill_restart_storage", t0, t1);
    }
    const sharedlog::LogRecoveryStats& log_rec = cluster_.last_log_recovery();
    const sharedlog::LogRecoveryStats& kv_rec = cluster_.last_kv_recovery();
    if (!log_rec.used_checkpoint || !kv_rec.used_checkpoint) {
      Fail("kill " + std::to_string(k) + " recovered by full replay, not checkpoint + suffix");
    }
    result_.recovery_suffix_frames = log_rec.suffix_frames + kv_rec.suffix_frames;
    result_.recovery_image_frames = log_rec.image_frames + kv_rec.image_frames;
    uint64_t after = ContentChecksum(cluster_, kv_keys_);
    if (after != result_.checksum) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "content checksum after kill %d: %016" PRIx64
                    " != %016" PRIx64, k, after, result_.checksum);
      Fail(buf);
    }
  }
}

// ---------------------------------------------------------------------------------------
// Aggregation and output
// ---------------------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

// Simulated outputs of a rep: equal in every rep of one kind (traced / untraced) at one seed.
uint64_t SimFingerprint(const RepResult& r) {
  uint64_t h = kFnvOffset;
  h = FnvU64(h, static_cast<uint64_t>(r.offered));
  h = FnvU64(h, static_cast<uint64_t>(r.completed));
  h = FnvU64(h, static_cast<uint64_t>(r.window_sim));
  h = FnvU64(h, r.after.events - r.before.events);
  h = FnvU64(h, static_cast<uint64_t>(r.after.logged_bytes));
  h = FnvU64(h, static_cast<uint64_t>(r.after.db_ops));
  h = FnvU64(h, r.checksum);
  for (const StepResult& s : r.steps) {
    h = FnvU64(h, static_cast<uint64_t>(s.completed));
    for (double pct : {50.0, 99.0, 99.9}) {
      h = FnvU64(h, static_cast<uint64_t>(s.latency.Percentile(pct)));
    }
  }
  return h;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* kind;  // "sim" | "host"
  std::string note;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6f %-8s %-4s %s\n", m.name.c_str(), m.value, m.unit.c_str(), m.kind,
                m.note.c_str());
  }
}

std::string Json(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string Count(const char* what, size_t n) {
  return std::string(what) + "=" + std::to_string(n);
}

std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec, const std::vector<RepResult>& reps,
                                    const std::vector<double>& setup_s, double peak_rss_mib) {
  const RepResult& r = reps.front();
  const StepResult& lat = r.latency_step(spec);
  std::vector<double> ips;
  for (const RepResult& rep : reps) ips.push_back(rep.InvocationsPerSecond());
  const std::string reps_note = Count("reps", reps.size());
  const std::string samples_note = Count("samples", lat.latency.count());
  return {
      {"setup_s", Median(setup_s), "s", "host", "median; " + Count("set-ups", setup_s.size())},
      {"invocations_per_s", Median(ips), "1/s", "host", "median; " + reps_note},
      {"latency_p50_ms", lat.latency.Percentile(50.0) / 1e6, "ms", "sim", samples_note},
      {"latency_p99_ms", lat.latency.Percentile(99.0) / 1e6, "ms", "sim", samples_note},
      {"latency_p999_ms", lat.latency.Percentile(99.9) / 1e6, "ms", "sim", samples_note},
      {"logged_bytes_per_invocation", r.LoggedBytesPerInvocation(), "B", "sim", ""},
      {"max_rate_at_slo", r.max_rate_at_slo, "req/s", "sim", "completed/s of the highest step"},
      {"peak_rss_mb", peak_rss_mib, "MiB", "host", "process peak after rep 0"},
  };
}

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& spec, const std::vector<RepResult>& plain,
                                    const std::vector<RepResult>& traced) {
  const RepResult& t = traced.front();
  const Counters& b = t.before;
  const Counters& a = t.after;
  const RepResult& p = plain.front();
  std::vector<double> ns_per_event, ips_plain, ips_traced, gc_ms, kill_s;
  for (const RepResult& r : plain) {
    ns_per_event.push_back(r.window_s * 1e9 /
                           static_cast<double>(r.after.events - r.before.events));
    ips_plain.push_back(r.InvocationsPerSecond());
  }
  for (const RepResult& r : traced) {
    ips_traced.push_back(r.InvocationsPerSecond());
    gc_ms.insert(gc_ms.end(), r.gc_scan_ms.begin(), r.gc_scan_ms.end());
    kill_s.insert(kill_s.end(), r.kill_s.begin(), r.kill_s.end());
  }
  const double gc_reclaimed = static_cast<double>(
      t.gc.step_logs_trimmed + t.gc.write_records_trimmed + t.gc.versions_deleted +
      t.gc.init_records_trimmed);
  const double logged = static_cast<double>(a.logged_bytes - b.logged_bytes);
  const double control = static_cast<double>(a.control_bytes - b.control_bytes);
  const int64_t reads_local = a.log.reads_index_local - b.log.reads_index_local;
  const int64_t reads_storage = a.log.reads_storage - b.log.reads_storage;
  const double plain_ips = Median(ips_plain);
  auto ms = [](const metrics::LatencyRecorder& rec, double pct) {
    return rec.Percentile(pct) / 1e6;
  };
  auto frames_per_flush = [](const storage::DurabilityService::Stats& s0,
                             const storage::DurabilityService::Stats& s1) {
    return Ratio(static_cast<double>(s1.frames - s0.frames),
                 static_cast<double>(s1.flushes - s0.flushes));
  };
  return {
      {"sim.events_per_invocation", p.PerInvocation(static_cast<int64_t>(
                                        p.after.events - p.before.events)),
       "count", "sim", "untraced reps"},
      {"sim.ns_per_event", Median(ns_per_event), "ns", "host", "untraced reps, median"},
      {"process.allocs_per_invocation",
       p.PerInvocation(static_cast<int64_t>(p.after.allocs - p.before.allocs)), "count", "host",
       "untraced reps"},
      {"process.alloc_bytes_per_invocation",
       p.PerInvocation(static_cast<int64_t>(p.after.alloc_bytes - p.before.alloc_bytes)), "B",
       "host", "untraced reps"},
      {"runtime.worker_queue_mean", t.worker_queue_mean, "requests", "sim", "1 ms samples"},
      {"runtime.worker_queue_max", static_cast<double>(t.worker_queue_max), "requests", "sim",
       ""},
      {"runtime.worker_busy_fraction", t.worker_busy_fraction, "ratio", "sim", ""},
      {"runtime.attempts_per_invocation",
       Ratio(static_cast<double>(a.attempts - b.attempts),
             static_cast<double>(a.root_invocations - b.root_invocations)),
       "count", "sim", "per root invocation"},
      {"runtime.index_ticks_per_commit",
       Ratio(static_cast<double>(a.index_ticks - b.index_ticks),
             static_cast<double>(a.index_commits - b.index_commits)),
       "ratio", "sim", ""},
      {"runtime.tracking_entries_max", static_cast<double>(t.tracking_entries_max), "count",
       "sim", ""},
      {"core.gc.scan_ms_p50", Median(gc_ms), "ms", "host", Count("scans", gc_ms.size())},
      {"core.gc.scan_ms_max", gc_ms.empty() ? 0.0 : *std::max_element(gc_ms.begin(), gc_ms.end()),
       "ms", "host", ""},
      {"core.gc.reclaimed_per_scan", Ratio(gc_reclaimed, static_cast<double>(t.gc.scans)),
       "count", "sim", ""},
      {"core.protocol_bytes_share", Ratio(logged - control, logged), "ratio", "sim", ""},
      {"core.advisor.objects_evaluated_per_s",
       Ratio(static_cast<double>(t.advisor_evaluated), ToSecondsDouble(t.window_sim)), "1/s",
       "sim", spec.advisor ? "" : "advisor off"},
      {"core.advisor.switches", static_cast<double>(t.advisor_switches), "count", "sim", ""},
      {"core.advisor.sketch_bytes", static_cast<double>(t.sketch_bytes), "B", "sim", ""},
      {"sharedlog.appends_per_invocation",
       t.PerInvocation((a.log.appends + a.log.cond_appends) - (b.log.appends + b.log.cond_appends)),
       "count", "sim", ""},
      {"sharedlog.reads_per_invocation", t.PerInvocation(reads_local + reads_storage), "count",
       "sim", ""},
      {"sharedlog.index_local_ratio",
       Ratio(static_cast<double>(reads_local), static_cast<double>(reads_local + reads_storage)),
       "ratio", "sim", ""},
      {"sharedlog.cond_conflict_ratio",
       Ratio(static_cast<double>(a.log.cond_append_conflicts - b.log.cond_append_conflicts),
             static_cast<double>(a.log.cond_appends - b.log.cond_appends)),
       "ratio", "sim", ""},
      {"sharedlog.batch_occupancy",
       Ratio(static_cast<double>(a.log.batched_requests - b.log.batched_requests),
             static_cast<double>(a.log.append_rounds - b.log.append_rounds)),
       "requests/round", "sim", ""},
      {"sharedlog.append_ms_p50", ms(t.probe_append, 50), "ms", "sim",
       Count("probes", t.probe_append.count())},
      {"sharedlog.append_ms_p99", ms(t.probe_append, 99), "ms", "sim", ""},
      {"sharedlog.read_prev_ms_p50", ms(t.probe_read_prev, 50), "ms", "sim", ""},
      {"sharedlog.read_prev_ms_p99", ms(t.probe_read_prev, 99), "ms", "sim", ""},
      {"sharedlog.live_records_max", static_cast<double>(t.live_records_max), "count", "sim", ""},
      {"sharedlog.index_entries_max", static_cast<double>(t.index_entries_max), "count", "sim",
       ""},
      {"kvstore.ops_per_invocation", t.PerInvocation(a.db_ops - b.db_ops), "count", "sim", ""},
      {"kvstore.cond_reject_ratio",
       Ratio(static_cast<double>(a.kv_cond_rejects - b.kv_cond_rejects),
             static_cast<double>(a.kv_cond_writes - b.kv_cond_writes)),
       "ratio", "sim", ""},
      {"kvstore.get_ms_p50", ms(t.probe_get, 50), "ms", "sim", ""},
      {"kvstore.get_ms_p99", ms(t.probe_get, 99), "ms", "sim", ""},
      {"kvstore.cond_put_ms_p50", ms(t.probe_cond_put, 50), "ms", "sim", ""},
      {"kvstore.cond_put_ms_p99", ms(t.probe_cond_put, 99), "ms", "sim", ""},
      {"storage.log.frames_per_flush", frames_per_flush(b.log_dur, a.log_dur), "frames", "sim",
       t.durable ? "" : "absent: volatile tier"},
      {"storage.kv.frames_per_flush", frames_per_flush(b.kv_dur, a.kv_dur), "frames", "sim",
       t.durable ? "" : "absent: volatile tier"},
      {"storage.write_amplification", t.write_amplification, "ratio", "sim", ""},
      {"storage.ckpt.rounds", static_cast<double>(t.ckpt_rounds), "count", "sim", ""},
      {"storage.ckpt.image_frames_per_round",
       Ratio(static_cast<double>(t.ckpt_image_frames), static_cast<double>(t.ckpt_rounds)),
       "count", "sim", ""},
      {"storage.retained_journal_mb", t.retained_journal_mb, "MiB", "sim", "after drain"},
      {"storage.recovery.suffix_frames", static_cast<double>(t.recovery_suffix_frames), "frames",
       "sim", "log + kv, last kill"},
      {"storage.recovery.image_frames", static_cast<double>(t.recovery_image_frames), "frames",
       "sim", "log + kv, last kill"},
      {"storage.recovery_s", Median(kill_s), "s", "host", Count("kills", kill_s.size())},
      {"workloads.offered", static_cast<double>(t.offered), "count", "sim", "whole rep"},
      {"workloads.completed", static_cast<double>(t.completed), "count", "sim", "whole rep"},
      {"trace_overhead", Ratio(plain_ips - Median(ips_traced), plain_ips), "ratio", "host",
       "(untraced - traced) / untraced invocations_per_s"},
  };
}

void PrintRep(const RepResult& r, size_t index) {
  std::printf("rep %zu%s: setup %.3fs, window %.3fs host / %.1fs sim, %lld invocations, "
              "%.0f inv/s, %llu events",
              index, r.traced ? " (traced)" : "", r.setup_s, r.window_s,
              ToSecondsDouble(r.window_sim), static_cast<long long>(r.WindowCompleted()),
              r.InvocationsPerSecond(),
              static_cast<unsigned long long>(r.after.events - r.before.events));
  if (!r.kill_s.empty()) {
    std::printf(", kills");
    for (double s : r.kill_s) std::printf(" %.3fs", s);
  }
  std::printf("\n");
}

void PrintSteps(const WorkloadSpec& spec, const RepResult& r) {
  std::printf("  %8s %8s %9s %9s %6s %9s %9s %9s %10s %s\n", "rate", "offered", "completed",
              "done/s", "late", "p50_ms", "p99_ms", "p999_ms", "queue_mean", "slo");
  for (const StepResult& s : r.steps) {
    std::printf("  %8.0f %8lld %9lld %9.1f %6lld %9.3f %9.3f %9.3f %10.3f %s\n", s.rate,
                static_cast<long long>(s.offered), static_cast<long long>(s.completed),
                s.CompletedPerSimSecond(), static_cast<long long>(s.late),
                s.latency.Percentile(50) / 1e6, s.latency.Percentile(99) / 1e6,
                s.latency.Percentile(99.9) / 1e6, s.QueueMean(),
                s.MeetsSlo(spec.slo_p99_ms) ? "meets" : "misses");
  }
}

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
  std::optional<uint64_t> expect_checksum;
  std::string out_dir = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload travel-hmread|movie-hmwrite-durable|"
               "retwis-ramp [--seed N] [--seconds S] [--trace 0|1] [--short] "
               "[--expect-checksum HEX] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0)) Usage("--seconds takes a number > 0");
    } else if (arg == "--trace") {
      std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--short") {
      o.short_mode = true;
    } else if (arg == "--expect-checksum") {
      std::string v = value();
      o.expect_checksum = std::strtoull(v.c_str(), &end, 16);
      if (v.empty() || *end != '\0') Usage("--expect-checksum takes a hex number");
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  return o;
}

int Main(int argc, char** argv) {
  Clock::time_point start = Clock::now();
  Options options = ParseOptions(argc, argv);
  if (RefuseProgramEnv()) return 2;
  const WorkloadSpec* found = nullptr;
  std::vector<WorkloadSpec> all = Workloads();
  for (const WorkloadSpec& w : all) {
    if (w.name == options.workload) found = &w;
  }
  if (found == nullptr) Usage(("unknown workload " + options.workload).c_str());
  const WorkloadSpec spec = options.short_mode ? Shorten(*found) : *found;

  std::printf("e2e_bench workload=%s trace=%d short=%d seconds=%.1f\n", spec.name.c_str(),
              options.trace, options.short_mode, options.seconds);
  PrintConfig(spec, options.seed);

  // Untraced reps until the time is used (at least three, for the host medians); a rep that
  // would end past --seconds is not started. With --trace 1, traced and untraced reps
  // alternate (at least two of each).
  std::vector<RepResult> plain, traced;
  std::unique_ptr<Tracer> tracer;
  std::vector<double> setup_s;
  double peak_rss_mib = 0;
  const size_t min_reps = options.trace ? 2 : 3;
  double reps_s = 0;
  while (true) {
    const double per_rep = plain.empty() ? 0.0 : reps_s / static_cast<double>(plain.size());
    if (plain.size() >= min_reps && SecondsSince(start) + per_rep > options.seconds) break;
    const Clock::time_point rep_start = Clock::now();
    {
      Rep rep(spec, options.seed, nullptr);
      plain.push_back(rep.Run(options.expect_checksum));
      PrintRep(plain.back(), plain.size() - 1);
      setup_s.push_back(plain.back().setup_s);
    }
    if (plain.size() == 1) {
      // Read after the first rep: later reps reuse the freed heap, so the process peak would
      // also depend on the fragmentation earlier reps left behind.
      peak_rss_mib = PeakRssMiB();
      // Extra set-ups, so that the set-up median rests on more than a few reps.
      for (int i = 0; i < kExtraSetups; ++i) {
        Rep rep(spec, options.seed, nullptr);
        setup_s.push_back(rep.SetupOnly());
      }
      std::printf("setup-only reps: %d\n", kExtraSetups);
    }
    if (options.trace) {
      std::unique_ptr<Tracer> t = std::make_unique<Tracer>(Clock::now());
      Rep rep(spec, options.seed, t.get());
      traced.push_back(rep.Run(options.expect_checksum));
      PrintRep(traced.back(), plain.size() - 1);
      if (tracer == nullptr) tracer = std::move(t);  // Keep the first traced rep's spans.
    }
    if (plain.size() > 1) reps_s += SecondsSince(rep_start);
  }

  std::vector<std::string> failures;
  const uint64_t plain_fp = SimFingerprint(plain.front());
  for (const std::vector<RepResult>* reps : {&plain, &traced}) {
    if (reps->empty()) continue;
    const uint64_t fp = SimFingerprint(reps->front());
    for (const RepResult& r : *reps) {
      failures.insert(failures.end(), r.failures.begin(), r.failures.end());
      if (SimFingerprint(r) != fp) failures.push_back("simulated results differ between reps");
    }
  }
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const std::vector<RepResult>* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      attempted += r.offered;
      failed += r.offered - r.completed;
    }
  }

  std::printf("steps of rep 0:\n");
  PrintSteps(spec, plain.front());
  if (!traced.empty()) {
    std::printf("steps of traced rep 0:\n");
    PrintSteps(spec, traced.front());
  }
  const RepResult& r0 = plain.front();
  std::printf("failed_fraction %.6f (%lld of %lld offered)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<long long>(failed), static_cast<long long>(attempted));
  std::printf("read_record_copies %lld\n", static_cast<long long>(r0.read_record_copies));
  std::printf("sim_fingerprint %016" PRIx64 "\n", plain_fp);
  if (spec.durable) {
    std::vector<double> kills;
    for (const RepResult& r : plain) kills.insert(kills.end(), r.kill_s.begin(), r.kill_s.end());
    std::printf("content_checksum %016" PRIx64 "\n", r0.checksum);
    std::printf("recovery_s %.6f s host (median of %zu KillRestartStorage; image_frames=%lld "
                "suffix_frames=%lld)\n",
                Median(kills), kills.size(), static_cast<long long>(r0.recovery_image_frames),
                static_cast<long long>(r0.recovery_suffix_frames));
  }

  std::vector<Metric> metrics = EndToEndMetrics(spec, plain, setup_s, peak_rss_mib);
  std::printf("end-to-end metrics (name value unit kind note):\n");
  PrintMetrics(metrics);
  if (options.trace) {
    metrics = PerLayerMetrics(spec, plain, traced);
    std::printf("per-layer metrics (name value unit kind note):\n");
    PrintMetrics(metrics);
    std::string path = options.out_dir + "/trace-" + spec.name + ".jsonl";
    if (!tracer->Write(path, spec.name, options.seed)) {
      failures.push_back("could not write " + path);
    }
    std::printf("trace written to %s\n", path.c_str());
  }

  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("%s\n", Json(failures.empty(), attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace halfmoon::e2ebench

int main(int argc, char** argv) { return halfmoon::e2ebench::Main(argc, argv); }
