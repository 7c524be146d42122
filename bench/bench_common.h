// Shared scaffolding for the benchmark harnesses: one simulated cluster + runtime + GC per
// experiment configuration, and environment knobs to scale run length.
//
// Every binary prints the rows/series of one table or figure from the paper's evaluation
// (§6). Durations default to a few simulated seconds per data point so the full suite runs in
// minutes; set HM_BENCH_SCALE (e.g. 3.0) to lengthen the measurement windows for tighter
// percentiles. Cluster and runtime knobs are plain config fields: ExperimentWorld starts
// from the library defaults and sets the fields each experiment pins.

#ifndef HALFMOON_BENCH_BENCH_COMMON_H_
#define HALFMOON_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/core/gc_service.h"
#include "src/core/ssf_runtime.h"
#include "src/metrics/table_printer.h"
#include "src/runtime/cluster.h"

namespace halfmoon::bench {

// HM_BENCH_SCALE: a finite number > 0 (default 1.0); anything else aborts.
inline double BenchScale() { return EnvPositiveDouble("HM_BENCH_SCALE", 1.0); }

inline SimDuration Scaled(SimDuration d) {
  return static_cast<SimDuration>(static_cast<double>(d) * BenchScale());
}

struct ExperimentOptions {
  core::ProtocolKind protocol = core::ProtocolKind::kHalfmoonRead;
  uint64_t seed = 1;
  SimDuration gc_interval = Seconds(10);
  bool start_gc = true;
  bool enable_switching = false;

  // Capacity knobs. The paper's application curves (Fig. 11) saturate at the *same* offered
  // load for every system — the binding resource is protocol-independent (the external
  // store: all protocols issue the same DB ops; only log traffic differs, and "logging is
  // typically not the bottleneck of Boki"). Benchmarks therefore pick which station binds.
  int workers_per_node = 16;
  int sequencer_servers = 12;
  int db_servers = 48;

  // Latency calibration override (ablation benches tweak individual entries).
  LatencyCalibration calibration;

  // Forwarded to RuntimeConfig (ablation: disable the §4.3 child-cursor inheritance).
  bool inherit_child_cursor = true;
};

// One experiment run: cluster, runtime, and GC, wired together.
class ExperimentWorld {
 public:
  explicit ExperimentWorld(const ExperimentOptions& options) {
    runtime::ClusterConfig ccfg;
    ccfg.seed = options.seed;
    ccfg.workers_per_node = options.workers_per_node;
    ccfg.sequencer_servers = options.sequencer_servers;
    ccfg.db_servers = options.db_servers;
    ccfg.calibration = options.calibration;
    cluster_ = std::make_unique<runtime::Cluster>(ccfg);

    core::RuntimeConfig rcfg;
    rcfg.default_protocol = options.protocol;
    rcfg.enable_switching = options.enable_switching;
    rcfg.inherit_child_cursor = options.inherit_child_cursor;
    runtime_ = std::make_unique<core::SsfRuntime>(cluster_.get(), rcfg);

    gc_ = std::make_unique<core::GcService>(cluster_.get(), options.gc_interval);
    if (options.start_gc) gc_->Start();
  }

  ~ExperimentWorld() {
    gc_->Stop();
  }

  runtime::Cluster& cluster() { return *cluster_; }
  core::SsfRuntime& runtime() { return *runtime_; }
  core::GcService& gc() { return *gc_; }

 private:
  std::unique_ptr<runtime::Cluster> cluster_;
  std::unique_ptr<core::SsfRuntime> runtime_;
  std::unique_ptr<core::GcService> gc_;
};

// The four systems of Figure 10/11, in the paper's plotting order.
struct SystemUnderTest {
  const char* label;
  core::ProtocolKind protocol;
};

inline const std::vector<SystemUnderTest>& AllSystems() {
  static const std::vector<SystemUnderTest>* systems = new std::vector<SystemUnderTest>{
      {"Boki", core::ProtocolKind::kBoki},
      {"Halfmoon-write", core::ProtocolKind::kHalfmoonWrite},
      {"Halfmoon-read", core::ProtocolKind::kHalfmoonRead},
      {"Unsafe", core::ProtocolKind::kUnsafe},
  };
  return *systems;
}

inline std::string Fmt(double v, int precision = 2) {
  return metrics::TablePrinter::FormatDouble(v, precision);
}

}  // namespace halfmoon::bench

#endif  // HALFMOON_BENCH_BENCH_COMMON_H_
