// Exact latency statistics: the recorder keeps every sample (simulated runs are short enough)
// and computes percentiles on demand from a lazily sorted copy, cached until the next Record.
// This mirrors how the paper reports median and 99th-percentile latency bars. Percentiles use
// the ceil-based nearest-rank definition, so the tail never rounds *down* (p99 of 100 samples
// is the 100th order statistic, not the 99th).

#ifndef HALFMOON_METRICS_LATENCY_RECORDER_H_
#define HALFMOON_METRICS_LATENCY_RECORDER_H_

#include <cstddef>
#include <vector>

#include "src/common/time.h"

namespace halfmoon::metrics {

class LatencyRecorder {
 public:
  void Record(SimDuration latency) { samples_.push_back(latency); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  void Clear() {
    samples_.clear();
    sorted_.clear();
  }

  // Percentile in [0, 100]. Returns 0 on an empty recorder.
  SimDuration Percentile(double pct) const;

  SimDuration Median() const { return Percentile(50.0); }
  SimDuration P99() const { return Percentile(99.0); }
  double MeanMs() const;

  double MedianMs() const { return ToMillisDouble(Median()); }
  double P99Ms() const { return ToMillisDouble(P99()); }

  const std::vector<SimDuration>& samples() const { return samples_; }

 private:
  // The sorted view, rebuilt at most once per batch of mutations no matter how many
  // percentiles are read. Staleness is structural — length mismatch — rather than a dirty
  // bit a future mutation path could forget to set: Record only ever grows samples_,
  // Clear empties both, so equal lengths imply equal contents.
  const std::vector<SimDuration>& Sorted() const;

  std::vector<SimDuration> samples_;
  mutable std::vector<SimDuration> sorted_;
};

}  // namespace halfmoon::metrics

#endif  // HALFMOON_METRICS_LATENCY_RECORDER_H_
