// Space-bounded sliding-window read/write sketch for the online advisor (DESIGN.md §11).
//
// The §4.6 cost criterion needs each object's read ratio, but a per-object counter map over
// a million-object keyspace is exactly the memory blow-up the advisor must avoid. This is a
// pair of count-min sketches (reads / writes) keyed by the object's interned TagId: O(depth)
// counter bumps per op, estimates that only ever overcount (by at most ~e/width of the
// stream length per the classic count-min bound), and a hard memory cap that is a function
// of the configuration alone — independent of how many live objects the workload touches.
//
// The sliding window is two epochs: estimates read current + previous, and AdvanceEpoch()
// retires previous and starts a fresh current. An object that goes quiet therefore ages out
// of the estimate within two epoch lengths, which is what lets the advisor track a drifting
// (diurnal) workload instead of averaging over all history.

#ifndef HALFMOON_METRICS_WORKLOAD_SKETCH_H_
#define HALFMOON_METRICS_WORKLOAD_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace halfmoon::metrics {

struct WorkloadSketchConfig {
  // Counters per row (rounded up to a power of two) and independent rows. The defaults give
  // estimate error <= e/1024 of the window stream length with probability 1 - e^-4, in
  // 2 kinds x 2 epochs x 4 x 1024 x 4B = 128 KiB per sketch.
  size_t width = 1024;
  size_t depth = 4;
  uint64_t seed = 0x5851f42d4c957f2dull;
};

class WorkloadSketch {
 public:
  explicit WorkloadSketch(WorkloadSketchConfig config = {});

  // O(depth) per call. `id` is the object's interned write-log TagId.
  void RecordRead(uint64_t id);
  void RecordWrite(uint64_t id);

  // Windowed (current + previous epoch) per-object estimates. Never undercounts the true
  // windowed count; overcounts by at most ~e/width of the windowed stream length w.h.p.
  int64_t EstimateReads(uint64_t id) const;
  int64_t EstimateWrites(uint64_t id) const;

  // Exact windowed stream totals (for normalizing estimate error and min-ops gating).
  int64_t WindowReads() const { return current_.total_reads + previous_.total_reads; }
  int64_t WindowWrites() const { return current_.total_writes + previous_.total_writes; }

  // Slides the window: previous is dropped, current becomes previous. Counter storage is
  // recycled, so steady-state operation allocates nothing.
  void AdvanceEpoch();

  // The hard memory bound: counter storage in bytes, a pure function of the configuration.
  size_t MemoryBytes() const;

  const WorkloadSketchConfig& config() const { return config_; }
  uint64_t epochs_advanced() const { return epochs_advanced_; }

 private:
  struct Epoch {
    std::vector<uint32_t> reads;   // depth x width counters, row-major
    std::vector<uint32_t> writes;  // depth x width counters, row-major
    int64_t total_reads = 0;
    int64_t total_writes = 0;
    void Clear();
  };

  size_t Index(size_t row, uint64_t id) const;
  void Bump(std::vector<uint32_t>& counters, uint64_t id);
  int64_t Estimate(const std::vector<uint32_t>& current,
                   const std::vector<uint32_t>& previous, uint64_t id) const;

  WorkloadSketchConfig config_;
  std::vector<uint64_t> row_seeds_;
  size_t mask_;  // width - 1 after power-of-two rounding
  Epoch current_;
  Epoch previous_;
  uint64_t epochs_advanced_ = 0;
};

}  // namespace halfmoon::metrics

#endif  // HALFMOON_METRICS_WORKLOAD_SKETCH_H_
