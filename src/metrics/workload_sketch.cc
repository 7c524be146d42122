#include "src/metrics/workload_sketch.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace halfmoon::metrics {

namespace {

// splitmix64 finalizer: the per-row seeds and the per-id row hashes both come from this, so
// the rows behave as independent hash functions over TagIds (which are small dense integers
// and need real mixing).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

WorkloadSketch::WorkloadSketch(WorkloadSketchConfig config) : config_(config) {
  HM_CHECK(config_.width >= 2 && config_.depth >= 1);
  config_.width = RoundUpPow2(config_.width);
  mask_ = config_.width - 1;
  row_seeds_.reserve(config_.depth);
  for (size_t row = 0; row < config_.depth; ++row) {
    row_seeds_.push_back(Mix64(config_.seed + row));
  }
  const size_t cells = config_.depth * config_.width;
  current_.reads.assign(cells, 0);
  current_.writes.assign(cells, 0);
  previous_.reads.assign(cells, 0);
  previous_.writes.assign(cells, 0);
}

void WorkloadSketch::Epoch::Clear() {
  std::fill(reads.begin(), reads.end(), 0u);
  std::fill(writes.begin(), writes.end(), 0u);
  total_reads = 0;
  total_writes = 0;
}

size_t WorkloadSketch::Index(size_t row, uint64_t id) const {
  return row * config_.width + (Mix64(id ^ row_seeds_[row]) & mask_);
}

void WorkloadSketch::Bump(std::vector<uint32_t>& counters, uint64_t id) {
  for (size_t row = 0; row < config_.depth; ++row) {
    uint32_t& cell = counters[Index(row, id)];
    if (cell != std::numeric_limits<uint32_t>::max()) ++cell;
  }
}

void WorkloadSketch::RecordRead(uint64_t id) {
  Bump(current_.reads, id);
  ++current_.total_reads;
}

void WorkloadSketch::RecordWrite(uint64_t id) {
  Bump(current_.writes, id);
  ++current_.total_writes;
}

int64_t WorkloadSketch::Estimate(const std::vector<uint32_t>& current,
                                 const std::vector<uint32_t>& previous, uint64_t id) const {
  int64_t best = std::numeric_limits<int64_t>::max();
  for (size_t row = 0; row < config_.depth; ++row) {
    const size_t pos = Index(row, id);
    best = std::min(best, int64_t{current[pos]} + int64_t{previous[pos]});
  }
  return best;
}

int64_t WorkloadSketch::EstimateReads(uint64_t id) const {
  return Estimate(current_.reads, previous_.reads, id);
}

int64_t WorkloadSketch::EstimateWrites(uint64_t id) const {
  return Estimate(current_.writes, previous_.writes, id);
}

void WorkloadSketch::AdvanceEpoch() {
  std::swap(current_, previous_);
  current_.Clear();
  ++epochs_advanced_;
}

size_t WorkloadSketch::MemoryBytes() const {
  // 2 epochs x 2 kinds x depth x width counters; the row-seed vector is depth entries.
  return 4 * config_.depth * config_.width * sizeof(uint32_t) +
         row_seeds_.size() * sizeof(uint64_t);
}

}  // namespace halfmoon::metrics
