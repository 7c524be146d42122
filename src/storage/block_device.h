// The simulated durable medium: a byte-addressed device written in aligned 4 KiB blocks.
//
// The device is the ONLY state in the simulation that survives a node kill. Everything above
// it (the block buffer's volatile tail, ShardedLog indices, KvState maps) is reconstructed by
// replaying the journal frames recorded here (see durability.h). Writes are paid for in whole
// blocks — flushing a 100-byte journal frame rewrites its 4 KiB tail block — which is what
// makes group-flush worth modeling and gives bench_recovery_cost a real write-amplification
// number to report. Compaction (DESIGN.md §14) may release a block-aligned prefix: offsets
// stay logical (they never renumber), but the freed blocks stop being readable at once.
//
// Bytes live in fixed-size pages (kPageSize, a whole number of blocks), each allocated once
// and never moved: a write copies its bytes into their pages and nothing else, and a prefix
// truncation frees every page lying wholly below the new base without copying a byte. A read
// inside one page is a view of it; a read across a page edge is assembled in a scratch buffer
// the device owns.

#ifndef HALFMOON_STORAGE_BLOCK_DEVICE_H_
#define HALFMOON_STORAGE_BLOCK_DEVICE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/check.h"

namespace halfmoon::storage {

// Flush granularity of the simulated medium (an NVMe-class logical block).
inline constexpr uint64_t kBlockSize = 4096;
// Allocation granularity of the device's memory: pages are allocated as writes reach them and
// freed whole by prefix truncation.
inline constexpr uint64_t kPageSize = 4 * kBlockSize;

class BlockDevice {
 public:
  struct Stats {
    int64_t block_writes = 0;   // Blocks written; rewriting a partial tail block counts again.
    int64_t bytes_written = 0;  // Device bytes moved = block_writes * kBlockSize.
    int64_t bytes_dropped = 0;  // Block-aligned bytes released by prefix truncation.
  };

  // Overwrites device contents starting at `offset` (must be block-aligned and at or past the
  // truncated base) with `data`, growing the device as needed. Whole blocks are paid for even
  // when `data` ends mid-block.
  void WriteBlocks(uint64_t offset, std::string_view data);

  // Reads back durable bytes; the range must lie within the retained part of the device. The
  // view stays valid until the next Read, write or truncation of this device.
  std::string_view Read(uint64_t offset, uint64_t n) const;

  // Calls fn(piece) for each page-contiguous piece of [offset, offset + n), in order — a
  // whole-range scan without assembling the range anywhere.
  template <typename Fn>
  void ForEachPiece(uint64_t offset, uint64_t n, Fn&& fn) const {
    CheckReadable(offset, n);
    while (n > 0) {
      uint64_t in_page = offset % kPageSize;
      uint64_t take = std::min(n, kPageSize - in_page);
      fn(std::string_view(PageAt(offset) + in_page, take));
      offset += take;
      n -= take;
    }
  }

  // Releases every whole block strictly below `offset` (rounded down to a block boundary):
  // reads below the new base become errors, and each page lying wholly below it is freed.
  // Logical offsets above the new base are unaffected. Returns the bytes released.
  uint64_t TruncatePrefix(uint64_t offset);

  uint64_t size() const { return size_; }
  // First retained logical offset (block-aligned; 0 until the first truncation).
  uint64_t base() const { return base_; }
  // Memory the device's pages occupy — shrinks when TruncatePrefix frees whole pages.
  uint64_t resident_bytes() const { return pages_.size() * kPageSize; }
  const Stats& stats() const { return stats_; }

 private:
  void CheckReadable(uint64_t offset, uint64_t n) const {
    HM_CHECK_MSG(offset >= base_, "device read below the truncated base");
    HM_CHECK_MSG(offset + n <= size_, "device read past the durable end");
  }
  // Start of the page holding `offset`, which must lie in an allocated page.
  char* PageAt(uint64_t offset) const {
    return pages_[offset / kPageSize - first_page_].get();
  }

  std::deque<std::unique_ptr<char[]>> pages_;  // pages_[i] holds page number first_page_ + i.
  uint64_t first_page_ = 0;
  uint64_t base_ = 0;
  uint64_t size_ = 0;
  mutable std::string scratch_;  // Assembles reads that cross a page edge.
  Stats stats_;
};

}  // namespace halfmoon::storage

#endif  // HALFMOON_STORAGE_BLOCK_DEVICE_H_
