// Write-back buffer cache over the block device.
//
// Appends land in a volatile in-memory tail; FlushTo pushes a prefix of that tail down to the
// device in aligned blocks, re-writing the partial block straddling the durable frontier (the
// classic small-write amplification of an append-only journal on a block medium). A node kill
// drops the volatile tail — DropVolatile — leaving exactly the device-backed durable prefix.
// Compaction may release a durable prefix — TruncatePrefix — freeing its blocks while keeping
// every surviving offset logical (nothing renumbers).
//
// The buffer holds no second copy of the durable prefix: only the block straddling the
// durable frontier (whose durable head the next flush rewrites) plus the volatile tail. Each
// flush drops the whole blocks it made durable; durable bytes are read back from the device.

#ifndef HALFMOON_STORAGE_BLOCK_BUFFER_H_
#define HALFMOON_STORAGE_BLOCK_BUFFER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/storage/block_device.h"

namespace halfmoon::storage {

class BlockBuffer {
 public:
  explicit BlockBuffer(BlockDevice* device) : device_(device) {}
  BlockBuffer(const BlockBuffer&) = delete;
  BlockBuffer& operator=(const BlockBuffer&) = delete;

  // Appends bytes to the volatile tail; returns the logical offset of the first byte.
  uint64_t Append(std::string_view bytes);

  // Logical end of the buffer (durable prefix + volatile tail).
  uint64_t tail() const { return held_base_ + held_.size(); }
  // End of the durable prefix: everything below this offset survives a kill.
  uint64_t durable() const { return durable_; }
  // First retained logical offset: the caller's truncation point (a frame boundary for
  // journals); bytes below it have been released. 0 until the first truncation.
  uint64_t retained() const { return retained_; }

  // Flushes [durable(), min(upto, tail())) to the device, whole blocks at a time. The block
  // containing the old frontier is re-written in full — that rewrite is the amplification the
  // group-flush in durability.cc amortizes. The whole blocks now durable leave the buffer.
  void FlushTo(uint64_t upto);

  // Simulated power loss: discards the volatile tail. The durable prefix is untouched.
  void DropVolatile();

  // Releases the durable prefix below `offset` (≤ durable()): whole blocks below it are freed
  // on the device, and retained() advances to exactly `offset`. Returns the bytes released.
  uint64_t TruncatePrefix(uint64_t offset);

  // Reads back durable bytes from the device (never the volatile tail — replay must only see
  // what genuinely survived). The range must lie at or above retained()'s block base; the
  // view lives until the device's next read, write or truncation.
  std::string_view ReadDurable(uint64_t offset, uint64_t n) const {
    return device_->Read(offset, n);
  }

  // Bytes the buffer itself holds: the partial block under the durable frontier plus the
  // volatile tail, so never more than (tail() - durable()) + kBlockSize.
  uint64_t resident_bytes() const { return held_.size(); }

  const BlockDevice& device() const { return *device_; }

 private:
  BlockDevice* device_;
  // Contents of [held_base_, tail()): held_base_ is durable_ rounded down to a block, so the
  // bytes below durable_ are the durable head of the block the next flush rewrites.
  std::string held_;
  uint64_t held_base_ = 0;
  uint64_t durable_ = 0;
  uint64_t retained_ = 0;
};

}  // namespace halfmoon::storage

#endif  // HALFMOON_STORAGE_BLOCK_BUFFER_H_
