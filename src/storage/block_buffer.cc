#include "src/storage/block_buffer.h"

#include <algorithm>

#include "src/common/check.h"

namespace halfmoon::storage {

uint64_t BlockBuffer::Append(std::string_view bytes) {
  uint64_t offset = tail();
  held_.append(bytes);
  return offset;
}

void BlockBuffer::FlushTo(uint64_t upto) {
  upto = std::min<uint64_t>(upto, tail());
  if (upto <= durable_) return;
  device_->WriteBlocks(held_base_, std::string_view(held_).substr(0, upto - held_base_));
  durable_ = upto;
  uint64_t new_base = (durable_ / kBlockSize) * kBlockSize;
  held_.erase(0, new_base - held_base_);
  held_base_ = new_base;
}

void BlockBuffer::DropVolatile() {
  HM_CHECK(durable_ <= tail());
  held_.resize(durable_ - held_base_);
}

uint64_t BlockBuffer::TruncatePrefix(uint64_t offset) {
  HM_CHECK_MSG(offset <= durable_, "prefix truncation into the volatile tail");
  if (offset <= retained_) return 0;
  retained_ = offset;
  // The device's new base is `offset` rounded down to a block, never above held_base_: the
  // buffer keeps nothing below it, so it has nothing to release.
  return device_->TruncatePrefix(offset);
}

}  // namespace halfmoon::storage
