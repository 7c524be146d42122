#include "src/storage/block_device.h"

#include <cstring>

namespace halfmoon::storage {

void BlockDevice::WriteBlocks(uint64_t offset, std::string_view data) {
  HM_CHECK_MSG(offset % kBlockSize == 0, "unaligned block write");
  HM_CHECK_MSG(offset >= base_, "block write below the truncated base");
  if (data.empty()) return;
  uint64_t end = offset + data.size();
  // With no page held (a fresh device, or truncation freed them all) the run of pages starts
  // at the write's own page.
  if (pages_.empty()) first_page_ = offset / kPageSize;
  while ((first_page_ + pages_.size()) * kPageSize < end) {
    pages_.push_back(std::make_unique_for_overwrite<char[]>(kPageSize));
  }
  size_ = std::max(size_, end);
  for (uint64_t at = offset; at < end;) {
    uint64_t in_page = at % kPageSize;
    uint64_t take = std::min(end - at, kPageSize - in_page);
    std::memcpy(PageAt(at) + in_page, data.data() + (at - offset), take);
    at += take;
  }
  int64_t blocks = static_cast<int64_t>((data.size() + kBlockSize - 1) / kBlockSize);
  stats_.block_writes += blocks;
  stats_.bytes_written += blocks * static_cast<int64_t>(kBlockSize);
}

std::string_view BlockDevice::Read(uint64_t offset, uint64_t n) const {
  CheckReadable(offset, n);
  if (n == 0) return {};
  uint64_t in_page = offset % kPageSize;
  if (in_page + n <= kPageSize) return std::string_view(PageAt(offset) + in_page, n);
  scratch_.clear();
  ForEachPiece(offset, n, [&](std::string_view piece) { scratch_.append(piece); });
  return scratch_;
}

uint64_t BlockDevice::TruncatePrefix(uint64_t offset) {
  uint64_t aligned = (offset / kBlockSize) * kBlockSize;
  if (aligned <= base_) return 0;
  HM_CHECK_MSG(aligned <= size_, "prefix truncation past the device end");
  uint64_t freed = aligned - base_;
  base_ = aligned;
  while (!pages_.empty() && (first_page_ + 1) * kPageSize <= aligned) {
    pages_.pop_front();
    ++first_page_;
  }
  stats_.bytes_dropped += static_cast<int64_t>(freed);
  return freed;
}

}  // namespace halfmoon::storage
