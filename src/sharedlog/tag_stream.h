// One tag's sub-stream index: the seqnums of the live records appended under the tag, in
// commit order. TagRegistry keeps one in every id's slot; ShardedLog fills, trims and reads
// it.

#ifndef HALFMOON_SHAREDLOG_TAG_STREAM_H_
#define HALFMOON_SHAREDLOG_TAG_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/sharedlog/log_record.h"

namespace halfmoon::sharedlog {

// The live (untrimmed) seqnums are entries[head..], in order; entries[0, head) were trimmed
// and await compaction. The logical offset of live entry i in the stream's full history is
// base + i, so logical offsets for logCondAppend are stable positions even after the trimmed
// prefix is compacted away. An empty stream owns no buffer.
struct TagStream {
  std::vector<SeqNum> entries;
  // Number of entries trimmed from the front of the stream's history.
  size_t base = 0;
  // Last, and 32 bits wide (a stream never holds 2^32 untrimmed seqnums, 32 GiB), so the
  // owning slot can keep its own fields in the struct's tail padding (TagRegistry::Slot).
  uint32_t head = 0;

  const SeqNum* begin() const { return entries.data() + head; }
  const SeqNum* end() const { return entries.data() + entries.size(); }
  size_t size() const { return entries.size() - head; }
  bool empty() const { return head == entries.size(); }
  SeqNum back() const { return entries.back(); }
  SeqNum operator[](size_t i) const { return entries[head + i]; }
  size_t length() const { return base + size(); }
  // Inserts `seqnum` before live entry `i` (sorted insert; fuzzy replay only).
  void InsertAt(size_t i, SeqNum seqnum) {
    entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(head + i), seqnum);
  }
  // Drops the first `n` live entries (their refs already released). The dead prefix is
  // erased in one step once it outweighs the live suffix, so trimming costs amortized O(1)
  // per entry; a stream left empty gives its buffer back.
  void DropFront(size_t n) {
    head += static_cast<uint32_t>(n);
    if (head == entries.size()) {
      std::vector<SeqNum>().swap(entries);  // Fully trimmed: give the buffer back.
      head = 0;
    } else if (head >= entries.size() - head) {
      entries.erase(entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
};

// Slot-page compaction moves streams between arrays (sparse_pages.h).
static_assert(std::is_nothrow_move_constructible_v<TagStream>);

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_TAG_STREAM_H_
