#include "src/sharedlog/log_recovery.h"

#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/storage/durability.h"

namespace halfmoon::sharedlog {

namespace {

// Decoded kRecord / kCkptRecord payload (they share one encoding).
struct DecodedRecord {
  SeqNum seqnum = 0;
  std::vector<TagId> tags;
  FieldMap fields;
};

DecodedRecord DecodeRecord(storage::Cursor* cursor) {
  DecodedRecord r;
  r.seqnum = cursor->U64();
  uint32_t ntags = cursor->U32();
  r.tags.reserve(ntags);
  for (uint32_t t = 0; t < ntags; ++t) r.tags.push_back(cursor->U64());
  uint32_t nfields = cursor->U32();
  r.fields.Reserve(nfields);
  for (uint32_t f = 0; f < nfields; ++f) {
    const FieldId key = InternField(cursor->Str());
    if (cursor->U8() == 0) {
      r.fields.SetInt(key, static_cast<int64_t>(cursor->U64()));
    } else {
      r.fields.SetStr(key, std::string(cursor->Str()));
    }
  }
  return r;
}

// Replays one journal frame. `fuzzy` is false on the full-replay path (strict in-order
// asserts preserved) and true on the replay-suffix path.
void ReplayJournalFrame(SimTime now, ShardedLog* log, bool fuzzy, storage::FrameType type,
                        storage::Cursor cursor) {
  switch (type) {
    case storage::FrameType::kTagDef: {
      TagId id = cursor.U64();
      log->VerifyTagDef(id, cursor.Str());
      break;
    }
    case storage::FrameType::kRecord: {
      DecodedRecord r = DecodeRecord(&cursor);
      log->RestoreRecord(now, r.seqnum, std::move(r.tags), std::move(r.fields), fuzzy);
      break;
    }
    case storage::FrameType::kTrim: {
      TagId tag = cursor.U64();
      SeqNum upto = cursor.U64();
      size_t base_after = static_cast<size_t>(cursor.U64());
      log->RestoreTrim(now, tag, upto, base_after);
      break;
    }
    case storage::FrameType::kRetire: {
      TagId tag = cursor.U64();
      log->RestoreRetire(now, tag, cursor.U64());
      break;
    }
    default:
      HM_CHECK_MSG(false, "unexpected frame type in the log journal");
  }
}

void InstallImageFrame(SimTime now, ShardedLog* log, storage::FrameType type,
                       storage::Cursor cursor) {
  switch (type) {
    case storage::FrameType::kCkptRecord: {
      DecodedRecord r = DecodeRecord(&cursor);
      log->RestoreCheckpointRecord(now, r.seqnum, std::move(r.tags), std::move(r.fields));
      break;
    }
    case storage::FrameType::kCkptTagStream: {
      TagId tag = cursor.U64();
      size_t base = static_cast<size_t>(cursor.U64());
      uint32_t n = cursor.U32();
      std::vector<SeqNum> seqnums;
      seqnums.reserve(n);
      for (uint32_t i = 0; i < n; ++i) seqnums.push_back(cursor.U64());
      log->RestoreCheckpointStream(now, tag, base, seqnums);
      break;
    }
    default:
      HM_CHECK_MSG(false, "unexpected frame type in a log checkpoint image");
  }
}

}  // namespace

LogRecoveryStats RestoreLogFromJournal(SimTime now, ShardedLog* log,
                                       const storage::DurabilityService* journal,
                                       const storage::CheckpointStore* ckpt) {
  log->ResetVolatile(now);
  LogRecoveryStats stats = storage::RecoverFromJournal(
      storage::kCkptLogDomain, *journal, ckpt,
      [&](storage::FrameType type, storage::Cursor cursor) {
        InstallImageFrame(now, log, type, cursor);
      },
      [&](storage::FrameType type, storage::Cursor cursor, bool fuzzy) {
        ReplayJournalFrame(now, log, fuzzy, type, cursor);
      });
  // Truncation (or trims) can erase the highest durable records; the allocator must still
  // never re-issue their seqnums.
  log->EnsureWatermark(stats.watermark_floor);
  log->EnsureWatermark(journal->durable_seq());
  log->FinishReplay(now);
  return stats;
}

}  // namespace halfmoon::sharedlog
