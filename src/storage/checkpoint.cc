#include "src/storage/checkpoint.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace halfmoon::storage {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// One manifest payload: u8 domain + 5 × u64.
constexpr uint64_t kManifestPayloadBytes = 1 + 5 * 8;

// Walks whole frames of [from, upto), reporting each frame's offset. Returns true when the
// frames exactly tile the range — the structural-integrity half of image validation (the
// checksum is the other half).
bool WalkFrames(const BlockBuffer& buffer, uint64_t from, uint64_t upto,
                const std::function<void(uint64_t, FrameType, Cursor)>& fn) {
  uint64_t off = from;
  while (off + kFrameHeaderBytes <= upto) {
    Cursor header(buffer.ReadDurable(off, kFrameHeaderBytes));
    uint64_t len = header.U32();
    FrameType type = static_cast<FrameType>(header.U8());
    if (off + kFrameHeaderBytes + len > upto) return false;
    fn(off, type, Cursor(buffer.ReadDurable(off + kFrameHeaderBytes, len)));
    off += kFrameHeaderBytes + len;
  }
  return off == upto;
}

}  // namespace

void CheckpointStore::CorruptDurableByteForTest(uint64_t offset) {
  HM_CHECK(offset >= device_.base() && offset < buffer_.durable());
  uint64_t block = (offset / kBlockSize) * kBlockSize;
  uint64_t n = std::min(kBlockSize, buffer_.durable() - block);
  std::string contents(device_.Read(block, n));
  contents[offset - block] = static_cast<char>(contents[offset - block] ^ 0xff);
  device_.WriteBlocks(block, contents);
}

std::string EncodeManifest(const CheckpointManifest& m) {
  std::string payload;
  PutU8(&payload, m.domain);
  PutU64(&payload, m.cut);
  PutU64(&payload, m.image_start);
  PutU64(&payload, m.frame_count);
  PutU64(&payload, m.checksum);
  PutU64(&payload, m.watermark_floor);
  return payload;
}

CheckpointManifest DecodeManifest(Cursor cursor) {
  CheckpointManifest m;
  m.domain = cursor.U8();
  m.cut = cursor.U64();
  m.image_start = cursor.U64();
  m.frame_count = cursor.U64();
  m.checksum = cursor.U64();
  m.watermark_floor = cursor.U64();
  return m;
}

uint64_t ChecksumImage(const CheckpointStore& store, uint64_t from, uint64_t upto) {
  uint64_t h = kFnvOffset;
  store.device().ForEachPiece(from, upto - from, [&h](std::string_view piece) {
    for (char c : piece) h = (h ^ static_cast<uint8_t>(c)) * kFnvPrime;
  });
  return h;
}

bool FindLatestValidManifest(const CheckpointStore& store, uint8_t domain,
                             InstalledManifest* out, int* rejected) {
  // Pass 1: collect every manifest candidate in the durable prefix. The scan tolerates
  // garbage (abandoned rounds, corrupted images): a desynced walk can at worst hide
  // manifests ABOVE the corruption — older ones were already collected.
  struct Candidate {
    CheckpointManifest manifest;
    uint64_t frame_offset;
  };
  std::vector<Candidate> candidates;
  WalkFrames(store.buffer(), store.retained(), store.durable(),
             [&](uint64_t off, FrameType type, Cursor cursor) {
               if (type != FrameType::kCkptManifest) return;
               CheckpointManifest m = DecodeManifest(cursor);
               if (m.domain != domain) return;
               candidates.push_back({m, off});
             });

  // Pass 2: newest first, install the first image that validates.
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    const CheckpointManifest& m = it->manifest;
    uint64_t image_end = it->frame_offset;
    bool sane = m.image_start >= store.retained() && m.image_start <= image_end;
    if (sane) {
      uint64_t frames = 0;
      bool tiled = WalkFrames(store.buffer(), m.image_start, image_end,
                              [&](uint64_t, FrameType type, Cursor) {
                                if (type != FrameType::kCkptManifest) ++frames;
                              });
      if (tiled && frames == m.frame_count &&
          ChecksumImage(store, m.image_start, image_end) == m.checksum) {
        out->manifest = m;
        out->image_end = image_end;
        return true;
      }
    }
    if (rejected != nullptr) ++*rejected;
  }
  return false;
}

void ReplayImage(const CheckpointStore& store, const InstalledManifest& m,
                 const std::function<void(FrameType, Cursor)>& fn) {
  bool tiled = WalkFrames(store.buffer(), m.manifest.image_start, m.image_end,
                          [&](uint64_t, FrameType type, Cursor cursor) { fn(type, cursor); });
  HM_CHECK_MSG(tiled, "validated checkpoint image no longer tiles its span");
}

RecoveryStats RecoverFromJournal(
    uint8_t domain, const DurabilityService& journal, const CheckpointStore* ckpt,
    const std::function<void(FrameType, Cursor)>& install_image,
    const std::function<void(FrameType, Cursor, bool fuzzy)>& replay_frame) {
  RecoveryStats stats;
  InstalledManifest manifest;
  if (ckpt != nullptr &&
      FindLatestValidManifest(*ckpt, domain, &manifest, &stats.manifests_rejected)) {
    stats.used_checkpoint = true;
    stats.watermark_floor = manifest.manifest.watermark_floor;
    ReplayImage(*ckpt, manifest, [&](FrameType type, Cursor cursor) {
      install_image(type, cursor);
      ++stats.image_frames;
    });
    journal.Replay(manifest.manifest.cut, [&](FrameType type, Cursor cursor) {
      replay_frame(type, cursor, /*fuzzy=*/true);
      ++stats.suffix_frames;
    });
    return stats;
  }
  HM_CHECK_MSG(journal.retained_offset() == 0,
               domain == kCkptLogDomain
                   ? "log journal was compacted but no valid checkpoint manifest exists"
                   : "kv journal was compacted but no valid checkpoint manifest exists");
  journal.Replay([&](FrameType type, Cursor cursor) {
    replay_frame(type, cursor, /*fuzzy=*/false);
    ++stats.suffix_frames;
  });
  return stats;
}

bool CheckpointService::TriggerRound() {
  if (inflight_ || targets_.empty()) return false;
  inflight_ = true;
  ++stats_.rounds_started;
  inflight_floor_ = std::numeric_limits<uint64_t>::max();
  for (const Target& t : targets_) {
    if (t.domain == kCkptLogDomain) {
      inflight_floor_ = std::min(inflight_floor_, t.watermark_floor());
    }
  }
  last_trigger_bytes_ = TotalJournalBytes();
  scheduler_->Spawn(RunRound(epoch_));
  return true;
}

void CheckpointService::MaybeAutoTrigger() {
  if (auto_trigger_bytes_ <= 0 || inflight_) return;
  if (TotalJournalBytes() - last_trigger_bytes_ >= auto_trigger_bytes_) TriggerRound();
}

void CheckpointService::Kill() {
  ++epoch_;
  if (inflight_) {
    inflight_ = false;
    ++stats_.rounds_abandoned;
  }
  for (Target& t : targets_) t.store->DropVolatile();
}

uint64_t CheckpointService::CheckpointBound() const {
  if (!inflight_ || inflight_floor_ == std::numeric_limits<uint64_t>::max()) {
    return std::numeric_limits<uint64_t>::max();
  }
  return inflight_floor_ + 1;  // Exclusive bound, matching DurableTrimBound's convention.
}

int64_t CheckpointService::TotalJournalBytes() const {
  int64_t total = 0;
  for (const Target& t : targets_) total += t.journal->stats().appended_bytes;
  return total;
}

sim::Task<void> CheckpointService::RunRound(uint64_t epoch) {
  // A kill can land between TriggerRound and the spawned coroutine's first execution; the
  // stale round must not walk post-recovery state on behalf of a dead daemon.
  if (epoch != epoch_) co_return;
  bool ok = true;
  for (size_t i = 0; ok && i < targets_.size(); ++i) {
    ok = co_await CheckpointTarget(&targets_[i], epoch);
  }
  if (epoch != epoch_) co_return;  // Kill() already settled the round's bookkeeping.
  inflight_ = false;
  if (ok) {
    ++stats_.rounds_completed;
  } else {
    ++stats_.rounds_abandoned;
  }
}

sim::Task<bool> CheckpointService::CheckpointTarget(Target* t, uint64_t epoch) {
  // The cut: everything below it was applied before the walk starts, so the image covers it;
  // every mutation at or above it is replayed on top of the image (fuzzily, idempotently).
  uint64_t cut = t->journal->durable_offset();
  uint64_t image_start = t->store->tail();
  HM_CHECK_MSG(image_start == t->store->durable(),
               "checkpoint store has an unflushed tail at round start");
  t->begin_walk();
  int64_t frame_count = 0;
  while (true) {
    int64_t frames = 0;
    bool done = t->write_slice(t->store, slice_budget_, &frames);
    frame_count += frames;
    stats_.image_frames += frames;
    ++stats_.slices;
    if (Probe("ckpt.write")) {  // Daemon dies before the slice's flush.
      t->store->DropVolatile();
      co_return false;
    }
    t->store->Flush();
    if (done) break;
    // Yield between slices so foreground traffic interleaves with the walk — this is what
    // makes the image fuzzy, and what keeps appends acking during a checkpoint.
    co_await scheduler_->Delay(models_->durable_flush.Sample(rng_));
    if (epoch != epoch_) co_return false;
  }

  // The fuzzy image may reflect appends up to the CURRENT journal tail. The manifest must
  // not land before the journal covers them: otherwise a crash now could recover image state
  // the journal never made durable, breaking the write-ahead contract.
  uint64_t walk_end_tail = t->journal->tail_offset();
  if (walk_end_tail > t->journal->durable_offset()) {
    bool covered = co_await t->journal->WaitOffset(walk_end_tail);
    if (!covered || epoch != epoch_) co_return false;
  }

  uint64_t image_end = t->store->tail();
  CheckpointManifest m;
  m.domain = t->domain;
  m.cut = cut;
  m.image_start = image_start;
  m.frame_count = static_cast<uint64_t>(frame_count);
  m.checksum = ChecksumImage(*t->store, image_start, image_end);
  m.watermark_floor = t->watermark_floor();
  HM_CHECK(EncodeManifest(m).size() == kManifestPayloadBytes);
  t->store->AppendFrame(FrameType::kCkptManifest, EncodeManifest(m));
  t->store->Flush();
  ++stats_.manifests_written;
  if (Probe("ckpt.install")) co_return false;  // Manifest durable; truncation never ran.

  uint64_t journal_before = t->journal->retained_offset();
  if (cut > journal_before) {
    t->journal->TruncateTo(cut);
    stats_.journal_bytes_truncated += static_cast<int64_t>(cut - journal_before);
  }
  if (Probe("ckpt.truncate")) co_return false;  // Superseded images linger; still valid.

  uint64_t store_before = t->store->retained();
  if (m.image_start > store_before) {
    t->store->TruncatePrefix(m.image_start);
    stats_.store_bytes_truncated += static_cast<int64_t>(m.image_start - store_before);
  }
  co_return true;
}

}  // namespace halfmoon::storage
