#include "src/storage/durability.h"

#include "src/common/check.h"

namespace halfmoon::storage {

uint64_t DurabilityService::AppendFrame(FrameType type, std::string_view payload) {
  uint64_t end = storage::AppendFrame(&buffer_, type, payload);
  ++stats_.frames;
  stats_.appended_bytes += static_cast<int64_t>(kFrameHeaderBytes + payload.size());
  MaybeStartFlush();
  return end;
}

void DurabilityService::NoteCommit(uint64_t seqnum, uint64_t end_offset) {
  if (!pending_commits_.empty()) {
    HM_CHECK_MSG(seqnum > pending_commits_.back().first &&
                     end_offset >= pending_commits_.back().second,
                 "commits must be noted in append order");
  }
  HM_CHECK(seqnum > durable_seq_);
  pending_commits_.emplace_back(seqnum, end_offset);
}

void DurabilityService::WhenDurable(uint64_t seqnum, std::function<void()> fn) {
  if (SeqDurable(seqnum)) {
    fn();
    return;
  }
  if (!callbacks_.empty()) {
    HM_CHECK_MSG(seqnum >= callbacks_.back().first,
                 "WhenDurable registrations must arrive in commit order");
  }
  callbacks_.emplace_back(seqnum, std::move(fn));
}

void DurabilityService::AddWaiter(Waiter* w) {
  w->next = nullptr;
  if (waiters_tail_ == nullptr) {
    waiters_head_ = waiters_tail_ = w;
  } else {
    waiters_tail_->next = w;
    waiters_tail_ = w;
  }
}

void DurabilityService::MaybeStartFlush() {
  if (flush_inflight_ || buffer_.tail() == buffer_.durable()) return;
  flush_inflight_ = true;
  scheduler_->Spawn(FlushLoop(epoch_));
}

sim::Task<void> DurabilityService::FlushLoop(uint64_t epoch) {
  while (true) {
    // Snapshot the tail, then pay one flush. Frames appended while the flush is in flight are
    // beyond the snapshot and ride the next round — the natural group-flush.
    uint64_t target = buffer_.tail();
    co_await scheduler_->Delay(models_->durable_flush.Sample(rng_));
    if (epoch != epoch_) co_return;  // Killed mid-flush: the write never reached the device.
    buffer_.FlushTo(target);
    ++stats_.flushes;
    AdvanceDurable();
    if (buffer_.durable() == buffer_.tail()) {
      flush_inflight_ = false;
      co_return;
    }
  }
}

void DurabilityService::AdvanceDurable() {
  while (!pending_commits_.empty() && pending_commits_.front().second <= buffer_.durable()) {
    durable_seq_ = pending_commits_.front().first;
    pending_commits_.pop_front();
  }
  // Resume satisfied waiters in registration order. Extraction happens before any resume so a
  // resumed coroutine registering a NEW waiter never perturbs this walk.
  Waiter* satisfied_head = nullptr;
  Waiter* satisfied_tail = nullptr;
  Waiter* remaining_head = nullptr;
  Waiter* remaining_tail = nullptr;
  for (Waiter* w = waiters_head_; w != nullptr;) {
    Waiter* next = w->next;
    w->next = nullptr;
    bool done = w->by_seq ? SeqDurable(w->threshold) : buffer_.durable() >= w->threshold;
    Waiter*& head = done ? satisfied_head : remaining_head;
    Waiter*& tail = done ? satisfied_tail : remaining_tail;
    if (tail == nullptr) {
      head = tail = w;
    } else {
      tail->next = w;
      tail = w;
    }
    w = next;
  }
  waiters_head_ = remaining_head;
  waiters_tail_ = remaining_tail;
  for (Waiter* w = satisfied_head; w != nullptr;) {
    Waiter* next = w->next;
    scheduler_->PostResume(0, w->handle);
    w = next;
  }
  while (!callbacks_.empty() && SeqDurable(callbacks_.front().first)) {
    std::function<void()> fn = std::move(callbacks_.front().second);
    callbacks_.pop_front();
    fn();
  }
}

void DurabilityService::Kill() {
  kill_frontiers_.push_back(durable_seq_);
  ++epoch_;
  flush_inflight_ = false;
  buffer_.DropVolatile();
  // Remaining commit notes all sit past the durable frontier (AdvanceDurable pops the rest).
  pending_commits_.clear();
  stats_.dropped_callbacks += static_cast<int64_t>(callbacks_.size());
  callbacks_.clear();
  Waiter* w = waiters_head_;
  waiters_head_ = waiters_tail_ = nullptr;
  while (w != nullptr) {
    Waiter* next = w->next;
    w->next = nullptr;
    w->ok = false;
    ++stats_.failed_waits;
    scheduler_->PostResume(0, w->handle);
    w = next;
  }
  ++stats_.kills;
}

}  // namespace halfmoon::storage
