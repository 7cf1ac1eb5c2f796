#include "runtime/sync_extra.hpp"

#include <climits>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "runtime/internal.hpp"
#include "runtime/park.hpp"
#include "runtime/worker.hpp"

namespace lpt {

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------
//
// Reader path. A reader adds 1 to the reader slot of the worker it runs on,
// then loads writer_word_; if no writer holds or waits, it is in, having
// written only its own worker's slot. It leaves by subtracting 1 from the
// slot of the worker it runs on *now*, which after a migration is another
// slot (a slot may go negative; only the sum over slots counts readers). A
// writer takes guard_, stores writer_word_ and only then sums the slots.
//
// Ordering (the Dekker pattern, as in Runtime::notify_work). The reader's
// slot RMW and its load of writer_word_, and the writer's store of
// writer_word_ and its loads of the slots, are all seq_cst, so they sit in
// one total order:
//  * A reader whose increment precedes the announcement is seen by the
//    writer's sum, and a reader whose increment follows it loads the
//    announcement and backs out (subtracting from the same slot: it cannot
//    migrate inside begin_no_preempt). So every reader that got in counts
//    +1 in the sum, and -1 more only once it has left: the sum is 0 exactly
//    when no reader holds a share. (An entry that is backing out may count
//    +1 too; that only delays the writer.)
//  * A writer that found readers parks in waiting_writers_ before it drops
//    guard_. A reader's decrement the writer's sum missed comes after the
//    announcement in the total order, so that reader's load sees the
//    announcement and it takes guard_ and re-sums (reader_left). The last
//    decrement is followed by such a re-sum, which reads 0 and hands the
//    waiting writer the lock. A reader backing out runs reader_left too.
// The writer's cost is O(kReaderSlots) loads per acquire; the reader's is
// two operations on lines no other worker's reader writes.

std::atomic<long>& RwLock::reader_slot() {
  const Worker* w = worker_tls()->worker;
  const unsigned rank = w != nullptr ? static_cast<unsigned>(w->rank) : 0u;
  return slots_[rank % kReaderSlots].n;
}

bool RwLock::readers_drained_locked() const {
  long sum = 0;
  for (const ReaderSlot& s : slots_) sum += s.n.load(std::memory_order_seq_cst);
  // Under an announcement every reader counts >= 0 (see above), so a
  // negative sum means an unlock_shared without a matching lock_shared.
  LPT_CHECK_MSG(sum >= 0, "unlock_shared without shared lock");
  return sum == 0;
}

park::ResourceState* RwLock::resource() {
  if (!park::armed()) return nullptr;
  park::ResourceState* rs = res_.load(std::memory_order_acquire);
  if (rs != nullptr) return rs;
  guard_.lock();
  rs = res_.load(std::memory_order_relaxed);
  if (rs == nullptr) {
    rs = park::acquire_resource(
        static_cast<std::uint8_t>(prof::WaitKind::kRwLock), this,
        &RwLock::abandon_cb);
    res_.store(rs, std::memory_order_release);
  }
  guard_.unlock();
  return rs;
}

ThreadCtl* RwLock::grant_writer_locked() {
  ThreadCtl* w = waiting_writers_.front();
  waiting_writers_.erase(waiting_writers_.begin());
  writer_ = true;
  write_owner_ = w;
  park::add_owner(res_.load(std::memory_order_relaxed), w);
  return w;
}

void RwLock::admit_readers_locked(std::vector<ThreadCtl*>& readers_next) {
  if (!waiting_readers_.empty()) {
    // Count the shares on the waking readers' behalf (any slot will do), and
    // make each one a tracked owner before its wake (edges never dangle).
    reader_slot().fetch_add(static_cast<long>(waiting_readers_.size()),
                            std::memory_order_seq_cst);
    park::ResourceState* rs = res_.load(std::memory_order_relaxed);
    for (ThreadCtl* r : waiting_readers_) park::add_owner(rs, r);
    readers_next.swap(waiting_readers_);
  }
  writer_word_.store(0, std::memory_order_seq_cst);
}

ThreadCtl* RwLock::release_write_locked(
    std::vector<ThreadCtl*>& readers_next) {
  if (!waiting_writers_.empty()) return grant_writer_locked();  // handoff
  writer_ = false;
  admit_readers_locked(readers_next);
  return nullptr;
}

ThreadCtl* RwLock::settle_locked(std::vector<ThreadCtl*>& readers_next) {
  if (writer_) return nullptr;
  if (!waiting_writers_.empty())
    return readers_drained_locked() ? grant_writer_locked() : nullptr;
  admit_readers_locked(readers_next);
  return nullptr;
}

void RwLock::reader_left() {
  std::vector<ThreadCtl*> readers_next;
  guard_.lock();
  ThreadCtl* writer_next = settle_locked(readers_next);
  guard_.unlock();
  if (writer_next != nullptr) detail::wake(writer_next);
  detail::wake_all(readers_next);
}

void RwLock::lock_shared() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self =
      detail::require_ult("RwLock::lock_shared outside ULT context");
  detail::begin_no_preempt(self);
  for (;;) {
    std::atomic<long>& slot = reader_slot();
    slot.fetch_add(1, std::memory_order_seq_cst);
    if (writer_word_.load(std::memory_order_seq_cst) == 0) {
      park::add_owner(resource(), self);
      detail::end_no_preempt(self);
      return;
    }
    // Writer preference: back out and queue behind the writer. Backing out
    // may be what drains the readers a parked writer waits for, so settle
    // the lock first, as reader_left() does.
    slot.fetch_sub(1, std::memory_order_seq_cst);
    std::vector<ThreadCtl*> readers_next;
    guard_.lock();
    ThreadCtl* const writer_next = settle_locked(readers_next);
    if (writer_next != nullptr ||
        writer_word_.load(std::memory_order_relaxed) == 0) {
      // Handed the lock on, or the writer is gone: retry the fast path.
      guard_.unlock();
      if (writer_next != nullptr) detail::wake(writer_next);
      detail::wake_all(readers_next);
      continue;
    }
    if (write_owner_ == self && park::armed() && self->no_preempt_depth == 1) {
      // Write-then-read self-deadlock, like Mutex::lock. (Read-then-write
      // upgrades are left to the periodic detector: self shows up among
      // res_->owners, closing the cycle.)
      guard_.unlock();
      detail::self_deadlock(self, prof::WaitKind::kRwLock);
      continue;
    }
    waiting_readers_.push_back(self);
    if (detail::block(self, {.kind = prof::WaitKind::kRwLock, .site = site,
                             .guard = &guard_, .waiters = &waiting_readers_,
                             .res = res_.load(std::memory_order_relaxed)}) ==
        detail::Wake::kBroken) {
      // Deadlock breaker cancelled us out of the wait: no share was handed
      // to us. Terminate at the cancellation point, or retry if unwindable.
      detail::end_no_preempt(self);  // cancellation point: usually no return
      detail::begin_no_preempt(self);
      continue;
    }
    detail::end_no_preempt(self);
    // The releaser counted our share and recorded us (direct handoff).
    return;
  }
}

void RwLock::unlock_shared() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  if (self != nullptr)
    park::remove_owner(res_.load(std::memory_order_acquire), self);
  reader_slot().fetch_sub(1, std::memory_order_seq_cst);
  if (writer_word_.load(std::memory_order_seq_cst) != 0) reader_left();
  detail::end_no_preempt(self);
}

void RwLock::lock() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self = detail::require_ult("RwLock::lock outside ULT context");
  detail::begin_no_preempt(self);
  for (;;) {
    park::ResourceState* const rs = resource();
    guard_.lock();
    if (!writer_ && waiting_writers_.empty()) {
      // Announce, then count the readers (the Dekker pair above).
      writer_word_.store(1, std::memory_order_seq_cst);
      if (readers_drained_locked()) {
        writer_ = true;
        write_owner_ = self;
        park::add_owner(rs, self);
        guard_.unlock();
        detail::end_no_preempt(self);
        return;
      }
      // Readers hold shares: the last one out hands over (reader_left).
    } else if (write_owner_ == self && park::armed() &&
               self->no_preempt_depth == 1) {
      guard_.unlock();  // write-after-write self-deadlock
      detail::self_deadlock(self, prof::WaitKind::kRwLock);
      continue;
    }
    waiting_writers_.push_back(self);
    // Direct handoff: the releaser sets writer_/write_owner_ on our behalf.
    if (detail::block(self, {.kind = prof::WaitKind::kRwLock, .site = site,
                             .guard = &guard_, .waiters = &waiting_writers_,
                             .res = rs}) == detail::Wake::kBroken) {
      // Deadlock breaker cancelled us out of the wait: we do NOT own the
      // lock. Our announcement may be all that holds readers back, so pass
      // the lock on as if we had left, then terminate at the cancellation
      // point, or retry if unwindable.
      reader_left();
      detail::end_no_preempt(self);  // cancellation point: usually no return
      detail::begin_no_preempt(self);
      continue;
    }
    detail::end_no_preempt(self);
    return;
  }
}

void RwLock::unlock() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  guard_.lock();
  LPT_CHECK_MSG(writer_, "RwLock::unlock without write lock");
  park::remove_owner(res_.load(std::memory_order_relaxed), write_owner_);
  write_owner_ = nullptr;
  std::vector<ThreadCtl*> readers_next;
  ThreadCtl* const writer_next = release_write_locked(readers_next);
  guard_.unlock();
  if (writer_next != nullptr) detail::wake(writer_next);
  detail::wake_all(readers_next);
  detail::end_no_preempt(self);
}

bool RwLock::abandon(ThreadCtl* dead, bool release) {
  // Finalize context: `dead` has already been CAS-cleared from res_->owners,
  // so the add_owner calls below land in free slots.
  ThreadCtl* writer_next = nullptr;
  std::vector<ThreadCtl*> readers_next;
  guard_.lock();
  if (writer_ && write_owner_ == dead) {
    // Dead writer. Always clear the address (it is about to dangle); only
    // force-unlock when release mode is on.
    write_owner_ = nullptr;
    if (!release) {
      guard_.unlock();
      return false;
    }
    writer_next = release_write_locked(readers_next);
  } else if (!writer_) {
    // Dead reader (it was recorded in res_->owners, so it held a share).
    // Readers past the owner-slot cap were never recorded — an overflowed
    // rwlock under-releases, which the overflow flag already declares.
    if (!release) {
      guard_.unlock();
      return false;
    }
    reader_slot().fetch_sub(1, std::memory_order_seq_cst);
    writer_next = settle_locked(readers_next);
  } else {
    guard_.unlock();  // another writer holds the lock: `dead` held nothing
    return false;
  }
  guard_.unlock();
  if (writer_next != nullptr) detail::wake(writer_next, dead->trace_id);
  detail::wake_all(readers_next, dead->trace_id);
  return true;
}

bool RwLock::abandon_cb(void* primitive, ThreadCtl* dead, bool release) {
  return static_cast<RwLock*>(primitive)->abandon(dead, release);
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

void Semaphore::acquire() {
  (void)acquire_until(kNoDeadline, __builtin_return_address(0));
}

bool Semaphore::try_acquire() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  guard_.lock();
  const bool got = count_ > 0;
  if (got) --count_;
  guard_.unlock();
  detail::end_no_preempt(self);
  return got;
}

bool Semaphore::try_acquire_for(std::chrono::nanoseconds timeout) {
  return acquire_until(now_ns() + (timeout.count() > 0 ? timeout.count() : 0),
                       __builtin_return_address(0));
}

bool Semaphore::acquire_until(std::int64_t deadline, void* site) {
  ThreadCtl* self =
      detail::require_ult("Semaphore::acquire outside ULT context");
  detail::cancel_point(self);  // before a unit is taken
  detail::begin_no_preempt(self);
  guard_.lock();
  if (count_ > 0 || (deadline != kNoDeadline && now_ns() >= deadline)) {
    const bool got = count_ > 0;
    if (got) --count_;
    guard_.unlock();
    detail::end_no_preempt(self);
    return got;
  }
  waiters_.push_back(self);
  // No owner edge: semaphore units have no owner, so a semaphore waiter can
  // never be a cycle member. Expiry races release() under guard_; a waiter
  // release() removed was handed a unit (direct handoff), so a timeout can
  // never coexist with an owed unit.
  const detail::Wake r = detail::block(
      self, {.kind = prof::WaitKind::kSemaphore, .site = site,
             .guard = &guard_, .waiters = &waiters_, .deadline = deadline});
  detail::end_no_preempt(self);  // cancellation point
  return r != detail::Wake::kTimedOut;
}

void Semaphore::release(int n) {
  LPT_CHECK(n >= 1);
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  std::vector<ThreadCtl*> to_wake;
  {
    SpinlockGuard g(guard_);
    while (n > 0 && !waiters_.empty()) {
      to_wake.push_back(waiters_.front());
      waiters_.erase(waiters_.begin());
      --n;
    }
    count_ += n;
  }
  detail::wake_all(to_wake);
  detail::end_no_preempt(self);
}

// ---------------------------------------------------------------------------
// Latch
// ---------------------------------------------------------------------------

void Latch::count_down(int n) {
  LPT_CHECK(n >= 1);
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  std::vector<ThreadCtl*> to_wake;
  bool fired = false;
  {
    SpinlockGuard g(guard_);
    LPT_CHECK_MSG(remaining_ >= n, "Latch::count_down below zero");
    remaining_ -= n;
    if (remaining_ == 0) {
      fired = true;
      to_wake.swap(waiters_);
      done_.store(1, std::memory_order_release);
    }
  }
  if (fired) futex_wake(&done_, INT_MAX);
  detail::wake_all(to_wake);
  detail::end_no_preempt(self);
}

void Latch::wait() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self = detail::current_ult_or_null();
  if (self == nullptr) {
    // External kernel thread: futex on the done word.
    while (done_.load(std::memory_order_acquire) == 0) futex_wait(&done_, 0);
    return;
  }
  detail::begin_no_preempt(self);
  guard_.lock();
  if (done_.load(std::memory_order_acquire) != 0) {
    guard_.unlock();
    detail::end_no_preempt(self);
    return;
  }
  waiters_.push_back(self);
  // No owner edge: latches count down, nobody "holds" them.
  detail::block(self, {.kind = prof::WaitKind::kLatch, .site = site,
                       .guard = &guard_, .waiters = &waiters_});
  detail::end_no_preempt(self);
}

// ---------------------------------------------------------------------------
// WaitGroup
// ---------------------------------------------------------------------------

void WaitGroup::add(int n) {
  SpinlockGuard g(guard_);
  count_ += n;
  LPT_CHECK_MSG(count_ >= 0, "WaitGroup count went negative");
}

void WaitGroup::done() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  std::vector<ThreadCtl*> to_wake;
  bool fired = false;
  {
    SpinlockGuard g(guard_);
    LPT_CHECK_MSG(count_ > 0, "WaitGroup::done without matching add");
    if (--count_ == 0) {
      fired = true;
      to_wake.swap(waiters_);
      zero_epoch_.fetch_add(1, std::memory_order_release);
    }
  }
  if (fired) futex_wake(&zero_epoch_, INT_MAX);
  detail::wake_all(to_wake);
  detail::end_no_preempt(self);
}

void WaitGroup::wait() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self = detail::current_ult_or_null();
  if (self == nullptr) {
    for (;;) {
      std::uint32_t epoch = zero_epoch_.load(std::memory_order_acquire);
      {
        SpinlockGuard g(guard_);
        if (count_ == 0) return;
      }
      futex_wait(&zero_epoch_, epoch);
    }
  }
  detail::begin_no_preempt(self);
  guard_.lock();
  if (count_ == 0) {
    guard_.unlock();
    detail::end_no_preempt(self);
    return;
  }
  waiters_.push_back(self);
  // No owner edge: wait-group completions have no single owner.
  detail::block(self, {.kind = prof::WaitKind::kWaitGroup, .site = site,
                       .guard = &guard_, .waiters = &waiters_});
  detail::end_no_preempt(self);
}

}  // namespace lpt
