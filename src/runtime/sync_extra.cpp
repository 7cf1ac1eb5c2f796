#include "runtime/sync_extra.hpp"

#include <climits>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "runtime/internal.hpp"
#include "runtime/park.hpp"
#include "runtime/prof_glue.hpp"
#include "runtime/worker.hpp"

namespace lpt {

namespace {

ThreadCtl* require_ult(const char* what) {
  ThreadCtl* self = detail::current_ult_or_null();
  LPT_CHECK_MSG(self != nullptr, what);
  return self;
}

void make_ready(ThreadCtl* t, std::uint32_t waker = Runtime::kWakerFromTls) {
  Runtime* rt = t->rt;
  t->store_state(ThreadState::kReady);
  // Routed through the causal choke point (ready stamp + kUltWake edge).
  // The abandoned-lock force-release passes the dead owner as the waker: it
  // runs on the watchdog thread, but the death is the causal release.
  rt->enqueue_ready(t, worker_tls()->worker, EnqueueKind::kUnblock, waker);
}

void make_ready_all(std::vector<ThreadCtl*>& ts,
                    std::uint32_t waker = Runtime::kWakerFromTls) {
  for (ThreadCtl* t : ts) make_ready(t, waker);
  ts.clear();
}

}  // namespace

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
  if (writer_next != nullptr) make_ready(writer_next);
  make_ready_all(readers_next);
}

void RwLock::lock_shared() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self = require_ult("RwLock::lock_shared outside ULT context");
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
      if (writer_next != nullptr) make_ready(writer_next);
      make_ready_all(readers_next);
      continue;
    }
    if (write_owner_ == self && park::armed() && self->no_preempt_depth == 1) {
      // Write-then-read self-deadlock: a 1-cycle caught synchronously, like
      // Mutex::lock. (Read-then-write upgrades are left to the periodic
      // detector: self shows up among res_->owners, closing the cycle.)
      guard_.unlock();
      self->cancel_fault = FaultKind::kDeadlock;
      self->cancel_requested.store(true, std::memory_order_release);
      self->rt->note_self_deadlock(
          self, static_cast<std::uint8_t>(prof::WaitKind::kRwLock));
      detail::end_no_preempt(self);  // cancellation point: does not return
      detail::begin_no_preempt(self);
      continue;
    }
    waiting_readers_.push_back(self);
    park::park(self, static_cast<std::uint8_t>(prof::WaitKind::kRwLock),
               /*timed=*/false, res_.load(std::memory_order_relaxed), nullptr,
               &guard_, &waiting_readers_);
    prof::offcpu_begin(self, prof::WaitKind::kRwLock, site);
    detail::suspend_block(self, &guard_, nullptr);
    park::unpark(self);
    prof::offcpu_end(self);
    if (self->park_broken) {
      // Deadlock breaker cancelled us out of the wait: no share was handed
      // to us. Terminate at the cancellation point, or retry if unwindable.
      self->park_broken = false;
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
  ThreadCtl* self = require_ult("RwLock::lock outside ULT context");
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
      // Write-after-write self-deadlock, caught synchronously (Mutex::lock
      // has the full rationale).
      guard_.unlock();
      self->cancel_fault = FaultKind::kDeadlock;
      self->cancel_requested.store(true, std::memory_order_release);
      self->rt->note_self_deadlock(
          self, static_cast<std::uint8_t>(prof::WaitKind::kRwLock));
      detail::end_no_preempt(self);  // cancellation point: does not return
      detail::begin_no_preempt(self);
      continue;
    }
    waiting_writers_.push_back(self);
    park::park(self, static_cast<std::uint8_t>(prof::WaitKind::kRwLock),
               /*timed=*/false, rs, nullptr, &guard_, &waiting_writers_);
    prof::offcpu_begin(self, prof::WaitKind::kRwLock, site);
    // Direct handoff: the releaser set writer_/write_owner_ on our behalf.
    detail::suspend_block(self, &guard_, nullptr);
    park::unpark(self);
    prof::offcpu_end(self);
    if (self->park_broken) {
      // Deadlock breaker cancelled us out of the wait: we do NOT own the
      // lock. Our announcement may be all that holds readers back, so pass
      // the lock on as if we had left, then terminate at the cancellation
      // point, or retry if unwindable.
      self->park_broken = false;
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
  if (writer_next != nullptr) make_ready(writer_next);
  make_ready_all(readers_next);
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
  if (writer_next != nullptr) make_ready(writer_next, dead->trace_id);
  make_ready_all(readers_next, dead->trace_id);
  return true;
}

bool RwLock::abandon_cb(void* primitive, ThreadCtl* dead, bool release) {
  return static_cast<RwLock*>(primitive)->abandon(dead, release);
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

void Semaphore::acquire() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self = require_ult("Semaphore::acquire outside ULT context");
  detail::begin_no_preempt(self);
  guard_.lock();
  if (count_ > 0) {
    --count_;
    guard_.unlock();
    detail::end_no_preempt(self);
    return;
  }
  waiters_.push_back(self);
  // No owner edge: semaphore units have no owner, so a semaphore waiter can
  // never be a cycle member. Registered for visibility and the reactor.
  park::park(self, static_cast<std::uint8_t>(prof::WaitKind::kSemaphore),
             /*timed=*/false, nullptr, nullptr, &guard_, &waiters_);
  prof::offcpu_begin(self, prof::WaitKind::kSemaphore, site);
  detail::suspend_block(self, &guard_, nullptr);
  park::unpark(self);
  prof::offcpu_end(self);
  detail::end_no_preempt(self);
  // Direct handoff: release() consumed a unit on our behalf.
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
  void* const site = __builtin_return_address(0);
  ThreadCtl* self =
      require_ult("Semaphore::try_acquire_for outside ULT context");
  detail::cancel_point(self);
  detail::begin_no_preempt(self);
  guard_.lock();
  if (count_ > 0) {
    --count_;
    guard_.unlock();
    detail::end_no_preempt(self);
    return true;
  }
  if (timeout.count() <= 0) {
    guard_.unlock();
    detail::end_no_preempt(self);
    return false;
  }
  const std::int64_t deadline = now_ns() + timeout.count();
  waiters_.push_back(self);
  self->wait_timed_out = false;
  // Expiry races release() under guard_; a waiter release() removed was
  // handed a unit (direct handoff), so a timed-out flag can never coexist
  // with an owed unit.
  self->rt->register_timed_wait(self, deadline, &guard_, &waiters_);
  park::park(self, static_cast<std::uint8_t>(prof::WaitKind::kSemaphore),
             /*timed=*/true, nullptr, nullptr, &guard_, &waiters_);
  prof::offcpu_begin(self, prof::WaitKind::kSemaphore, site);
  detail::suspend_block(self, &guard_, nullptr);
  park::unpark(self);
  prof::offcpu_end(self);
  self->rt->unregister_timed_wait(self);
  detail::end_no_preempt(self);  // cancellation point
  return !self->wait_timed_out;
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
  make_ready_all(to_wake);
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
  make_ready_all(to_wake);
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
  park::park(self, static_cast<std::uint8_t>(prof::WaitKind::kLatch),
             /*timed=*/false, nullptr, nullptr, &guard_, &waiters_);
  prof::offcpu_begin(self, prof::WaitKind::kLatch, site);
  detail::suspend_block(self, &guard_, nullptr);
  park::unpark(self);
  prof::offcpu_end(self);
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
  make_ready_all(to_wake);
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
  park::park(self, static_cast<std::uint8_t>(prof::WaitKind::kWaitGroup),
             /*timed=*/false, nullptr, nullptr, &guard_, &waiters_);
  prof::offcpu_begin(self, prof::WaitKind::kWaitGroup, site);
  detail::suspend_block(self, &guard_, nullptr);
  park::unpark(self);
  prof::offcpu_end(self);
  detail::end_no_preempt(self);
}

}  // namespace lpt
