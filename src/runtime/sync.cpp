#include "runtime/sync.hpp"

#include "common/assert.hpp"
#include "common/cpu.hpp"
#include "common/time.hpp"
#include "prof/prof.hpp"
#include "runtime/instrument.hpp"
#include "runtime/internal.hpp"
#include "runtime/park.hpp"

namespace lpt {

namespace {

/// One lock()/try_lock_for() call's contention record, carried across its
/// spin and park rounds: what the starvation bound and the lock profiler
/// need.
struct Contention {
  std::int64_t since = 0;  ///< first spin or park (0: uncontended so far)
  int spins = 0;           ///< spin rounds since the last wakeup
  int losses = 0;          ///< wakeups that found the lock taken again
  bool chained = false;    ///< parked behind an off-CPU holder at least once

  bool starving() const {
    return losses >= Mutex::kStarveLosses ||
           trace::now_ns() - since >= Mutex::kStarveNs;
  }
};

/// True when `owner` is some worker's current ULT. Pointer compares only:
/// the holder may be finalizing concurrently.
bool on_cpu(Runtime* rt, const ThreadCtl* owner) {
  if (owner == nullptr || rt == nullptr) return false;
  for (int r = 0; r < rt->num_workers(); ++r)
    if (rt->worker(r).current_ult.load(std::memory_order_acquire) == owner)
      return true;
  return false;
}

/// Spin only behind a running holder, within the spin bound, and never
/// while a starving waiter awaits handoff (the lock word stays set across a
/// handoff, so a spinner could not win; parking frees its core for the
/// starving waiter).
bool worth_spinning(const Contention& c, bool holder_on_cpu,
                    bool handoff_pending) {
  return holder_on_cpu && !handoff_pending && c.spins < Mutex::kSpinRounds;
}

// ---- lock-contention profiling helpers (all called under the Mutex's
// guard_; every one is a no-op with a null `ls`, and the whole block
// compiles away under LPT_PROF_DISABLED) ----
#if !defined(LPT_PROF_DISABLED)

/// Lazily attach the Mutex's LockStats slot. Caller holds guard_, so the
/// plain member is race-free; slab exhaustion leaves the mutex unprofiled.
prof::LockStats* lock_stats(prof::LockStats*& slot) {
  if (slot == nullptr) slot = prof::Collector::instance().acquire_lock_stats();
  return slot;
}

/// The caller is about to spin or park for the first time in this call.
void lock_note_contended(prof::LockStats* ls, void* site) {
  if (ls == nullptr) return;
  std::uintptr_t none = 0;
  ls->site.compare_exchange_strong(
      none, reinterpret_cast<std::uintptr_t>(site), std::memory_order_relaxed);
}

/// The caller is about to park. Parking behind a holder that is itself
/// off-CPU is the contention chain ULT-aware locks target; counted at most
/// once per acquire, so chains <= contended.
void lock_note_park(prof::LockStats* ls, Contention& c, bool holder_on_cpu) {
  if (ls == nullptr || holder_on_cpu || c.chained) return;
  c.chained = true;
  ls->chains.fetch_add(1, std::memory_order_relaxed);
}

/// The call is over: one acquire, contended when it spun or parked. When
/// `owned` the caller holds the lock from this instant — its wait time is
/// recorded and its hold interval starts.
void lock_note_done(prof::LockStats* ls, const Contention& c,
                    const ThreadCtl* self, void* site, bool owned) {
  if (ls == nullptr) return;
  ls->acquires.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t now = trace::now_ns();
  if (c.since != 0) {
    ls->contended.fetch_add(1, std::memory_order_relaxed);
    if (owned) {
      ls->wait_ns.record(now - c.since);
      LPT_TRACE_EVENT(trace::EventType::kLockContended, self->trace_id,
                      static_cast<std::uint64_t>(now - c.since),
                      static_cast<std::uint64_t>(
                          reinterpret_cast<std::uintptr_t>(site)));
    }
  }
  if (owned) ls->hold_start_ns = now;
}

/// The owner is releasing: close its hold interval.
void lock_note_release(prof::LockStats* ls) {
  if (ls == nullptr || ls->hold_start_ns == 0) return;
  ls->hold_ns.record(trace::now_ns() - ls->hold_start_ns);
  ls->hold_start_ns = 0;
}

#else  // LPT_PROF_DISABLED

inline prof::LockStats* lock_stats(prof::LockStats*&) { return nullptr; }
inline void lock_note_contended(prof::LockStats*, void*) {}
inline void lock_note_park(prof::LockStats*, Contention&, bool) {}
inline void lock_note_done(prof::LockStats*, const Contention&,
                           const ThreadCtl*, void*, bool) {}
inline void lock_note_release(prof::LockStats*) {}

#endif  // LPT_PROF_DISABLED

/// Queue `self` to park. A woken waiter that lost keeps its place at the
/// front and, once starving, asks the next unlock() for handoff.
void queue_waiter(std::vector<ThreadCtl*>& waiters, bool& handoff,
                  ThreadCtl* self, const Contention& c) {
  if (c.losses == 0) {
    waiters.push_back(self);
    return;
  }
  waiters.insert(waiters.begin(), self);
  if (c.starving()) handoff = true;
}

/// Bounded spin: poll the lock word for one round of kSpinPauses pauses.
void spin_round(const std::atomic<bool>& locked) {
  for (int i = 0; i < Mutex::kSpinPauses &&
                  locked.load(std::memory_order_relaxed);
       ++i)
    cpu_pause();
}

}  // namespace

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------
//
// Succession is barging: unlock() clears the lock word and wakes the front
// waiter, which competes again in lock()'s loop, so the lock is never held
// across a wakeup. Only a starving waiter (Contention::starving) gets the
// lock handed over. Owner tracking (owner_, park owner edges, the profiler's
// hold clock) always names the thread that actually holds the lock.

void Mutex::take(ThreadCtl* self) {
  locked_.store(true, std::memory_order_relaxed);
  owner_ = self;
  if (park::armed()) {
    if (res_ == nullptr)
      res_ = park::acquire_resource(
          static_cast<std::uint8_t>(prof::WaitKind::kMutex), this,
          &Mutex::abandon_cb);
    park::add_owner(res_, self);
  }
}

ThreadCtl* Mutex::pick_wakee() {
  if (woken_ || waiters_.empty()) return nullptr;
  woken_ = true;
  ThreadCtl* next = waiters_.front();
  waiters_.erase(waiters_.begin());
  return next;
}

void Mutex::lock() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self = detail::require_ult("lpt::Mutex::lock outside ULT context");
  detail::cancel_point(self);  // before acquisition: nothing held yet
  acquire(self, site, kNoDeadline);
}

bool Mutex::try_lock() {
  ThreadCtl* self =
      detail::require_ult("lpt::Mutex::try_lock outside ULT context");
  detail::begin_no_preempt(self);
  guard_.lock();
  const bool got = !locked_.load(std::memory_order_relaxed);
  if (got) {
    take(self);
    lock_note_done(prof::locks_on() ? lock_stats(prof_) : nullptr,
                   Contention{}, self, nullptr, /*owned=*/true);
  }
  guard_.unlock();
  detail::end_no_preempt(self);
  return got;
}

bool Mutex::try_lock_for(std::chrono::nanoseconds timeout) {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self =
      detail::require_ult("lpt::Mutex::try_lock_for outside ULT context");
  detail::cancel_point(self);
  return acquire(self, site, now_ns() + timeout.count());
}

bool Mutex::acquire(ThreadCtl* self, void* site, std::int64_t deadline) {
  const bool timed = deadline != kNoDeadline;
  detail::begin_no_preempt(self);
  Contention c;
  bool woke = false;
  bool expired = false;  // the expiry scan removed us from waiters_
  bool got = false;
  for (;;) {
    guard_.lock();
    prof::LockStats* ls = prof::locks_on() ? lock_stats(prof_) : nullptr;
    if (woke) {
      woke = false;
      if (owner_ == self) {
        // Starvation handoff: unlock() kept the word set and made us owner.
        lock_note_done(ls, c, self, site, /*owned=*/true);
        guard_.unlock();
        got = true;
        break;
      }
      // Unless expiry removed us from waiters_, unlock() woke us and we
      // were the woken waiter, so the next unlock may wake another.
      if (!expired) {
        woken_ = false;
        if (locked_.load(std::memory_order_relaxed)) ++c.losses;
      }
    }
    if (!locked_.load(std::memory_order_relaxed) && !expired) {
      take(self);
      lock_note_done(ls, c, self, site, /*owned=*/true);
      guard_.unlock();
      got = true;
      break;
    }
    if (timed && (expired || now_ns() >= deadline)) {
      // A timed-out waiter never takes the lock.
      if (c.since != 0) lock_note_done(ls, c, self, site, /*owned=*/false);
      guard_.unlock();
      break;
    }
    if (!timed && owner_ == self && park::armed() &&
        self->no_preempt_depth == 1) {
      // Relocking the mutex we already hold. A timed relock simply times
      // out; under an outer NoPreemptGuard the historical behavior (hang,
      // detectable by the watchdog) is kept.
      guard_.unlock();
      detail::self_deadlock(self, prof::WaitKind::kMutex);
      continue;  // unreachable in practice; keeps the invariant if it ever is
    }
    if (c.since == 0) {
      c.since = trace::now_ns();
      lock_note_contended(ls, site);
    }
    const bool holder_on_cpu = on_cpu(self->rt, owner_);
    if (worth_spinning(c, holder_on_cpu, handoff_)) {
      ++c.spins;
      guard_.unlock();
      spin_round(locked_);
      continue;
    }
    lock_note_park(ls, c, holder_on_cpu);
    queue_waiter(waiters_, handoff_, self, c);
    const detail::Wake r = detail::block(
        self, {.kind = prof::WaitKind::kMutex, .site = site, .guard = &guard_,
               .waiters = &waiters_, .res = res_, .deadline = deadline});
    if (r == detail::Wake::kBroken) {
      // The deadlock breaker cancelled us out of the wait (untimed waits
      // only): we do NOT own the lock. The cancellation point below normally
      // terminates us; a thread it cannot unwind (outer NoPreemptGuard)
      // retries the acquire.
      detail::end_no_preempt(self);  // cancellation point: usually no return
      detail::begin_no_preempt(self);
      continue;
    }
    woke = true;
    expired = r == detail::Wake::kTimedOut;
    c.spins = 0;
  }
  detail::end_no_preempt(self);  // cancellation point
  return got;
}

void Mutex::unlock() {
  // Callable from ULT context and from the scheduler (condvar-wait release),
  // so owner bookkeeping uses owner_ — not the calling context.
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  guard_.lock();
  LPT_CHECK_MSG(locked_.load(std::memory_order_relaxed),
                "unlock of unowned lpt::Mutex");
  lock_note_release(prof::locks_on() ? prof_ : nullptr);
  park::remove_owner(res_, owner_);
  ThreadCtl* next;
  if (handoff_ && !waiters_.empty()) {
    next = waiters_.front();
    waiters_.erase(waiters_.begin());
    owner_ = next;  // the word stays set: ownership passes to `next`
    park::add_owner(res_, next);
  } else {
    locked_.store(false, std::memory_order_relaxed);
    owner_ = nullptr;
    next = pick_wakee();
  }
  handoff_ = false;
  guard_.unlock();
  if (next != nullptr) detail::wake(next);
  detail::end_no_preempt(self);
}

bool Mutex::held_by_caller() const {
  ThreadCtl* self = detail::current_ult_or_null();
  if (self == nullptr) return false;
  auto* m = const_cast<Mutex*>(this);
  detail::begin_no_preempt(self);
  m->guard_.lock();
  const bool held = locked_.load(std::memory_order_relaxed) && owner_ == self;
  m->guard_.unlock();
  detail::end_no_preempt(self);
  return held;
}

bool Mutex::abandon(ThreadCtl* dead, bool release) {
  // Finalize-context hook: `dead` ended while recorded as this mutex's
  // owner. Always clear owner_ (a later ThreadCtl at the same address must
  // not read as the holder); force-unlock only when asked.
  guard_.lock();
  if (!locked_.load(std::memory_order_relaxed) || owner_ != dead) {
    guard_.unlock();
    return false;
  }
  owner_ = nullptr;
  if (!release) {
    guard_.unlock();
    return false;
  }
  lock_note_release(prof::locks_on() ? prof_ : nullptr);
  locked_.store(false, std::memory_order_relaxed);
  ThreadCtl* next = pick_wakee();
  guard_.unlock();
  // Causally the dead owner freed the lock, not the watchdog thread running
  // this hook — attribute the wake edge to it so trace_critical_path can
  // walk a survivor's chain back into the broken cycle.
  if (next != nullptr) detail::wake(next, dead->trace_id);
  return true;
}

bool Mutex::abandon_cb(void* primitive, ThreadCtl* dead, bool release) {
  return static_cast<Mutex*>(primitive)->abandon(dead, release);
}

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

void CondVar::wait(Mutex& m) {
  (void)wait_until(m, kNoDeadline, __builtin_return_address(0));
}

bool CondVar::wait_for(Mutex& m, std::chrono::nanoseconds timeout) {
  void* const site = __builtin_return_address(0);
  if (timeout.count() <= 0) {  // immediate timeout, m stays held
    detail::require_ult("lpt::CondVar::wait_for outside ULT context");
    return false;
  }
  return wait_until(m, now_ns() + timeout.count(), site);
}

bool CondVar::wait_until(Mutex& m, std::int64_t deadline, void* site) {
  ThreadCtl* self =
      detail::require_ult("lpt::CondVar::wait outside ULT context");
  detail::begin_no_preempt(self);
  guard_.lock();
  waiters_.push_back(self);
  // No owner edge: a condvar waiter can never be a cycle member (it waits on
  // a notify, not on a thread). The scheduler releases guard_ and *then* m
  // after our context is saved, so a signaler can neither miss us nor wake
  // us before we are suspended.
  const detail::Wake r = detail::block(
      self, {.kind = prof::WaitKind::kCondVar, .site = site, .guard = &guard_,
             .waiters = &waiters_, .relock = &m, .deadline = deadline});
  // Cancellation point — fires while m is NOT held, so a cancelled waiter
  // never strands the user mutex.
  detail::end_no_preempt(self);
  m.lock();
  return r != detail::Wake::kTimedOut;
}

void CondVar::notify_one() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  ThreadCtl* t = nullptr;
  {
    SpinlockGuard g(guard_);
    if (!waiters_.empty()) {
      t = waiters_.front();
      waiters_.erase(waiters_.begin());
    }
  }
  if (t != nullptr) detail::wake(t);
  detail::end_no_preempt(self);
}

void CondVar::notify_all() {
  ThreadCtl* self = detail::current_ult_or_null();
  detail::begin_no_preempt(self);
  std::vector<ThreadCtl*> ts;
  {
    SpinlockGuard g(guard_);
    ts.swap(waiters_);
  }
  detail::wake_all(ts);
  detail::end_no_preempt(self);
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

Barrier::Barrier(int parties) : parties_(parties) {
  LPT_CHECK(parties >= 1);
  waiters_.reserve(parties);
}

void Barrier::arrive_and_wait() {
  void* const site = __builtin_return_address(0);
  ThreadCtl* self = detail::require_ult("lpt::Barrier outside ULT context");
  detail::begin_no_preempt(self);
  guard_.lock();
  if (++arrived_ == parties_) {
    arrived_ = 0;
    ++generation_;
    std::vector<ThreadCtl*> ts;
    ts.swap(waiters_);
    guard_.unlock();
    detail::wake_all(ts);
    detail::end_no_preempt(self);
    return;
  }
  waiters_.push_back(self);
  detail::block(self, {.kind = prof::WaitKind::kBarrier, .site = site,
                       .guard = &guard_, .waiters = &waiters_});
  detail::end_no_preempt(self);
}

// ---------------------------------------------------------------------------
// BusyFlag
// ---------------------------------------------------------------------------

void BusyFlag::wait(WaitMode mode) const {
  void* const site = __builtin_return_address(0);
  if (is_set()) return;
  // BusyFlag never parks — the wait burns a core by design (§4.1). It is
  // still wait time, so the profiler attributes the spin interval to the
  // callsite like a blocking primitive would (kBusyFlag entries in the wait
  // table are on-CPU spins, not suspensions).
  const std::int64_t t0 = prof::offcpu_on() ? trace::now_ns() : 0;
  while (!is_set()) {
    if (mode == WaitMode::kSpinWithYield) {
      this_thread::yield();
    } else {
      for (int i = 0; i < 64; ++i) cpu_pause();
    }
  }
  if (t0 != 0)
    prof::record_wait(prof::WaitKind::kBusyFlag,
                      reinterpret_cast<std::uintptr_t>(site),
                      trace::now_ns() - t0);
}

}  // namespace lpt
