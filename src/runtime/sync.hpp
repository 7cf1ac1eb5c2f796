// ULT-aware synchronization primitives. A blocked ULT suspends to its
// worker's scheduler (so the core keeps doing useful work) instead of
// blocking the kernel thread — one of the "lightweight synchronization
// primitives" benefits the paper attributes to M:N threads (§3.3).
//
// All primitives may only be used from ULT context. Internal spinlocks are
// held under NoPreemptGuard so a preemption can never strand a lock (§3.5.3).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/spinlock.hpp"

namespace lpt {

struct ThreadCtl;

namespace prof {
struct LockStats;
}
namespace park {
struct ResourceState;
}

/// Mutual exclusion with cooperative blocking and barging succession
/// ("Mutex succession" in DESIGN.md). A contended lock() spins on the lock
/// word while the holder runs on some worker, then parks. unlock() clears
/// the word and wakes the front waiter, which competes again instead of
/// being handed the lock; a waiter that keeps losing gets direct handoff.
class Mutex {
 public:
  /// Spin bound: a contended acquire polls the lock word for at most
  /// kSpinRounds x kSpinPauses cpu_pause()s per wakeup, and only while the
  /// holder is some worker's current ULT and no starving waiter awaits
  /// handoff (otherwise it parks at once).
  static constexpr int kSpinRounds = 4;
  static constexpr int kSpinPauses = 64;
  /// Starvation bound: a waiter woken kStarveLosses times that found the
  /// lock taken again, or waiting kStarveNs in total, re-parks at the front
  /// and the next unlock() hands it the lock directly.
  static constexpr int kStarveLosses = 8;
  static constexpr std::int64_t kStarveNs = 1'000'000;

  void lock();
  bool try_lock();
  /// Blocking try_lock with a timeout (~1 ms granularity, timed-wait
  /// registry) and a cancellation point. A waiter woken by unlock() competes
  /// again until its deadline; false means the deadline passed and the
  /// caller does not own the mutex.
  bool try_lock_for(std::chrono::nanoseconds timeout);
  void unlock();

  /// True when the calling ULT currently owns this mutex. Powers the compat
  /// layer's EDEADLK check; meaningful only from ULT context (false outside).
  /// Owner identity is tracked unconditionally (one pointer store under
  /// guard_), independent of the parking registry's arming.
  bool held_by_caller() const;

 private:
  friend class CondVar;

  /// Take the free lock for `self` (under guard_).
  void take(ThreadCtl* self);
  /// The lock word was just cleared (under guard_): pop the front waiter to
  /// wake, unless a woken waiter is already on its way back.
  ThreadCtl* pick_wakee();

  /// The acquire loop behind lock() (deadline kNoDeadline) and
  /// try_lock_for(): take the free lock, else spin within the spin bound,
  /// else park; a woken waiter competes again. Returns false only when a
  /// finite deadline passed, and then the caller does not own the mutex.
  /// Inlined into both callers: an out-of-line call cost the uncontended
  /// lock()/unlock() pair ~5% (BM_MutexLockUnlockUncontended).
  [[gnu::always_inline]] inline bool acquire(ThreadCtl* self, void* site,
                                             std::int64_t deadline);

  /// Abandonment hook (park::ResourceState::on_abandon): `dead` ended while
  /// recorded as owner. Clears owner_ and, when `release`, force-unlocks and
  /// wakes the next waiter to compete (never a handoff). Returns whether a
  /// release happened.
  bool abandon(ThreadCtl* dead, bool release);
  static bool abandon_cb(void* primitive, ThreadCtl* dead, bool release);

  Spinlock guard_;
  /// Lock word: written under guard_, polled without it by spinners.
  std::atomic<bool> locked_{false};
  /// A waiter woken by unlock()/abandon() has not yet re-competed: further
  /// unlocks skip the wake (under guard_).
  bool woken_ = false;
  /// A starving waiter heads waiters_: the next unlock() keeps the lock word
  /// set and transfers ownership to it (under guard_).
  bool handoff_ = false;
  /// Owning ULT while locked_ (compared by address only — never dereferenced
  /// after the owner may have died; abandon() clears it first). Maintained
  /// under guard_, including across a starvation handoff.
  ThreadCtl* owner_ = nullptr;
  /// Parking-registry owner record, lazily attached under guard_ while the
  /// registry is armed; null forever otherwise (same slab contract as prof_).
  park::ResourceState* res_ = nullptr;
  std::vector<ThreadCtl*> waiters_;
  /// Contention-profile slot (docs/observability.md "Profiling"): lazily
  /// attached under guard_ on the first lock() while the lock profiler is
  /// armed; null forever otherwise. Points into the collector's never-freed
  /// slab, so the pointer stays valid even when this Mutex outlives the
  /// Runtime that profiled it.
  prof::LockStats* prof_ = nullptr;
};

/// Condition variable over lpt::Mutex.
class CondVar {
 public:
  /// Atomically release `m` and block; re-acquires `m` before returning.
  void wait(Mutex& m);
  /// wait() with a timeout (~1 ms granularity) and a cancellation point.
  /// Returns false when the wait timed out before a notify; `m` is held on
  /// either return. A nonpositive timeout returns false without releasing
  /// `m`. Spurious-wakeup-free (a waiter wakes only on a notify or its
  /// timeout), so no predicate loop is required just for this primitive —
  /// callers still need one when the predicate can be consumed by another
  /// woken waiter.
  bool wait_for(Mutex& m, std::chrono::nanoseconds timeout);
  void notify_one();
  void notify_all();

 private:
  /// The wait behind wait() (deadline kNoDeadline) and wait_for(). False
  /// when the deadline passed before a notify.
  bool wait_until(Mutex& m, std::int64_t deadline, void* site);

  Spinlock guard_;
  std::vector<ThreadCtl*> waiters_;
};

/// Cooperative barrier for a fixed number of ULT participants.
class Barrier {
 public:
  explicit Barrier(int parties);
  /// Blocks until all parties arrive; the last arriver releases the rest.
  void arrive_and_wait();

 private:
  Spinlock guard_;
  const int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<ThreadCtl*> waiters_;
};

/// A memory flag with *busy-wait* semantics — the synchronization pattern of
/// OpenMP-parallel Intel MKL that deadlocks on nonpreemptive M:N threads
/// (§4.1). `WaitMode` selects the paper's three behaviours:
///   kSpin           pure busy loop: needs implicit preemption to be safe
///   kSpinWithYield  the "reverse-engineered MKL" hack: explicit yield in
///                   the loop, works on nonpreemptive threads
class BusyFlag {
 public:
  enum class WaitMode { kSpin, kSpinWithYield };

  void set() { flag_.store(1, std::memory_order_release); }
  void clear() { flag_.store(0, std::memory_order_release); }
  bool is_set() const { return flag_.load(std::memory_order_acquire) != 0; }

  /// Busy-wait until set. With kSpin, progress relies on the caller being
  /// implicitly preemptible (or on spare cores).
  void wait(WaitMode mode) const;

 private:
  std::atomic<std::uint32_t> flag_{0};
};

}  // namespace lpt
