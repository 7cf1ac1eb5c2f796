// Cross-translation-unit internals of the runtime. Not installed; not part
// of the public API.
#pragma once

#include <atomic>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "runtime/runtime.hpp"
#include "runtime/sync.hpp"

namespace lpt::detail {

/// Process-global active runtime (anchor for the signal handler).
std::atomic<Runtime*>& runtime_slot();
inline Runtime* runtime_instance() {
  return runtime_slot().load(std::memory_order_acquire);
}

/// The ULT running on the calling KLT, or nullptr (scheduler/external).
ThreadCtl* current_ult_or_null();

/// The calling ULT; a checked failure with message `what` outside one.
inline ThreadCtl* require_ult(const char* what) {
  ThreadCtl* self = current_ult_or_null();
  LPT_CHECK_MSG(self != nullptr, what);
  return self;
}

/// NoPreemptGuard internals, usable with an explicit ThreadCtl so the guard
/// survives a migration to another KLT (the depth lives in the ThreadCtl).
void begin_no_preempt(ThreadCtl* self);
void end_no_preempt(ThreadCtl* self);

// --- suspension primitives -------------------------------------------------
// All of these context switch to the worker's scheduler and are deliberately
// not inlined: after the switch the ULT may run on a *different* kernel
// thread, so every TLS access inside re-derives its address.

/// Voluntary yield of the current ULT.
void suspend_yield(ThreadCtl* self);

/// Terminate the current ULT (no save; the scheduler recycles the stack).
[[noreturn]] void suspend_exit(ThreadCtl* self);

/// Terminate the current ULT as Failed (exception firewall path; self->fault
/// must already be filled in). The scheduler quarantines the stack and wakes
/// joiners with the failure record.
[[noreturn]] void suspend_fail(ThreadCtl* self);

/// Terminate the current ULT as Failed(kCancelled) — the cooperative half of
/// cancellation. Same landing as suspend_fail (stack quarantined, joiners
/// woken with the failure record) but counted as a cancellation. Destructors
/// of frames live on the abandoned stack do NOT run (docs/robustness.md).
[[noreturn]] void suspend_cancel(ThreadCtl* self);

/// Cancellation point: returns normally unless `self` has a pending cancel
/// request, in which case it does not return (suspend_cancel). Safe to call
/// with nullptr (external thread / scheduler context).
void cancel_point(ThreadCtl* self);

// --- the wait path (DESIGN.md, "Wait path") --------------------------------

/// One parked wait, as every blocking primitive describes it to block().
struct WaitSpec {
  prof::WaitKind kind;
  void* site;       ///< caller PC of the public primitive (off-CPU profile)
  Spinlock* guard;  ///< protects *waiters; released after the context save
  /// The list `self` was pushed onto, where a waker finds it. Null only for
  /// a wait with no competing waker (sleep: expiry always wins).
  std::vector<ThreadCtl*>* waiters = nullptr;
  park::ResourceState* res = nullptr;  ///< owner record (Mutex, RwLock)
  ThreadCtl* direct_owner = nullptr;   ///< the joined thread (join)
  /// User mutex the scheduler unlocks after `guard` once the context is
  /// saved (CondVar); the caller relocks it after the wake.
  Mutex* relock = nullptr;
  std::int64_t deadline = kNoDeadline;  ///< absolute; finite = timed wait
};

/// Park the calling ULT: register a timed wait when `w` has a deadline,
/// publish the parking-registry edge, tag the off-CPU interval, suspend
/// until a waker requeues it, then undo all three. The caller holds
/// `w.guard` inside begin_no_preempt, with `self` already on `w.waiters`;
/// the guard is released on return. kTimedOut: the expiry scan removed
/// `self` from the waiter list; kBroken: the deadlock breaker did (untimed
/// waits only, with a cancel pending).
Wake block(ThreadCtl* self, const WaitSpec& w);

/// Make a thread that a releaser removed from a waiter list runnable.
/// `waker` names the causal waker for the kUltWake edge (default: the
/// calling ULT); the abandoned-lock force-release passes the dead owner,
/// since the watchdog thread running it is not what freed the lock.
void wake(ThreadCtl* t, std::uint32_t waker = Runtime::kWakerFromTls);
/// wake() every thread in `ts`, then clear it.
void wake_all(std::vector<ThreadCtl*>& ts,
              std::uint32_t waker = Runtime::kWakerFromTls);

/// `self` relocks a lock it holds and would park behind itself forever: a
/// 1-cycle, caught synchronously instead of by the detector. Marks `self` a
/// deadlock victim, accounts the cycle and runs the cancellation point,
/// which does not return at no_preempt_depth 1 (callers check that and
/// park::armed() first, then drop the primitive's guard).
void self_deadlock(ThreadCtl* self, prof::WaitKind kind);

// --- preemption-handler bodies (called from the signal handler) ------------

/// Signal-yield (§3.1.1): switch to the scheduler from inside the handler.
void handler_signal_yield(Worker* w, ThreadCtl* t);

/// KLT-switching (§3.1.2): remap the worker to a pool KLT and park this one
/// inside the handler; returns without preempting when no KLT is available
/// (a creation request is posted and the thread retries at the next tick).
void handler_klt_switch(Runtime* rt, Worker* w, ThreadCtl* t);

/// Resume a KLT parked inside the handler (futex or sigsuspend, per options).
void wake_bound_klt(Runtime* rt, KltCtl* k);

/// Re-enter ULT mode after a resume (sets in_ult on the *current* KLT).
void mark_in_ult();

}  // namespace lpt::detail
