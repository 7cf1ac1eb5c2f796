// Additional ULT-aware synchronization primitives: reader-writer lock,
// counting semaphore, one-shot latch, and a Go-style wait group. Like the
// core primitives (sync.hpp) they block cooperatively — the worker keeps
// executing other threads — and guard their internal spinlocks against
// preemption (§3.5.3).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/cpu.hpp"
#include "common/futex.hpp"
#include "common/spinlock.hpp"

namespace lpt {

struct ThreadCtl;

namespace park {
struct ResourceState;
}

/// Writer-preferring reader-writer lock for ULTs.
///
/// Readers skip `guard_`: each worker counts its readers in its own
/// cache-line reader slot and then checks `writer_word_`, so with no writer
/// present a read section writes no line that other workers' readers write
/// (apart from the parking registry's owner record while it is armed). A
/// writer takes `guard_`, announces itself in `writer_word_` and sums the
/// slots; the last reader out hands it the lock. DESIGN.md §5, "RwLock
/// reader path", has the protocol and its costs.
class alignas(kCacheLineSize) RwLock {
 public:
  /// Reader slots: a reader counts itself in slot `rank % kReaderSlots` of
  /// the worker it runs on. Only the sum over slots means anything.
  static constexpr int kReaderSlots = 16;

  void lock_shared();
  void unlock_shared();
  void lock();
  void unlock();

 private:
  struct alignas(kCacheLineSize) ReaderSlot {
    std::atomic<long> n{0};
  };

  /// The slot of the worker the caller runs on now (slot 0 off a worker).
  std::atomic<long>& reader_slot();
  /// True when no reader holds a share. Exact only under guard_ with
  /// writer_word_ set (see the ordering note in sync_extra.cpp).
  bool readers_drained_locked() const;
  /// The owner record, attached on first use while the registry is armed.
  park::ResourceState* resource();
  /// After a reader left (or backed off) under a writer announcement: pass
  /// the lock on if that made it free.
  void reader_left();
  /// Under guard_: give the lock to the front waiting writer.
  ThreadCtl* grant_writer_locked();
  /// Under guard_, no writer holding or waiting: withdraw the announcement
  /// and give every waiting reader a share.
  void admit_readers_locked(std::vector<ThreadCtl*>& readers_next);
  /// Under guard_, as a writer lets go: the front waiting writer gets the
  /// lock directly (writer_ stays set), else the readers are admitted.
  /// Returns the writer to wake, if any.
  ThreadCtl* release_write_locked(std::vector<ThreadCtl*>& readers_next);
  /// Under guard_, unless a writer holds the lock: the front waiting writer
  /// gets it once the readers have drained; with none waiting, the readers
  /// are admitted. Returns the writer to wake, if any.
  ThreadCtl* settle_locked(std::vector<ThreadCtl*>& readers_next);

  /// Abandonment hook (park::ResourceState::on_abandon): `dead` ended while
  /// recorded as a holder. A dead writer clears write_owner_ and, when
  /// `release`, force-unlocks with normal handoff semantics; a dead reader
  /// drops its share (best-effort once owner slots overflowed). Returns
  /// whether a release/handoff happened.
  bool abandon(ThreadCtl* dead, bool release);
  static bool abandon_cb(void* primitive, ThreadCtl* dead, bool release);

  Spinlock guard_;
  /// Nonzero while a writer holds the lock or waits for it (and until a
  /// writer broken out of its wait has withdrawn). Written under guard_;
  /// readers load it without the guard.
  std::atomic<std::uint32_t> writer_word_{0};
  bool writer_ = false;  ///< a writer holds the lock (guard_)
  /// Writing ULT while writer_ (address-compared only; abandon() clears it
  /// before the owner can be freed). Powers the synchronous write-after-write
  /// self-deadlock check; maintained unconditionally under guard_.
  ThreadCtl* write_owner_ = nullptr;
  /// Parking-registry owner record (writer + up to kMaxOwners readers),
  /// attached once under guard_ while the registry is armed.
  std::atomic<park::ResourceState*> res_{nullptr};
  std::vector<ThreadCtl*> waiting_readers_;
  std::vector<ThreadCtl*> waiting_writers_;
  ReaderSlot slots_[kReaderSlots];
};

/// Counting semaphore for ULTs.
class Semaphore {
 public:
  explicit Semaphore(int initial) : count_(initial) {}
  /// Decrement, blocking cooperatively while the count is zero.
  void acquire();
  /// Try to decrement without blocking.
  bool try_acquire();
  /// Blocking try_acquire with a timeout (~1 ms granularity, timed-wait
  /// registry) and a cancellation point. False on timeout, true when a unit
  /// was consumed (possibly handed off directly by release()).
  bool try_acquire_for(std::chrono::nanoseconds timeout);
  /// Increment and release one waiter if any.
  void release(int n = 1);

 private:
  /// The wait behind acquire() (deadline kNoDeadline) and try_acquire_for().
  /// False when the deadline passed before a unit was consumed.
  bool acquire_until(std::int64_t deadline, void* site);

  Spinlock guard_;
  int count_;
  std::vector<ThreadCtl*> waiters_;
};

/// One-shot latch: count_down() `count` times releases every waiter.
/// wait() is also callable from external (non-ULT) kernel threads.
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {}
  void count_down(int n = 1);
  void wait();
  bool try_wait() const { return done_.load(std::memory_order_acquire) != 0; }

 private:
  Spinlock guard_;
  int remaining_;
  std::atomic<std::uint32_t> done_{0};  // futex word for external waiters
  std::vector<ThreadCtl*> waiters_;
};

/// Go-style wait group: add() work, done() it, wait() for the count to hit
/// zero. wait() is callable from ULTs and external threads; add() must not
/// race with the count reaching zero (the usual wait-group contract).
class WaitGroup {
 public:
  void add(int n = 1);
  void done();
  void wait();

 private:
  Spinlock guard_;
  int count_ = 0;
  std::atomic<std::uint32_t> zero_epoch_{0};  // futex word, bumped at zero
  std::vector<ThreadCtl*> waiters_;
};

}  // namespace lpt
