#include "runtime/sync_extra.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/cpu.hpp"
#include "common/time.hpp"
#include "runtime/lpt.hpp"

namespace lpt {
namespace {

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

TEST(RwLock, ManyConcurrentReaders) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  RwLock rw;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.push_back(rt.spawn([&] {
      rw.lock_shared();
      const int c = concurrent.fetch_add(1) + 1;
      int p = peak.load();
      while (c > p && !peak.compare_exchange_weak(p, c)) {
      }
      busy_spin_ns(2'000'000);
      concurrent.fetch_sub(1);
      rw.unlock_shared();
    }));
  for (auto& t : ts) t.join();
  EXPECT_GT(peak.load(), 1) << "readers never overlapped";
}

TEST(RwLock, WriterExcludesEveryone) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  RwLock rw;
  int shared_value = 0;
  std::atomic<bool> violation{false};
  std::vector<Thread> ts;
  for (int i = 0; i < 4; ++i)
    ts.push_back(rt.spawn([&] {
      for (int k = 0; k < 500; ++k) {
        rw.lock();
        const int before = ++shared_value;
        this_thread::yield();  // invite interleaving
        if (shared_value != before) violation.store(true);
        rw.unlock();
      }
    }));
  for (int i = 0; i < 4; ++i)
    ts.push_back(rt.spawn([&] {
      for (int k = 0; k < 500; ++k) {
        rw.lock_shared();
        const int a = shared_value;
        this_thread::yield();
        if (shared_value < a) violation.store(true);  // never decreases
        rw.unlock_shared();
      }
    }));
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(shared_value, 2000);
}

TEST(RwLock, WriterNotStarvedByReaders) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  RwLock rw;
  std::atomic<bool> writer_done{false};
  std::atomic<bool> stop{false};
  std::vector<Thread> readers;
  for (int i = 0; i < 3; ++i)
    readers.push_back(rt.spawn([&] {
      while (!stop.load(std::memory_order_acquire)) {
        rw.lock_shared();
        this_thread::yield();
        rw.unlock_shared();
      }
    }));
  Thread writer = rt.spawn([&] {
    rw.lock();  // must get in despite the reader storm (writer preference)
    writer_done.store(true);
    rw.unlock();
  });
  const std::int64_t deadline = now_ns() + 10'000'000'000ll;
  while (!writer_done.load() && now_ns() < deadline) usleep(1000);
  stop.store(true);
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(writer_done.load()) << "writer starved";
}

// ---------------------------------------------------------------------------
// RwLock stress: per-worker reader slots under migration, writer handoff
// and the deadlock / abandonment paths
// ---------------------------------------------------------------------------

bool wait_until(const std::atomic<bool>& flag, std::int64_t timeout_ns) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  while (!flag.load(std::memory_order_acquire)) {
    if (now_ns() > deadline) return false;
    usleep(1000);
  }
  return true;
}

/// 16 ULTs on 4 workers: 4 writers keep `a == b`, 12 readers check it.
/// Readers yield inside the read section, so they leave on another worker
/// than they entered on and single reader slots go negative; the writers'
/// count must still come out exact and no reader may see a torn pair.
void run_rwlock_stress(Preempt preempt) {
  RuntimeOptions o;
  o.num_workers = 4;
  if (preempt != Preempt::None) {
    o.timer = TimerKind::PerWorkerAligned;
    o.interval_us = 1000;
  }
  Runtime rt(o);
  RwLock rw;
  constexpr int kUlts = 16;
  constexpr int kWriters = 4;
  constexpr int kIters = 10000;
  long a = 0, b = 0;  // guarded by rw
  std::atomic<long> torn{0}, migrated{0};
  ThreadAttrs attrs;
  attrs.preempt = preempt;
  std::vector<Thread> ts;
  for (int i = 0; i < kUlts; ++i) {
    const bool writer = i % (kUlts / kWriters) == 0;
    ts.push_back(rt.spawn(
        [&, writer] {
          for (int k = 0; k < kIters; ++k) {
            if (writer) {
              rw.lock();
              const long seen = a;
              a = seen + 1;
              for (int spin = 0; spin < 16; ++spin) cpu_pause();  // widen races
              b = seen + 1;
              rw.unlock();
            } else {
              rw.lock_shared();
              const int entered_on = this_thread::worker_rank();
              const long x = a;
              if (k % 4 == 0) this_thread::yield();  // migrate mid-section
              for (int spin = 0; spin < 16; ++spin) cpu_pause();
              if (b != x) torn.fetch_add(1, std::memory_order_relaxed);
              if (this_thread::worker_rank() != entered_on)
                migrated.fetch_add(1, std::memory_order_relaxed);
              rw.unlock_shared();
            }
          }
        },
        attrs));
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(torn.load(), 0) << "a reader overlapped a writer";
  EXPECT_GT(migrated.load(), 0) << "no reader left on another worker";
  EXPECT_EQ(a, static_cast<long>(kWriters) * kIters);
  EXPECT_EQ(b, a);
}

TEST(RwLockStress, ExactCountNonpreemptive) {
  run_rwlock_stress(Preempt::None);
}
TEST(RwLockStress, ExactCountSignalYield) {
  run_rwlock_stress(Preempt::SignalYield);
}
TEST(RwLockStress, ExactCountKltSwitch) {
  run_rwlock_stress(Preempt::KltSwitch);
}

RuntimeOptions remediating_opts(int workers) {
  RuntimeOptions o;
  o.num_workers = workers;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 2'000;
  o.watchdog_period_ms = 20;
  o.remediation = true;
  return o;
}

TEST(RwLockStress, BrokenWriterDoesNotStallReaders) {
  // R holds a share and joins W; W waits to write, so W -> rw -> R -> W is
  // a cycle and the breaker cancels W (the younger member). Q queued as a
  // reader behind W's announcement while R still holds its share: once W
  // is broken out, Q must get in beside R, not wait for R to leave.
  Runtime rt(remediating_opts(3));
  RwLock rw;
  std::atomic<bool> r_holds{false}, w_spawned{false}, w_trying{false};
  std::atomic<bool> q_in{false}, q_in_beside_r{false};
  std::atomic<int> w_fault{-1};
  Thread w;  // written by the main thread before w_spawned is released
  Thread r = rt.spawn([&] {
    rw.lock_shared();
    r_holds.store(true, std::memory_order_release);
    while (!w_spawned.load(std::memory_order_acquire)) this_thread::yield();
    w_fault.store(static_cast<int>(w.join_status().fault.kind),
                  std::memory_order_release);
    const std::int64_t deadline = now_ns() + 5'000'000'000ll;
    while (!q_in.load(std::memory_order_acquire) && now_ns() < deadline)
      this_thread::yield();
    q_in_beside_r.store(q_in.load(std::memory_order_acquire),
                        std::memory_order_release);
    rw.unlock_shared();
  });
  ASSERT_TRUE(wait_until(r_holds, 2'000'000'000));
  w = rt.spawn([&] {
    w_trying.store(true, std::memory_order_release);
    rw.lock();
    ADD_FAILURE() << "W is the victim; its lock() must not succeed";
    rw.unlock();
  });
  w_spawned.store(true, std::memory_order_release);
  ASSERT_TRUE(wait_until(w_trying, 2'000'000'000));
  usleep(5'000);  // let W announce itself and park
  Thread q = rt.spawn([&] {
    rw.lock_shared();
    q_in.store(true, std::memory_order_release);
    rw.unlock_shared();
  });
  EXPECT_EQ(q.join_status().fault.kind, FaultKind::kNone);
  EXPECT_EQ(r.join_status().fault.kind, FaultKind::kNone);
  EXPECT_EQ(w_fault.load(), static_cast<int>(FaultKind::kDeadlock));
  EXPECT_TRUE(q_in_beside_r.load())
      << "the broken writer's announcement kept Q out until R left";
  const Runtime::Stats s = rt.stats();
  EXPECT_EQ(s.deadlock_cycles, 1u);
  EXPECT_EQ(s.remediations_deadlock_break, 1u);
}

TEST(RwLockStress, WriteThenReadCaughtAtLockShared) {
  // lock_shared() under our own write lock backs out of the reader slot on
  // seeing the writer word; the slow path must still catch the 1-cycle
  // synchronously instead of parking behind ourselves.
  Runtime rt(remediating_opts(1));
  RwLock rw;
  Thread t = rt.spawn([&] {
    rw.lock();
    rw.lock_shared();
    ADD_FAILURE() << "write-then-read must not return";
  });
  EXPECT_EQ(t.join_status().fault.kind, FaultKind::kDeadlock);
  const Runtime::Stats s = rt.stats();
  EXPECT_EQ(s.self_deadlocks, 1u);
  EXPECT_EQ(s.deadlock_cycles, 1u);
}

TEST(RwLockStress, AbandonedReaderReleasedToWriter) {
  // A reader cancelled while holding its share: with abandon_release its
  // share is dropped and the parked writer gets in. Later writers and
  // readers still find an exact reader count (none hangs, none aborts).
  RuntimeOptions o = remediating_opts(2);
  o.abandon_release = true;
  Runtime rt(o);
  RwLock rw;
  std::atomic<bool> r_in{false}, w_trying{false}, w_done{false};
  Thread r = rt.spawn([&] {
    rw.lock_shared();
    r_in.store(true, std::memory_order_release);
    for (;;) this_thread::yield();  // cancellation point; never unlocks
  });
  ASSERT_TRUE(wait_until(r_in, 2'000'000'000));
  Thread w = rt.spawn([&] {
    w_trying.store(true, std::memory_order_release);
    rw.lock();
    rw.unlock();
    w_done.store(true, std::memory_order_release);
  });
  ASSERT_TRUE(wait_until(w_trying, 2'000'000'000));
  usleep(10'000);  // let the writer park behind the reader

  EXPECT_TRUE(r.request_cancel());
  EXPECT_EQ(r.join_status().fault.kind, FaultKind::kCancelled);
  ASSERT_TRUE(wait_until(w_done, 5'000'000'000))
      << "the dead reader's share still holds the writer out";
  EXPECT_EQ(w.join_status().fault.kind, FaultKind::kNone);
  Thread after = rt.spawn([&] {
    rw.lock_shared();
    rw.unlock_shared();
    rw.lock();
    rw.unlock();
  });
  EXPECT_EQ(after.join_status().fault.kind, FaultKind::kNone);

  const Runtime::Stats s = rt.stats();
  EXPECT_EQ(s.abandoned_locks, 1u);
  EXPECT_EQ(s.abandoned_released, 1u);
  EXPECT_EQ(s.deadlock_cycles, 0u);
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

TEST(Semaphore, BoundsConcurrency) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  Semaphore sem(2);
  std::atomic<int> inside{0};
  std::atomic<bool> violation{false};
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.push_back(rt.spawn([&] {
      sem.acquire();
      if (inside.fetch_add(1) + 1 > 2) violation.store(true);
      busy_spin_ns(1'000'000);
      inside.fetch_sub(1);
      sem.release();
    }));
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load());
}

TEST(Semaphore, TryAcquireNeverBlocks) {
  Runtime rt{RuntimeOptions{}};
  Semaphore sem(1);
  Thread t = rt.spawn([&] {
    EXPECT_TRUE(sem.try_acquire());
    EXPECT_FALSE(sem.try_acquire());
    sem.release();
    EXPECT_TRUE(sem.try_acquire());
    sem.release();
  });
  t.join();
}

TEST(Semaphore, BatchReleaseWakesMultipleWaiters) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Semaphore sem(0);
  std::atomic<int> through{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 3; ++i)
    ts.push_back(rt.spawn([&] {
      sem.acquire();
      through.fetch_add(1);
    }));
  Thread releaser = rt.spawn([&] {
    for (int i = 0; i < 10; ++i) this_thread::yield();  // let them queue
    sem.release(3);
  });
  for (auto& t : ts) t.join();
  releaser.join();
  EXPECT_EQ(through.load(), 3);
}

// ---------------------------------------------------------------------------
// Latch
// ---------------------------------------------------------------------------

TEST(Semaphore, TryAcquireForTimesOutOnEmpty) {
  Runtime rt{RuntimeOptions{}};
  Semaphore sem(0);
  Thread t = rt.spawn([&] {
    const std::int64_t start = now_ns();
    EXPECT_FALSE(sem.try_acquire_for(std::chrono::milliseconds(20)));
    EXPECT_GE(now_ns() - start, 15'000'000);
    EXPECT_FALSE(sem.try_acquire_for(std::chrono::nanoseconds(0)));
  });
  t.join();
}

TEST(Semaphore, TryAcquireForWinsWhenReleased) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Semaphore sem(0);
  std::atomic<bool> waiting{false};
  Thread waiter = rt.spawn([&] {
    waiting.store(true, std::memory_order_release);
    EXPECT_TRUE(sem.try_acquire_for(std::chrono::seconds(10)));
  });
  Thread releaser = rt.spawn([&] {
    while (!waiting.load(std::memory_order_acquire)) this_thread::yield();
    sem.release();
  });
  waiter.join();
  releaser.join();
}

TEST(SemaphoreStress, TimedAcquireNeverLosesUnits) {
  // Short timed acquires race release() on 4 workers, so expiry and the
  // releaser's handoff keep meeting on the same waiter. A unit handed to a
  // waiter that then reports a timeout would be lost; one counted twice
  // would be invented. Units acquired plus units left in the semaphore must
  // equal units released, exactly.
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  Semaphore sem(0);
  constexpr int kAcquirers = 8;
  constexpr int kAttempts = 200;
  constexpr int kReleasers = 4;
  constexpr int kReleases = 150;  // per releaser, 1 or 2 units each
  constexpr std::chrono::microseconds kTimeouts[] = {
      std::chrono::microseconds(0), std::chrono::microseconds(50),
      std::chrono::microseconds(300), std::chrono::microseconds(1500)};
  std::atomic<long> acquired{0}, released{0};
  std::vector<Thread> ts;
  for (int i = 0; i < kAcquirers; ++i)
    ts.push_back(rt.spawn([&, i] {
      for (int k = 0; k < kAttempts; ++k)
        if (sem.try_acquire_for(kTimeouts[(i + k) % 4]))
          acquired.fetch_add(1, std::memory_order_relaxed);
    }));
  for (int i = 0; i < kReleasers; ++i)
    ts.push_back(rt.spawn([&, i] {
      for (int k = 0; k < kReleases; ++k) {
        const int n = 1 + (i + k) % 2;
        sem.release(n);
        released.fetch_add(n, std::memory_order_relaxed);
        for (int y = 0; y < 1 + k % 8; ++y) this_thread::yield();
      }
    }));
  for (auto& t : ts) t.join();
  long drained = 0;
  Thread drain = rt.spawn([&] {
    while (sem.try_acquire()) ++drained;
  });
  drain.join();
  EXPECT_GT(acquired.load(), 0);
  EXPECT_EQ(acquired.load() + drained, released.load());
}

TEST(Latch, ReleasesUltAndExternalWaiters) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Latch latch(3);
  std::atomic<int> released{0};
  std::vector<Thread> waiters;
  for (int i = 0; i < 2; ++i)
    waiters.push_back(rt.spawn([&] {
      latch.wait();
      released.fetch_add(1);
    }));
  std::thread external([&] {
    latch.wait();  // external kernel thread path (futex)
    released.fetch_add(1);
  });
  EXPECT_FALSE(latch.try_wait());
  for (int i = 0; i < 3; ++i) rt.spawn([&] { latch.count_down(); }).join();
  for (auto& t : waiters) t.join();
  external.join();
  EXPECT_EQ(released.load(), 3);
  EXPECT_TRUE(latch.try_wait());
}

TEST(Latch, WaitAfterFiredReturnsImmediately) {
  Runtime rt{RuntimeOptions{}};
  Latch latch(1);
  latch.count_down();
  Thread t = rt.spawn([&] { latch.wait(); });
  t.join();
  latch.wait();  // external, already fired
  SUCCEED();
}

// ---------------------------------------------------------------------------
// WaitGroup
// ---------------------------------------------------------------------------

TEST(WaitGroup, WaitsForAllWork) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  WaitGroup wg;
  std::atomic<int> done_count{0};
  wg.add(16);
  for (int i = 0; i < 16; ++i)
    rt.spawn_detached([&] {
      busy_spin_ns(500'000);
      done_count.fetch_add(1);
      wg.done();
    });
  wg.wait();  // external-thread path
  EXPECT_EQ(done_count.load(), 16);
}

TEST(WaitGroup, UltWaiterAndReuse) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  WaitGroup wg;
  for (int round = 0; round < 3; ++round) {
    wg.add(4);
    std::atomic<int> n{0};
    for (int i = 0; i < 4; ++i)
      rt.spawn_detached([&] {
        n.fetch_add(1);
        wg.done();
      });
    Thread waiter = rt.spawn([&] {
      wg.wait();
      EXPECT_EQ(n.load(), 4);
    });
    waiter.join();
  }
}

TEST(SyncExtra, PrimitivesUnderPreemption) {
  // All extended primitives used by preemptive threads simultaneously.
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 400;
  Runtime rt(o);
  RwLock rw;
  Semaphore sem(3);
  WaitGroup wg;
  long protected_value = 0;
  constexpr int kThreads = 6;
  wg.add(kThreads);
  std::vector<Thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ThreadAttrs attrs;
    attrs.preempt = (i % 2 == 0) ? Preempt::SignalYield : Preempt::KltSwitch;
    ts.push_back(rt.spawn(
        [&] {
          for (int k = 0; k < 300; ++k) {
            sem.acquire();
            rw.lock();
            ++protected_value;
            rw.unlock();
            sem.release();
          }
          wg.done();
        },
        attrs));
  }
  wg.wait();
  for (auto& t : ts) t.join();
  EXPECT_EQ(protected_value, kThreads * 300L);
}

}  // namespace
}  // namespace lpt
