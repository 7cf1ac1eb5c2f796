#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "common/time.hpp"
#include "prof/prof.hpp"
#include "runtime/lpt.hpp"

namespace lpt {
namespace {

TEST(Mutex, ProtectsCounterAcrossWorkers) {
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  Mutex m;
  long counter = 0;
  std::vector<Thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.push_back(rt.spawn([&] {
      for (int k = 0; k < 1000; ++k) {
        m.lock();
        ++counter;
        m.unlock();
      }
    }));
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 8000);
}

TEST(Mutex, BlockedWaiterResumesOnUnlock) {
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  Mutex m;
  std::vector<int> order;
  Thread a = rt.spawn([&] {
    m.lock();
    order.push_back(1);
    this_thread::yield();  // let b hit the lock and block
    order.push_back(2);
    m.unlock();
  });
  Thread b = rt.spawn([&] {
    m.lock();
    order.push_back(3);
    m.unlock();
  });
  a.join();
  b.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Mutex, TryLockReflectsState) {
  Runtime rt{RuntimeOptions{}};
  Mutex m;
  Thread t = rt.spawn([&] {
    EXPECT_TRUE(m.try_lock());
    EXPECT_FALSE(m.try_lock());
    m.unlock();
    EXPECT_TRUE(m.try_lock());
    m.unlock();
  });
  t.join();
}

TEST(Mutex, FairHandoffFifo) {
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  Mutex m;
  std::vector<int> order;
  Thread holder = rt.spawn([&] {
    m.lock();
    for (int i = 0; i < 4; ++i) this_thread::yield();  // queue up waiters
    m.unlock();
  });
  std::vector<Thread> waiters;
  for (int i = 0; i < 3; ++i)
    waiters.push_back(rt.spawn([&, i] {
      m.lock();
      order.push_back(i);
      m.unlock();
    }));
  holder.join();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CondVar, WaitReleasesAndReacquiresMutex) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Mutex m;
  CondVar cv;
  bool ready = false;
  std::atomic<bool> consumed{false};
  Thread consumer = rt.spawn([&] {
    m.lock();
    while (!ready) cv.wait(m);
    consumed.store(true);
    m.unlock();
  });
  Thread producer = rt.spawn([&] {
    for (int i = 0; i < 3; ++i) this_thread::yield();
    m.lock();
    ready = true;
    m.unlock();
    cv.notify_one();
  });
  consumer.join();
  producer.join();
  EXPECT_TRUE(consumed.load());
}

TEST(CondVar, NotifyAllWakesEveryWaiter) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Mutex m;
  CondVar cv;
  bool go = false;
  std::atomic<int> woke{0};
  std::vector<Thread> ts;
  for (int i = 0; i < 5; ++i)
    ts.push_back(rt.spawn([&] {
      m.lock();
      while (!go) cv.wait(m);
      m.unlock();
      woke.fetch_add(1);
    }));
  Thread waker = rt.spawn([&] {
    for (int i = 0; i < 10; ++i) this_thread::yield();
    m.lock();
    go = true;
    m.unlock();
    cv.notify_all();
  });
  for (auto& t : ts) t.join();
  waker.join();
  EXPECT_EQ(woke.load(), 5);
}

TEST(CondVar, NotifyWithoutWaitersIsNoop) {
  Runtime rt{RuntimeOptions{}};
  CondVar cv;
  Thread t = rt.spawn([&] {
    cv.notify_one();
    cv.notify_all();
  });
  t.join();
  SUCCEED();
}

TEST(Barrier, SynchronizesPhases) {
  RuntimeOptions o;
  o.num_workers = 3;
  Runtime rt(o);
  constexpr int kParties = 6;
  constexpr int kPhases = 10;
  Barrier bar(kParties);
  std::atomic<int> phase_counts[kPhases] = {};
  std::atomic<bool> violation{false};
  std::vector<Thread> ts;
  for (int p = 0; p < kParties; ++p)
    ts.push_back(rt.spawn([&] {
      for (int ph = 0; ph < kPhases; ++ph) {
        phase_counts[ph].fetch_add(1);
        bar.arrive_and_wait();
        // After the barrier, every participant must have arrived at ph.
        if (phase_counts[ph].load() != kParties) violation.store(true);
      }
    }));
  for (auto& t : ts) t.join();
  EXPECT_FALSE(violation.load());
}

TEST(Barrier, SinglePartyNeverBlocks) {
  Runtime rt{RuntimeOptions{}};
  Barrier bar(1);
  Thread t = rt.spawn([&] {
    for (int i = 0; i < 100; ++i) bar.arrive_and_wait();
  });
  t.join();
  SUCCEED();
}

TEST(BusyFlag, YieldingWaitWorksOnNonpreemptiveThreads) {
  RuntimeOptions o;
  o.num_workers = 1;  // forces cooperative interleaving
  Runtime rt(o);
  BusyFlag flag;
  std::atomic<bool> passed{false};
  Thread waiter = rt.spawn([&] {
    flag.wait(BusyFlag::WaitMode::kSpinWithYield);
    passed.store(true);
  });
  Thread setter = rt.spawn([&] { flag.set(); });
  waiter.join();
  setter.join();
  EXPECT_TRUE(passed.load());
}

TEST(BusyFlag, PureSpinWaitNeedsPreemption) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  Runtime rt(o);
  BusyFlag flag;
  ThreadAttrs attrs;
  attrs.preempt = Preempt::SignalYield;
  Thread waiter = rt.spawn([&] { flag.wait(BusyFlag::WaitMode::kSpin); }, attrs);
  Thread setter = rt.spawn([&] { flag.set(); }, attrs);
  waiter.join();
  setter.join();
  EXPECT_GT(rt.total_preemptions(), 0u);
}


// ---------------------------------------------------------------------------
// Timed waits (self-healing PR: timed-wait registry, ~1 ms granularity)
// ---------------------------------------------------------------------------

TEST(TimedSync, TryLockForTimesOutThenSucceeds) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Mutex m;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  Thread holder = rt.spawn([&] {
    m.lock();
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) this_thread::yield();
    m.unlock();
  });
  Thread contender = rt.spawn([&] {
    while (!held.load(std::memory_order_acquire)) this_thread::yield();
    const std::int64_t start = now_ns();
    EXPECT_FALSE(m.try_lock_for(std::chrono::milliseconds(20)));
    EXPECT_GE(now_ns() - start, 15'000'000) << "returned before the timeout";
    release.store(true, std::memory_order_release);
    EXPECT_TRUE(m.try_lock_for(std::chrono::seconds(10)));
    m.unlock();
  });
  holder.join();
  contender.join();
}

TEST(TimedSync, TryLockForZeroTimeoutIsTryLock) {
  Runtime rt{RuntimeOptions{}};
  Mutex m;
  Thread t = rt.spawn([&] {
    EXPECT_TRUE(m.try_lock_for(std::chrono::nanoseconds(0)));
    EXPECT_FALSE(m.try_lock_for(std::chrono::nanoseconds(0)));
    m.unlock();
  });
  t.join();
}

TEST(TimedSync, CondVarWaitForTimesOutHoldingMutex) {
  Runtime rt{RuntimeOptions{}};
  Mutex m;
  CondVar cv;
  Thread t = rt.spawn([&] {
    m.lock();
    const std::int64_t start = now_ns();
    EXPECT_FALSE(cv.wait_for(m, std::chrono::milliseconds(20)));
    EXPECT_GE(now_ns() - start, 15'000'000);
    // m is re-held after a timed-out wait: mutating shared state is legal.
    m.unlock();
  });
  t.join();
}

TEST(TimedSync, CondVarWaitForWinsWhenNotified) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Mutex m;
  CondVar cv;
  std::atomic<bool> waiting{false};
  bool ready = false;
  Thread waiter = rt.spawn([&] {
    m.lock();
    waiting.store(true, std::memory_order_release);
    bool ok = true;
    while (!ready && ok) ok = cv.wait_for(m, std::chrono::seconds(10));
    EXPECT_TRUE(ok);
    EXPECT_TRUE(ready);
    m.unlock();
  });
  Thread notifier = rt.spawn([&] {
    while (!waiting.load(std::memory_order_acquire)) this_thread::yield();
    m.lock();
    ready = true;
    m.unlock();
    cv.notify_one();
  });
  waiter.join();
  notifier.join();
}

TEST(TimedSync, CondVarWaitForNonpositiveTimeoutKeepsMutex) {
  // sync.hpp: a nonpositive timeout returns false without releasing m.
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  Mutex m;
  CondVar cv;
  std::atomic<bool> waited{false};
  std::atomic<bool> checked{false};
  Thread t = rt.spawn([&] {
    m.lock();
    EXPECT_FALSE(cv.wait_for(m, std::chrono::nanoseconds(0)));
    EXPECT_TRUE(m.held_by_caller());
    EXPECT_FALSE(cv.wait_for(m, std::chrono::milliseconds(-5)));
    EXPECT_TRUE(m.held_by_caller());
    waited.store(true, std::memory_order_release);
    while (!checked.load(std::memory_order_acquire)) this_thread::yield();
    m.unlock();
  });
  Thread other = rt.spawn([&] {
    while (!waited.load(std::memory_order_acquire)) this_thread::yield();
    EXPECT_FALSE(m.try_lock()) << "wait_for released the mutex";
    checked.store(true, std::memory_order_release);
  });
  t.join();
  other.join();
}

TEST(TimedSync, SleepForReleasesWorkerAndWakes) {
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  std::atomic<std::uint64_t> other_work{0};
  std::atomic<bool> stop{false};
  // On the single worker, a sleeping ULT must not block its sibling.
  Thread bg = rt.spawn([&] {
    while (!stop.load(std::memory_order_acquire)) {
      other_work.fetch_add(1, std::memory_order_relaxed);
      this_thread::yield();
    }
  });
  Thread sleeper = rt.spawn([&] {
    const std::int64_t start = now_ns();
    this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_GE(now_ns() - start, 25'000'000);
  });
  sleeper.join();
  EXPECT_GT(other_work.load(std::memory_order_relaxed), 0u);
  stop.store(true, std::memory_order_release);
  bg.join();
}

TEST(TimedSync, SleepForWakesOnTimeBesideYieldingSibling) {
  // The only worker never idles (its sibling yields in a loop), so idle
  // naps cannot drive expiry; the scheduling passes must, at ~1 ms
  // granularity rather than the watchdog's 100 ms period.
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  std::atomic<bool> stop{false};
  Thread bg = rt.spawn([&] {
    while (!stop.load(std::memory_order_acquire)) this_thread::yield();
  });
  std::atomic<std::int64_t> slept{0};
  Thread sleeper = rt.spawn([&] {
    const std::int64_t start = now_ns();
    this_thread::sleep_for(std::chrono::milliseconds(30));
    slept.store(now_ns() - start);
  });
  sleeper.join();
  stop.store(true, std::memory_order_release);
  bg.join();
  EXPECT_GE(slept.load(), 25'000'000);
  EXPECT_LT(slept.load(), 60'000'000);
}

TEST(TimedSync, SleepForOutsideUltFallsBackToNanosleep) {
  const std::int64_t start = now_ns();
  this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_GE(now_ns() - start, 10'000'000);
}

TEST(TimedSync, JoinForTimesOutThenJoins) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  std::atomic<bool> release{false};
  Thread worker = rt.spawn([&] {
    while (!release.load(std::memory_order_acquire)) this_thread::yield();
  });
  // ULT-context join_for.
  Thread joiner = rt.spawn([&] {
    EXPECT_FALSE(worker.join_for(std::chrono::milliseconds(20)));
    EXPECT_TRUE(worker.joinable()) << "timed-out join must keep the handle";
    release.store(true, std::memory_order_release);
    EXPECT_TRUE(worker.join_for(std::chrono::seconds(30)));
    EXPECT_FALSE(worker.joinable());
  });
  joiner.join();
}

TEST(TimedSync, JoinForFromExternalThread) {
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  std::atomic<bool> release{false};
  Thread worker = rt.spawn([&] {
    while (!release.load(std::memory_order_acquire)) this_thread::yield();
  });
  // The test body runs on an external (non-ULT) kernel thread.
  EXPECT_FALSE(worker.join_for(std::chrono::milliseconds(20)));
  EXPECT_TRUE(worker.joinable());
  release.store(true, std::memory_order_release);
  EXPECT_TRUE(worker.join_for(std::chrono::seconds(30)));
  EXPECT_FALSE(worker.joinable());
}

TEST(Sync, MutexUnderPreemption) {
  // Locks + implicit preemption: the no-preempt guards inside the
  // primitives must prevent a preempted lock holder from wedging a worker.
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 300;
  Runtime rt(o);
  Mutex m;
  long counter = 0;
  std::vector<Thread> ts;
  for (int i = 0; i < 6; ++i) {
    ThreadAttrs attrs;
    attrs.preempt = (i % 2 == 0) ? Preempt::SignalYield : Preempt::KltSwitch;
    ts.push_back(rt.spawn(
        [&] {
          for (int k = 0; k < 2000; ++k) {
            m.lock();
            ++counter;
            m.unlock();
          }
        },
        attrs));
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, 12000);
}

// ---------------------------------------------------------------------------
// Barging succession: spin-then-park, starvation bound, sleeper-gated wakeup
// ---------------------------------------------------------------------------

/// 16 ULTs on 4 workers hammer one Mutex; the count must come out exact.
void run_mutex_stress(Preempt preempt) {
  RuntimeOptions o;
  o.num_workers = 4;
  if (preempt != Preempt::None) {
    o.timer = TimerKind::PerWorkerAligned;
    o.interval_us = 1000;
  }
  Runtime rt(o);
  Mutex m;
  constexpr int kUlts = 16;
  constexpr int kIncrements = 5000;
  long counter = 0;
  ThreadAttrs attrs;
  attrs.preempt = preempt;
  std::vector<Thread> ts;
  for (int i = 0; i < kUlts; ++i)
    ts.push_back(rt.spawn(
        [&] {
          for (int k = 0; k < kIncrements; ++k) {
            m.lock();
            const long seen = counter;
            for (int spin = 0; spin < 16; ++spin) cpu_pause();  // widen races
            counter = seen + 1;
            m.unlock();
          }
        },
        attrs));
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<long>(kUlts) * kIncrements);
}

TEST(MutexStress, ExactCountNonpreemptive) { run_mutex_stress(Preempt::None); }
TEST(MutexStress, ExactCountSignalYield) {
  run_mutex_stress(Preempt::SignalYield);
}
TEST(MutexStress, ExactCountKltSwitch) { run_mutex_stress(Preempt::KltSwitch); }

TEST(MutexStress, WaiterStarvationBounded) {
  // Four hammers hold the lock in long sections and re-take it right after
  // each release; being on a core, they beat any waiter unlock() woke, so
  // without a starvation bound a fifth ULT could lose forever. With it, after
  // Mutex::kStarveLosses lost races or Mutex::kStarveNs of waiting the next
  // unlock hands the lock over, and the fifth ULT's worst acquire stays near
  // that bound. The slack covers the hammers' 1 ms sections (about two per
  // waiter queued ahead), wakeup latency and host noise; without the bound
  // the fifth ULT waits for seconds.
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  Mutex m;
  std::atomic<bool> stop{false};
  std::vector<Thread> hammers;
  for (int i = 0; i < 4; ++i)
    hammers.push_back(rt.spawn([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        m.lock();
        busy_spin_ns(1'000'000);
        m.unlock();
      }
    }));
  std::atomic<std::int64_t> worst{0};
  Thread waiter = rt.spawn([&] {
    for (int round = 0; round < 20; ++round) {
      const std::int64_t t0 = now_ns();
      m.lock();
      worst.store(std::max(worst.load(), now_ns() - t0));
      m.unlock();
      this_thread::yield();
    }
  });
  const bool finished = waiter.join_for(std::chrono::seconds(10));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : hammers) t.join();
  if (!finished) waiter.join();
  EXPECT_TRUE(finished) << "the lone waiter starved";
  EXPECT_LT(worst.load(), Mutex::kStarveNs + 50'000'000)
      << "worst acquire " << worst.load() << " ns";
}

TEST(MutexStress, TryLockForTimeoutNeverOwns) {
  // The holder re-takes the lock right after each release (it is on a core,
  // so it usually beats the waiter its unlock woke) and holds it 2 ms each
  // time. A timed waiter is therefore woken by unlock, loses, and re-parks. A false
  // return must come at the deadline, never early, and never with the lock
  // held; a deadline well past the starvation bound is met by handoff.
  RuntimeOptions o;
  o.num_workers = 4;
  Runtime rt(o);
  Mutex m;
  std::atomic<bool> stop{false};
  Thread holder = rt.spawn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      m.lock();
      busy_spin_ns(2'000'000);
      m.unlock();
    }
  });
  int timeouts = 0;
  Thread timed = rt.spawn([&] {
    // Timeouts shorter than one hold, a bit longer (woken, lost, then out of
    // time), and far past the starvation bound.
    constexpr std::chrono::microseconds kTimeouts[] = {
        std::chrono::microseconds(300), std::chrono::milliseconds(3),
        std::chrono::milliseconds(30)};
    for (int round = 0; round < 21; ++round) {
      const std::chrono::microseconds timeout = kTimeouts[round % 3];
      const bool short_wait = timeout < std::chrono::milliseconds(30);
      const std::int64_t t0 = now_ns();
      const bool got = m.try_lock_for(timeout);
      const std::int64_t waited = now_ns() - t0;
      EXPECT_EQ(got, m.held_by_caller());
      if (got) {
        m.unlock();
      } else {
        ++timeouts;
        EXPECT_GE(waited, std::chrono::nanoseconds(timeout).count())
            << "timed out before the deadline";
      }
      if (!short_wait) {
        EXPECT_TRUE(got) << "no handoff within " << waited << " ns";
      }
      // Let the holder take the lock back, so the next round parks behind
      // it instead of barging past it.
      this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  timed.join();
  stop.store(true, std::memory_order_relaxed);
  holder.join();
  EXPECT_GT(timeouts, 0) << "the holder never made the waiter time out";
  // The mutex is still usable afterwards: no waiter left stranded on it.
  Thread last = rt.spawn([&] {
    m.lock();
    m.unlock();
  });
  last.join();
}

// ---------------------------------------------------------------------------
// The wait path: every public wait parks through one sequence
// ---------------------------------------------------------------------------

// Each public wait is called from its own small noinline function, so the
// off-CPU callsite recorded for it must lie inside that function. The
// compiler barrier after each call keeps it from becoming a tail call, which
// would record the caller's caller instead.
constexpr std::chrono::seconds kLongWait{60};
inline void no_tail_call() { asm volatile("" ::: "memory"); }

[[gnu::noinline]] void at_lock(Mutex& m) {
  m.lock();
  no_tail_call();
}
[[gnu::noinline]] bool at_try_lock_for(Mutex& m, std::chrono::nanoseconds t) {
  const bool got = m.try_lock_for(t);
  no_tail_call();
  return got;
}
[[gnu::noinline]] void at_wait(CondVar& cv, Mutex& m) {
  cv.wait(m);
  no_tail_call();
}
[[gnu::noinline]] bool at_wait_for(CondVar& cv, Mutex& m,
                                   std::chrono::nanoseconds t) {
  const bool notified = cv.wait_for(m, t);
  no_tail_call();
  return notified;
}
[[gnu::noinline]] void at_arrive(Barrier& b) {
  b.arrive_and_wait();
  no_tail_call();
}
[[gnu::noinline]] void at_lock_shared(RwLock& rw) {
  rw.lock_shared();
  no_tail_call();
}
[[gnu::noinline]] void at_rw_lock(RwLock& rw) {
  rw.lock();
  no_tail_call();
}
[[gnu::noinline]] void at_acquire(Semaphore& s) {
  s.acquire();
  no_tail_call();
}
[[gnu::noinline]] bool at_try_acquire_for(Semaphore& s,
                                          std::chrono::nanoseconds t) {
  const bool got = s.try_acquire_for(t);
  no_tail_call();
  return got;
}
[[gnu::noinline]] void at_latch(Latch& l) {
  l.wait();
  no_tail_call();
}
[[gnu::noinline]] void at_wait_group(WaitGroup& wg) {
  wg.wait();
  no_tail_call();
}
[[gnu::noinline]] void at_join(Thread& t) {
  t.join();
  no_tail_call();
}
[[gnu::noinline]] bool at_join_for(Thread& t, std::chrono::nanoseconds d) {
  const bool joined = t.join_for(d);
  no_tail_call();
  return joined;
}
[[gnu::noinline]] void at_sleep(std::chrono::nanoseconds d) {
  this_thread::sleep_for(d);
  no_tail_call();
}

TEST(WaitPath, EveryWaitRegistersAndAttributes) {
  // One ULT parks in each of the 14 public waits at once. Every one must
  // show in the parking registry while parked and leave it after release,
  // and every one must be attributed to its own callsite in the off-CPU
  // profile, timed and untimed twins alike.
  RuntimeOptions o;
  o.num_workers = 4;
  o.prof.enabled = true;  // deadlock detection stays at its default (on)
  Runtime rt(o);
  if (!prof::offcpu_on()) GTEST_SKIP() << "profiler compiled out";
  const std::int64_t base = rt.metrics_snapshot().parked_waiters;

  Mutex m, cm1, cm2;
  CondVar cv1, cv2;
  Barrier barrier(2);
  RwLock rw;
  Semaphore sem(0);
  Latch latch(1);
  WaitGroup wg;
  wg.add(1);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  auto until_release = [&] {
    while (!release.load(std::memory_order_acquire)) this_thread::yield();
  };
  Thread holder = rt.spawn([&] {
    m.lock();
    rw.lock();
    held.store(true, std::memory_order_release);
    until_release();
    rw.unlock();
    m.unlock();
  });
  while (!held.load(std::memory_order_acquire)) usleep(100);
  Thread joined = rt.spawn(until_release);
  Thread joined_for = rt.spawn(until_release);

  std::vector<Thread> ts;
  ts.push_back(rt.spawn([&] {
    at_lock(m);
    m.unlock();
  }));
  ts.push_back(rt.spawn([&] {
    EXPECT_TRUE(at_try_lock_for(m, kLongWait));
    m.unlock();
  }));
  ts.push_back(rt.spawn([&] {
    cm1.lock();
    at_wait(cv1, cm1);
    cm1.unlock();
  }));
  ts.push_back(rt.spawn([&] {
    cm2.lock();
    EXPECT_TRUE(at_wait_for(cv2, cm2, kLongWait));
    cm2.unlock();
  }));
  ts.push_back(rt.spawn([&] { at_arrive(barrier); }));
  ts.push_back(rt.spawn([&] {
    at_lock_shared(rw);
    rw.unlock_shared();
  }));
  ts.push_back(rt.spawn([&] {
    at_rw_lock(rw);
    rw.unlock();
  }));
  ts.push_back(rt.spawn([&] { at_acquire(sem); }));
  ts.push_back(
      rt.spawn([&] { EXPECT_TRUE(at_try_acquire_for(sem, kLongWait)); }));
  ts.push_back(rt.spawn([&] { at_latch(latch); }));
  ts.push_back(rt.spawn([&] { at_wait_group(wg); }));
  ts.push_back(rt.spawn([&] { at_join(joined); }));
  ts.push_back(
      rt.spawn([&] { EXPECT_TRUE(at_join_for(joined_for, kLongWait)); }));
  Thread sleeper = rt.spawn([] { at_sleep(kLongWait); });  // cancelled below

  constexpr std::int64_t kWaits = 14;
  auto parked = [&] { return rt.metrics_snapshot().parked_waiters - base; };
  const std::int64_t give_up = now_ns() + 10'000'000'000;
  while (parked() < kWaits && now_ns() < give_up) usleep(1000);
  EXPECT_EQ(parked(), kWaits);

  release.store(true, std::memory_order_release);
  Thread releaser = rt.spawn([&] {
    cv1.notify_one();
    cv2.notify_one();
    barrier.arrive_and_wait();  // the second party: does not park
    sem.release(2);
    latch.count_down();
    wg.done();
  });
  releaser.join();
  EXPECT_TRUE(sleeper.request_cancel());
  EXPECT_EQ(sleeper.join_status().fault.kind, FaultKind::kCancelled);
  for (Thread& t : ts) t.join();
  holder.join();
  EXPECT_EQ(parked(), 0);

  struct Expect {
    const char* name;
    prof::WaitKind kind;
    const void* fn;
  };
  const Expect expects[] = {
      {"Mutex::lock", prof::WaitKind::kMutex, (const void*)&at_lock},
      {"Mutex::try_lock_for", prof::WaitKind::kMutex,
       (const void*)&at_try_lock_for},
      {"CondVar::wait", prof::WaitKind::kCondVar, (const void*)&at_wait},
      {"CondVar::wait_for", prof::WaitKind::kCondVar,
       (const void*)&at_wait_for},
      {"Barrier", prof::WaitKind::kBarrier, (const void*)&at_arrive},
      {"RwLock::lock_shared", prof::WaitKind::kRwLock,
       (const void*)&at_lock_shared},
      {"RwLock::lock", prof::WaitKind::kRwLock, (const void*)&at_rw_lock},
      {"Semaphore::acquire", prof::WaitKind::kSemaphore,
       (const void*)&at_acquire},
      {"Semaphore::try_acquire_for", prof::WaitKind::kSemaphore,
       (const void*)&at_try_acquire_for},
      {"Latch", prof::WaitKind::kLatch, (const void*)&at_latch},
      {"WaitGroup", prof::WaitKind::kWaitGroup, (const void*)&at_wait_group},
      {"join", prof::WaitKind::kJoin, (const void*)&at_join},
      {"join_for", prof::WaitKind::kJoin, (const void*)&at_join_for},
      {"sleep_for", prof::WaitKind::kSleep, (const void*)&at_sleep},
  };
  // The call sits within the first few dozen bytes of its tiny caller.
  constexpr std::uintptr_t kFnSpan = 256;
  const std::vector<prof::WaitSiteProfile> sites =
      prof::Collector::instance().offcpu_sites();
  for (const Expect& e : expects) {
    const auto fn = reinterpret_cast<std::uintptr_t>(e.fn);
    bool found = false;
    std::string seen;  // offsets of this kind's sites, for the failure report
    for (const prof::WaitSiteProfile& p : sites) {
      if (p.kind != e.kind || p.count == 0) continue;
      found |= p.site > fn && p.site < fn + kFnSpan;
      seen += " " + std::to_string(static_cast<long long>(p.site - fn));
    }
    EXPECT_TRUE(found) << e.name << ": no off-CPU wait inside its caller;"
                       << " site offsets from it:" << seen;
  }
}

TEST(IdleWakeup, ExternalSpawnOnIdleRuntimeDispatchesPromptly) {
  // With the worker asleep in idle_wait, an external spawn must wake it at
  // once. A lost wakeup would still be rescued by the 1 ms nap, so the median
  // dispatch latency (not completion) is what exposes it: about 500 us when
  // wakeups are lost. One worker, because with several the earliest of their
  // staggered naps would rescue the spawn sooner and blur that signal.
  RuntimeOptions o;
  o.num_workers = 1;
  Runtime rt(o);
  std::vector<std::int64_t> lat;
  for (int i = 0; i < 41; ++i) {
    // Let the worker reach its futex nap; the varying gap spreads the spawn
    // over the nap's phase, so a lost wakeup costs ~500 us on average.
    usleep(2000 + (i * 379) % 1000);
    std::atomic<std::int64_t> ran{0};
    const std::int64_t t0 = now_ns();
    Thread t = rt.spawn([&] { ran.store(now_ns(), std::memory_order_relaxed); });
    t.join();
    lat.push_back(ran.load(std::memory_order_relaxed) - t0);
  }
  std::sort(lat.begin(), lat.end());
  EXPECT_LT(lat[lat.size() / 2], 250'000)
      << "median external-spawn dispatch " << lat[lat.size() / 2] << " ns";
}

}  // namespace
}  // namespace lpt
