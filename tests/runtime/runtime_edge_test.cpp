// Edge cases and paper-§3.5 behaviours: restartable system calls under
// preemption signals, guard nesting, KLT-count bounds (the "worst case
// deteriorates to 1:1" claim), handle semantics, and mixed-config stress.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/sys.hpp"
#include "common/time.hpp"
#include "runtime/internal.hpp"
#include "runtime/lpt.hpp"

namespace lpt {
namespace {

TEST(SyscallRestart, BlockingReadSurvivesPreemptionSignals) {
  // §3.5.1: handlers install SA_RESTART so interrupted system calls restart
  // transparently. A ULT blocked in read(2) on a pipe receives timer
  // signals every 500 µs and must still return the written data, not EINTR.
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 500;
  Runtime rt(o);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::atomic<int> got{-1};
  ThreadAttrs attrs;
  attrs.preempt = Preempt::SignalYield;
  Thread reader = rt.spawn(
      [&] {
        char buf[8] = {};
        const ssize_t n = read(fds[0], buf, sizeof(buf));  // blocks ~20 ms
        got.store(n == 5 && std::memcmp(buf, "hello", 5) == 0 ? 1 : 0);
      },
      attrs);
  // Let ~40 timer periods hit the blocked reader before writing.
  usleep(20'000);
  ASSERT_EQ(write(fds[1], "hello", 5), 5);
  reader.join();
  EXPECT_EQ(got.load(), 1) << "read() was not restarted cleanly";
  close(fds[0]);
  close(fds[1]);
}

TEST(SyscallRestart, NanosleepNeedsExplicitEintrHandling) {
  // §3.5.1's caveat, demonstrated: nanosleep(2) belongs to the class of
  // system calls SA_RESTART can NEVER restart (signal(7)); under a
  // preemption timer it returns EINTR with the remaining time, and the
  // "appropriate error handling [that] is required" is the classic retry
  // loop on the `rem` output.
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 300;
  Runtime rt(o);
  ThreadAttrs attrs;
  attrs.preempt = Preempt::KltSwitch;
  std::atomic<std::int64_t> slept{0};
  std::atomic<int> eintrs{0};
  Thread t = rt.spawn(
      [&] {
        const std::int64_t t0 = now_ns();
        timespec req{0, 20'000'000};  // 20 ms >> 0.3 ms interval
        while (nanosleep(&req, &req) == -1 && errno == EINTR)
          eintrs.fetch_add(1);
        slept.store(now_ns() - t0);
      },
      attrs);
  t.join();
  EXPECT_GE(slept.load(), 19'000'000);
  // With a 0.3 ms timer over a 20 ms sleep, interruptions must occur.
  EXPECT_GT(eintrs.load(), 0);
}

TEST(NoPreemptGuard, NestingDefersUntilOutermostExit) {
  RuntimeOptions o;
  o.num_workers = 1;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 300;
  Runtime rt(o);
  ThreadAttrs attrs;
  attrs.preempt = Preempt::SignalYield;
  std::atomic<std::uint64_t> inner{0}, mid{0};
  Thread t = rt.spawn(
      [&] {
        NoPreemptGuard outer_guard;
        {
          NoPreemptGuard inner_guard;
          busy_spin_ns(5'000'000);
          inner.store(Runtime::current()->total_preemptions());
        }
        busy_spin_ns(5'000'000);
        mid.store(Runtime::current()->total_preemptions());
      },
      attrs);
  t.join();
  EXPECT_EQ(inner.load(), 0u);
  EXPECT_EQ(mid.load(), 0u);  // still guarded by the outer scope
}

TEST(NoPreemptGuard, OutsideUltIsHarmless) {
  Runtime rt{RuntimeOptions{}};
  NoPreemptGuard g1;
  NoPreemptGuard g2;
  Thread t = rt.spawn([] {});
  t.join();
  SUCCEED();
}

TEST(KltBounds, KltCountNeverExceedsThreadsPlusWorkers) {
  // §3.1.2: "in the worst case, we would allocate as many KLTs as threads,
  // thus simply deteriorating to a 1:1 threading model". With T threads and
  // W workers the pool can hold at most T bound + W hosts (+ the creator's
  // one-in-flight batch).
  RuntimeOptions o;
  o.num_workers = 2;
  o.timer = TimerKind::PerWorkerAligned;
  o.interval_us = 300;
  Runtime rt(o);
  constexpr int kThreads = 8;
  ThreadAttrs attrs;
  attrs.preempt = Preempt::KltSwitch;
  std::vector<Thread> ts;
  for (int i = 0; i < kThreads; ++i)
    ts.push_back(rt.spawn([&] { busy_spin_ns(50'000'000); }, attrs));
  for (auto& t : ts) t.join();
  EXPECT_GT(rt.total_preemptions(), 0u);
  // kThreads bound + num_workers hosts + capped local-pool spares + at most
  // num_workers creations in flight when demand stopped.
  EXPECT_LE(rt.total_klts(),
            static_cast<std::uint64_t>(kThreads + 3 * o.num_workers));
}

TEST(ThreadHandle, MoveAssignJoinsPreviousThread) {
  Runtime rt{RuntimeOptions{}};
  std::atomic<int> done{0};
  Thread a = rt.spawn([&] { done.fetch_add(1); });
  Thread b = rt.spawn([&] { done.fetch_add(10); });
  a = std::move(b);  // must join the old `a` thread first
  EXPECT_TRUE(a.joinable());
  a.join();
  EXPECT_EQ(done.load(), 11);
}

TEST(ThreadHandle, MoveConstructedHandleOwnsThread) {
  Runtime rt{RuntimeOptions{}};
  std::atomic<bool> ran{false};
  Thread a = rt.spawn([&] { ran.store(true); });
  Thread b(std::move(a));
  EXPECT_FALSE(a.joinable());
  EXPECT_TRUE(b.joinable());
  b.join();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadHandle, DoubleJoinIsBenignNoOp) {
  Runtime rt{RuntimeOptions{}};
  std::atomic<int> done{0};
  Thread a = rt.spawn([&] { done.fetch_add(1); });
  a.join();
  EXPECT_FALSE(a.joinable());
  a.join();  // already joined: defined no-op, unlike std::thread
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadHandle, JoinStatusOnEmptyHandleReportsNothingJoined) {
  Thread empty;
  const ThreadStatus st = empty.join_status();
  EXPECT_FALSE(st.completed);
  EXPECT_FALSE(st.failed());
}

TEST(ThreadHandle, JoinAfterFailureIsBenignAndStatusIsSticky) {
  Runtime rt{RuntimeOptions{}};
  Thread bad = rt.spawn([] { throw std::runtime_error("edge boom"); });
  const ThreadStatus st = bad.join_status();
  EXPECT_TRUE(st.completed);
  EXPECT_TRUE(st.failed());
  bad.join();  // handle already consumed: benign no-op
  const ThreadStatus again = bad.join_status();
  EXPECT_FALSE(again.completed);  // nothing left to join
}

TEST(ExternalThreads, ConcurrentSpawnersFromManyKernelThreads) {
  RuntimeOptions o;
  o.num_workers = 2;
  Runtime rt(o);
  std::atomic<int> total{0};
  std::vector<std::thread> spawners;
  for (int s = 0; s < 4; ++s)
    spawners.emplace_back([&] {
      std::vector<Thread> ts;
      for (int i = 0; i < 50; ++i)
        ts.push_back(rt.spawn([&] { total.fetch_add(1); }));
      for (auto& t : ts) t.join();
    });
  for (auto& s : spawners) s.join();
  EXPECT_EQ(total.load(), 200);
}

TEST(StackPoolReuse, ManyGenerationsRecycleStacks) {
  Runtime rt{RuntimeOptions{}};
  for (int gen = 0; gen < 20; ++gen) {
    std::vector<Thread> ts;
    for (int i = 0; i < 16; ++i)
      ts.push_back(rt.spawn([] {
        volatile char buf[4096];
        buf[0] = 1;
        buf[4095] = 2;
      }));
    for (auto& t : ts) t.join();
  }
  // 320 threads with at most 16 alive at once: the pool bounds live stacks.
  SUCCEED();
}

TEST(MixedConfig, SequentialRuntimesWithDifferentSetups) {
  {
    RuntimeOptions o;
    o.num_workers = 1;
    o.timer = TimerKind::ProcessChain;
    o.interval_us = 500;
    Runtime rt(o);
    ThreadAttrs attrs;
    attrs.preempt = Preempt::SignalYield;
    Thread t = rt.spawn([] { busy_spin_ns(5'000'000); }, attrs);
    t.join();
  }
  {
    RuntimeOptions o;
    o.num_workers = 3;
    o.scheduler = SchedulerKind::Priority;
    Runtime rt(o);
    Thread t = rt.spawn([] {});
    t.join();
  }
  {
    RuntimeOptions o;
    o.num_workers = 2;
    o.timer = TimerKind::PosixPerWorker;
    o.interval_us = 1000;
    o.klt_suspend = KltSuspend::Sigsuspend;
    Runtime rt(o);
    ThreadAttrs attrs;
    attrs.preempt = Preempt::KltSwitch;
    Thread t = rt.spawn([] { busy_spin_ns(5'000'000); }, attrs);
    t.join();
  }
  SUCCEED();
}

TEST(PriorityLive, AnalysisEvictedWhenSimulationArrives) {
  // The §4.3 mechanism live: a low-priority preemptive thread occupies the
  // only worker; when high-priority work arrives it must run promptly, which
  // requires the low thread to be *involuntarily* evicted.
  RuntimeOptions o;
  o.num_workers = 1;
  o.scheduler = SchedulerKind::Priority;
  o.timer = TimerKind::ProcessChain;
  o.interval_us = 500;
  Runtime rt(o);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> high_latency_ns{-1};
  ThreadAttrs low;
  low.priority = 1;
  low.preempt = Preempt::SignalYield;
  Thread analysis = rt.spawn(
      [&] {
        while (!stop.load(std::memory_order_acquire)) cpu_pause();
      },
      low);

  usleep(5'000);  // analysis thread is now hogging the worker
  const std::int64_t t0 = now_ns();
  ThreadAttrs high;
  high.priority = 0;
  Thread sim = rt.spawn([&] { high_latency_ns.store(now_ns() - t0); }, high);
  sim.join();
  stop.store(true);
  analysis.join();

  ASSERT_GE(high_latency_ns.load(), 0);
  // Must be on the order of the preemption interval, not the spin duration.
  EXPECT_LT(high_latency_ns.load(), 100'000'000);
  EXPECT_GT(rt.total_preemptions(), 0u);
}

/// Low-priority compute hogs for the preemption-on-arrival tests: one
/// priority-1 ULT per entry of `kinds`, each spinning until stop(). With
/// `guarded`, each hog first spins inside a NoPreemptGuard until release().
/// The constructor returns once every hog runs, so with one hog per worker
/// every worker is busy; rank(i) is the worker hog i started on.
class Hogs {
 public:
  Hogs(Runtime& rt, std::vector<Preempt> kinds, bool guarded = false)
      : ranks_(kinds.size()) {
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      ThreadAttrs a;
      a.priority = 1;
      a.preempt = kinds[i];
      threads_.push_back(rt.spawn(
          [this, i, guarded] {
            ranks_[i].store(this_thread::worker_rank());
            if (guarded) {
              NoPreemptGuard g;
              started_.fetch_add(1);
              while (!release_.load(std::memory_order_acquire)) cpu_pause();
            } else {
              started_.fetch_add(1);
            }
            while (!stop_.load(std::memory_order_acquire)) cpu_pause();
          },
          a));
    }
    while (started_.load() < static_cast<int>(kinds.size())) usleep(100);
  }
  ~Hogs() { stop(); }
  int rank(std::size_t i) const { return ranks_[i].load(); }
  void release() { release_.store(true, std::memory_order_release); }
  void stop() {
    release();
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

 private:
  std::vector<std::atomic<int>> ranks_;
  std::atomic<int> started_{0};
  std::atomic<bool> release_{false};
  std::atomic<bool> stop_{false};
  std::vector<Thread> threads_;
};

std::int64_t median_ns(std::vector<std::int64_t> v) {
  if (v.empty()) return -1;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

RuntimeOptions priority_options(TimerKind timer, std::int64_t interval_us) {
  RuntimeOptions o;
  o.num_workers = 2;
  o.scheduler = SchedulerKind::Priority;
  o.timer = timer;
  o.interval_us = interval_us;
  return o;
}

/// Preemption on arrival against two hogs of one preemption kind: both
/// workers are hogged by low-priority `kind` ULTs, and the 100 ms tick is
/// far too slow to explain a ms-scale start. A high-priority arrival must
/// get a core through its own preemption signal. Victims are ranked by
/// cost (SignalYield first), so each kind gets a run of its own.
void arrivals_preempt_hogs_of(Preempt kind) {
  const char* name = kind == Preempt::SignalYield ? "SignalYield" : "KltSwitch";
  Runtime rt(priority_options(TimerKind::PerWorkerAligned, 100'000));
  Hogs hogs(rt, {kind, kind});
  ASSERT_NE(hogs.rank(0), hogs.rank(1));

  // (1) External spawns; the home pools alternate, so the victims do too.
  std::vector<std::int64_t> spawn_lat;
  for (int i = 0; i < 30; ++i) {
    usleep(1000);  // let the last victim resume its hog
    std::atomic<std::int64_t> started{0};
    const std::int64_t t0 = now_ns();
    Thread t = rt.spawn([&] { started.store(now_ns()); });
    t.join();
    spawn_lat.push_back(started.load() - t0);
  }
  EXPECT_LT(median_ns(spawn_lat), 2'000'000) << name << " victims";

  // (2) Wakeups by an external thread: a CondVar waiter homed on hog 0's
  // worker, a Semaphore waiter on hog 1's. Each round waits until the
  // waiter has blocked (a block is counted once the context is saved, so
  // the wakeup cannot miss it) and its worker is back on the hog, then
  // wakes it.
  constexpr int kRounds = 10;
  std::atomic<std::int64_t> t0{0};
  std::atomic<int> done{0};
  auto drive = [&](std::uint64_t blocks0, const std::function<void()>& wake) {
    for (int i = 0; i < kRounds; ++i) {
      while (rt.metrics_snapshot().blocks < blocks0 + i + 1) usleep(50);
      usleep(1000);
      t0.store(now_ns());
      wake();
      while (done.load() != i + 1) usleep(50);
    }
  };
  ThreadAttrs high;
  high.home_pool = hogs.rank(0);
  Mutex m;
  CondVar cv;
  std::vector<std::int64_t> cv_lat;
  std::uint64_t blocks0 = rt.metrics_snapshot().blocks;
  Thread cv_waiter = rt.spawn(
      [&] {
        for (int i = 0; i < kRounds; ++i) {
          m.lock();
          cv.wait(m);  // spurious-wakeup-free: no predicate needed
          cv_lat.push_back(now_ns() - t0.load());
          m.unlock();
          done.fetch_add(1);
        }
      },
      high);
  drive(blocks0, [&] { cv.notify_one(); });
  cv_waiter.join();
  EXPECT_LT(median_ns(cv_lat), 2'000'000) << name << " CondVar wakeups";

  high.home_pool = hogs.rank(1);
  Semaphore sem(0);
  std::vector<std::int64_t> sem_lat;
  done.store(0);
  blocks0 = rt.metrics_snapshot().blocks;
  Thread sem_waiter = rt.spawn(
      [&] {
        for (int i = 0; i < kRounds; ++i) {
          sem.acquire();
          sem_lat.push_back(now_ns() - t0.load());
          done.fetch_add(1);
        }
      },
      high);
  drive(blocks0, [&] { sem.release(); });
  sem_waiter.join();
  EXPECT_LT(median_ns(sem_lat), 2'000'000) << name << " Semaphore wakeups";

  const metrics::Snapshot s = rt.metrics_snapshot();
  EXPECT_GT(s.preempt_kicks, 0u) << name;
  EXPECT_LE(s.preempt_kicks, s.ticks_sent) << name;  // kicks are ticks too
  if (kind == Preempt::SignalYield)
    EXPECT_GT(s.preempt_signal_yield, 0u);
  else
    EXPECT_GT(s.preempt_klt_switch, 0u);
}

TEST(PriorityLive, ArrivalPreemptsWithoutWaitingForTick) {
  arrivals_preempt_hogs_of(Preempt::SignalYield);
  arrivals_preempt_hogs_of(Preempt::KltSwitch);
}

TEST(PriorityLive, ArrivalPrefersSignalYieldVictim) {
  // A SignalYield preemption switches on the same KLT; a KltSwitch one
  // hands the worker to a spare KLT through a futex. With one hog of each
  // kind, external arrivals go to the cheaper victim whatever their home
  // pool. A stray 100 ms tick may move one or two.
  Runtime rt(priority_options(TimerKind::PerWorkerAligned, 100'000));
  Hogs hogs(rt, {Preempt::SignalYield, Preempt::KltSwitch});
  ASSERT_NE(hogs.rank(0), hogs.rank(1));
  int on_signal_yield = 0;
  for (int i = 0; i < 30; ++i) {
    usleep(1000);  // let the last victim resume its hog
    std::atomic<int> rank{-1};
    rt.spawn([&] { rank.store(this_thread::worker_rank()); }).join();
    if (rank.load() == hogs.rank(0)) ++on_signal_yield;
  }
  EXPECT_GE(on_signal_yield, 28);
  EXPECT_GT(rt.metrics_snapshot().preempt_kicks, 0u);
}

TEST(PriorityLive, FailedSpawnLeavesNoWorkerWaiting) {
  // A spawn signals its victim before it maps the stack. When the mapping
  // fails the spawn returns an empty handle, and its claim on the victim
  // must be dropped: the victim's scheduler loop waits for no thread.
  RuntimeOptions o = priority_options(TimerKind::PerWorkerAligned, 100'000);
  o.num_workers = 1;
  Runtime rt(o);
  std::atomic<std::uint64_t> progress{0};
  std::atomic<bool> stop{false};
  ThreadAttrs low;
  low.priority = 1;
  low.preempt = Preempt::SignalYield;
  Thread hog = rt.spawn(
      [&] {
        while (!stop.load(std::memory_order_acquire))
          progress.fetch_add(1, std::memory_order_relaxed);
      },
      low);
  while (progress.load() == 0) usleep(100);

  rt.stack_pool().shed_all();  // the next spawn must map a fresh stack
  const std::uint64_t kicks0 = rt.metrics_snapshot().preempt_kicks;
  ASSERT_TRUE(sys::configure_faults("mmap:every=1"));
  Thread failed = rt.spawn([] {});
  sys::reset_faults();
  EXPECT_FALSE(failed.joinable());
  EXPECT_EQ(rt.metrics_snapshot().preempt_kicks, kicks0 + 1)
      << "the spawn did not signal before building its thread";
  EXPECT_EQ(rt.worker(0).arrival_expected.load() & Worker::kArrivalCount, 0u)
      << "the failed spawn left its victim waiting";

  const std::uint64_t p0 = progress.load();
  usleep(5000);
  EXPECT_GT(progress.load(), p0) << "the hog stopped after the failed spawn";

  std::vector<std::int64_t> lat;
  for (int i = 0; i < 5; ++i) {
    usleep(1000);
    std::atomic<std::int64_t> started{0};
    const std::int64_t t0 = now_ns();
    rt.spawn([&] { started.store(now_ns()); }).join();
    lat.push_back(started.load() - t0);
  }
  EXPECT_LT(median_ns(lat), 2'000'000);
  stop.store(true, std::memory_order_release);
  hog.join();
}

/// Spawn `n` ULTs of `priority` from this (external) thread; each bumps
/// `done` when it runs.
std::vector<Thread> spawn_arrivals(Runtime& rt, int n, int priority,
                                   std::atomic<int>& done) {
  std::vector<Thread> ts;
  ThreadAttrs a;
  a.priority = priority;
  for (int i = 0; i < n; ++i)
    ts.push_back(rt.spawn([&] { done.fetch_add(1); }, a));
  return ts;
}

std::uint64_t watchdog_flags(const metrics::Snapshot& s) {
  return s.watchdog_runnable_starvation + s.watchdog_worker_stall +
         s.watchdog_quantum_overrun + s.watchdog_fault_storm +
         s.watchdog_syscall_blocked + s.watchdog_deadlock +
         s.watchdog_abandoned_lock;
}

/// A burst of 1000 high-priority spawns while both workers run guarded
/// low-priority hogs: no worker can dispatch until release(), so each gets
/// at most the one arrival signal its burst guard admits. Afterwards every
/// arrival runs and the watchdog stays quiet.
void guarded_burst(TimerKind timer) {
  Runtime rt(priority_options(timer, 10'000));
  Hogs hogs(rt, {Preempt::SignalYield, Preempt::KltSwitch}, /*guarded=*/true);
  const metrics::Snapshot before = rt.metrics_snapshot();
  std::atomic<int> done{0};
  std::vector<Thread> ts = spawn_arrivals(rt, 1000, 0, done);
  usleep(2000);  // let the signals land
  const metrics::Snapshot during = rt.metrics_snapshot();
  std::uint64_t kicks = 0;
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(during.workers[r].dispatches, before.workers[r].dispatches)
        << "worker " << r << " dispatched inside its guard";
    const std::uint64_t k =
        during.workers[r].preempt_kicks - before.workers[r].preempt_kicks;
    EXPECT_LE(k, 1u) << "worker " << r;
    kicks += k;
  }
  EXPECT_GE(kicks, 1u);
  hogs.release();
  // Bounded wait: without the arrival signal and without a timer nothing
  // would ever preempt the hogs, and the test must fail, not hang.
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (done.load() < 1000 && now_ns() < deadline) usleep(1000);
  EXPECT_EQ(done.load(), 1000);
  hogs.stop();
  for (auto& t : ts) t.join();
  EXPECT_EQ(watchdog_flags(rt.metrics_snapshot()), 0u);
}

TEST(PriorityLive, ArrivalKicksOnlyWhenItOutranks) {
  std::atomic<int> done{0};
  {  // Equal priority: a priority-1 arrival outranks no priority-1 hog.
    Runtime rt(priority_options(TimerKind::PerWorkerAligned, 100'000));
    Hogs hogs(rt, {Preempt::SignalYield, Preempt::KltSwitch});
    std::vector<Thread> ts = spawn_arrivals(rt, 20, 1, done);
    usleep(2000);
    EXPECT_EQ(rt.metrics_snapshot().preempt_kicks, 0u) << "equal priority";
    hogs.stop();
    for (auto& t : ts) t.join();
  }
  {  // Preempt::None holders cannot be preempted, so they are not signalled.
    Runtime rt(priority_options(TimerKind::PerWorkerAligned, 100'000));
    Hogs hogs(rt, {Preempt::None, Preempt::None});
    std::vector<Thread> ts = spawn_arrivals(rt, 20, 0, done);
    usleep(2000);
    EXPECT_EQ(rt.metrics_snapshot().preempt_kicks, 0u) << "Preempt::None";
    hogs.stop();
    for (auto& t : ts) t.join();
  }
  {  // An idle worker takes the arrival without a signal.
    Runtime rt(priority_options(TimerKind::PerWorkerAligned, 100'000));
    Hogs hogs(rt, {Preempt::SignalYield});
    for (int i = 0; i < 20; ++i) rt.spawn([&] { done.fetch_add(1); }).join();
    EXPECT_EQ(rt.metrics_snapshot().preempt_kicks, 0u) << "idle worker";
  }
  {  // Work stealing keeps the default hook: arrivals wait for a tick.
    RuntimeOptions o = priority_options(TimerKind::PerWorkerAligned, 1000);
    o.scheduler = SchedulerKind::WorkStealing;
    Runtime rt(o);
    Hogs hogs(rt, {Preempt::SignalYield, Preempt::KltSwitch});
    std::vector<Thread> ts = spawn_arrivals(rt, 20, 0, done);
    for (auto& t : ts) t.join();
    EXPECT_EQ(rt.metrics_snapshot().preempt_kicks, 0u) << "work stealing";
  }
  guarded_burst(TimerKind::PerWorkerAligned);
  guarded_burst(TimerKind::None);
}

TEST(Detached, ManyDetachedThreadsDrainBeforeShutdown) {
  std::atomic<int> done{0};
  {
    RuntimeOptions o;
    o.num_workers = 2;
    Runtime rt(o);
    for (int i = 0; i < 100; ++i) rt.spawn_detached([&] { done.fetch_add(1); });
    while (done.load() < 100) usleep(1000);
  }
  EXPECT_EQ(done.load(), 100);
}

}  // namespace
}  // namespace lpt
