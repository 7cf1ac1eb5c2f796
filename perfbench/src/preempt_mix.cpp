// preempt_mix: open loop, 3 workers plus 1 generator thread, the Priority
// scheduler and the aligned per-worker timer at 1 ms. Two malloc-free
// compute hogs per worker run the whole window at low priority, half under
// SignalYield and half under KltSwitch. The generator (this process's main
// thread) spawns short high-priority nonpreemptive requests at seeded
// Poisson arrival times, about 1000/s; a periodic 1 kHz stream would
// phase-lock with the 1 ms tick. A request gets a core only when a hog is
// preempted, so its latency, timed from its due time, measures preemption.
// Check: every request completed with its expected result.
#include <sys/prctl.h>

#include <cerrno>
#include <ctime>

#include "bench.hpp"

namespace lptbench {
namespace {

constexpr int kWorkers = 3;
constexpr int kHogsPerWorker = 2;
constexpr double kArrivalsPerSecond = 1000.0;
constexpr std::uint32_t kHogUnitIters = 4096;  // one unit of hog work
constexpr std::uint32_t kRequestIters = 2048;  // a request's work
constexpr int kWarmupRequests = 50;
constexpr std::uint64_t kRequestStream = 5;

struct Request {
  std::uint64_t key = 0;
  std::int64_t due_ns = 0;
  std::int64_t done_ns = 0;
  std::uint64_t result = 0;
};

void hog(const std::atomic<bool>& stop, PaddedCount& units, std::uint64_t x) {
  while (!stop.load(std::memory_order_relaxed)) {
    x = chain(x, kHogUnitIters);
    units.inc();
  }
}

lpt::RuntimeOptions mix_options(const Args& a, lpt::TimerKind timer) {
  lpt::RuntimeOptions o = base_options(a, kWorkers);
  o.scheduler = lpt::SchedulerKind::Priority;
  o.timer = timer;
  o.interval_us = 1000;
  return o;
}

/// The workload's hogs, two per worker of `rt`; stopped and joined on
/// destruction.
class Hogs {
 public:
  Hogs(lpt::Runtime& rt, const Args& a) : units_(rt.num_workers() * kHogsPerWorker) {
    for (std::size_t i = 0; i < units_.size(); ++i) {
      lpt::ThreadAttrs attrs;
      attrs.preempt = i % 2 == 0 ? lpt::Preempt::SignalYield : lpt::Preempt::KltSwitch;
      attrs.priority = 1;
      PaddedCount* u = &units_[i];
      const std::uint64_t x = input(a.seed, 4, i);
      threads_.push_back(rt.spawn([this, u, x] { hog(stop_, *u, x); }, attrs));
    }
  }
  ~Hogs() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  Hogs(const Hogs&) = delete;
  Hogs& operator=(const Hogs&) = delete;
  std::uint64_t units() const {
    std::uint64_t n = 0;
    for (const auto& u : units_) n += u.get();
    return n;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<PaddedCount> units_;
  std::vector<lpt::Thread> threads_;
};

void sleep_until(std::int64_t t_ns) {
  const timespec ts{static_cast<time_t>(t_ns / 1'000'000'000),
                    static_cast<long>(t_ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

}  // namespace

double hog_units_per_s_without_timer(const Args& a, double seconds) {
  lpt::Runtime rt(mix_options(a, lpt::TimerKind::None));
  Hogs hogs(rt, a);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::int64_t t0 = lpt::now_ns();
  const std::uint64_t u0 = hogs.units();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const std::uint64_t u1 = hogs.units();
  return static_cast<double>(u1 - u0) / ((lpt::now_ns() - t0) / 1e9);
}

int run_preempt_mix(const Args& a) {
  // The generator sleeps to each due time; default 50 us timer slack would
  // make it late by that much on every arrival.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  lpt::Runtime rt(mix_options(a, lpt::TimerKind::PerWorkerAligned));
  const std::int64_t window_ns = static_cast<std::int64_t>(a.window_s * 1e9);

  // The whole schedule comes from the seed: warmup arrivals, then every
  // arrival inside the window.
  std::vector<Request> reqs;
  Arrivals arrivals(a.seed, kArrivalsPerSecond);
  std::int64_t window_off = 0;
  for (;;) {
    const std::int64_t off = arrivals.next();
    if (reqs.size() == kWarmupRequests) window_off = off;
    if (reqs.size() >= kWarmupRequests && off - window_off >= window_ns) break;
    Request q;
    q.key = input(a.seed, kRequestStream, reqs.size());
    q.due_ns = off;
    reqs.push_back(q);
  }
  std::atomic<std::uint64_t> completed{0};
  std::vector<lpt::Thread> handles;
  handles.reserve(reqs.size());

  Hogs hogs(rt, a);
  lpt::ThreadAttrs req_attrs;  // nonpreemptive, high priority (class 0)
  const std::int64_t base = lpt::now_ns() + 2'000'000;
  for (auto& q : reqs) q.due_ns += base;
  const std::int64_t t0 = base + window_off;
  const std::int64_t t_end = t0 + window_ns;

  Result r;
  RuntimeWindow win(rt);
  std::uint64_t hog0 = 0;
  std::vector<float> late_us;
  Progress progress;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Request* q = &reqs[i];
    if (i == kWarmupRequests) {
      win.begin();
      sleep_until(q->due_ns);
      hog0 = hogs.units();
      emit_first_op(lpt::now_ns());
    } else {
      sleep_until(q->due_ns);
    }
    const std::int64_t start = lpt::now_ns();
    if (i >= kWarmupRequests) late_us.push_back(static_cast<float>((start - q->due_ns) / 1e3));
    lpt::Thread h;
    {
      spans::Scope span(spans::kSpawnExternal, 0, a.trace);
      h = rt.spawn(
          [q, &completed, parent = span.id(), traced = a.trace] {
            spans::Scope body(spans::kRequest, parent, traced);
            q->result = chain(q->key, kRequestIters);
            q->done_ns = lpt::now_ns();
            completed.fetch_add(1, std::memory_order_release);
          },
          req_attrs);
    }
    handles.push_back(std::move(h));
    progress.tick(i + 1, completed.load(std::memory_order_relaxed));
  }
  sleep_until(t_end);
  const std::uint64_t hog1 = hogs.units();
  const std::int64_t t1 = lpt::now_ns();
  win.end(r);
  for (auto& h : handles) h.join();

  std::uint64_t failures = 0;
  std::vector<float> latency_us;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& q = reqs[i];
    if (q.done_ns == 0 || q.result != chain(q.key, kRequestIters)) ++failures;
    if (i >= kWarmupRequests)
      latency_us.push_back(static_cast<float>((q.done_ns - q.due_ns) / 1e3));
  }
  progress.tick(reqs.size(), completed.load(), true);

  r.set("attempted", static_cast<double>(reqs.size()));
  r.set("completed", static_cast<double>(completed.load()));
  r.set("check_failures", static_cast<double>(failures));
  r.set("work", static_cast<double>(hog1 - hog0));
  r.set("elapsed_s", (t1 - t0) / 1e9);
  r.set("hogs", static_cast<double>(rt.num_workers() * kHogsPerWorker));
  write_samples(a, "latency_us", latency_us);
  write_samples(a, "late_us", late_us);
  r.print();
  return 0;
}

}  // namespace lptbench
