// Shared pieces of lptbench, the benchmark program: arguments, the line
// protocol spoken to perfbench/run.py, seeded input generation, the
// benchmark's own spans, and runtime-counter deltas taken around a
// measurement window.
//
// Line protocol (stdout, one flushed line each):
//   first_op <CLOCK_MONOTONIC ns>      the window's first timed operation
//   progress <attempted> <completed>   about every 100 ms while measuring
//   watchdog <kind>                    each watchdog flag episode
//   result <flat JSON object>          once, after every check has run
// Raw samples (float32 arrays) and spans go to files named <out>.<name>.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "runtime/lpt.hpp"

namespace lptbench {

struct Args {
  std::string mode;             ///< workload name, "calibrate" or "arrivals"
  std::uint64_t seed = 1;
  double window_s = 2.0;        ///< measured window of this process
  bool trace = false;           ///< runtime tracer + benchmark spans on
  std::string out;              ///< path prefix for sample and span files
  int workers = 0;              ///< 0 = the workload's own worker count
  std::string task_preempt = "klt";  ///< cholesky tile tasks: klt | signal
  std::int64_t count = 1000;    ///< arrivals: how many to print
};

int run_fork_join(const Args& a);
int run_lock_queue(const Args& a);
int run_preempt_mix(const Args& a);
int run_cholesky(const Args& a);
int run_calibrate(const Args& a);

/// preempt_mix's hogs alone on a runtime without a preemption timer: hog
/// work units per second, the base of preempt.overhead_pct.
double hog_units_per_s_without_timer(const Args& a, double seconds);

// ----- seeded inputs ------------------------------------------------------

/// splitmix64 finalizer: a bijective 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Input value number `i` of stream `stream` under `seed`.
inline std::uint64_t input(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t i) {
  return mix64(seed ^ mix64(stream * 0x100000001b3ull ^ mix64(i)));
}

/// Dependent multiply-add chain: pure ALU work with no memory traffic, no
/// calls and no allocation (safe under signal-yield preemption).
inline std::uint64_t chain(std::uint64_t x, std::uint32_t iters) {
  for (std::uint32_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return x;
}

/// Seeded Poisson arrival process: exponential gaps with mean 1/rate.
class Arrivals {
 public:
  Arrivals(std::uint64_t seed, double rate_per_s)
      : seed_(seed), mean_gap_ns_(1e9 / rate_per_s) {}
  /// Offset of the next arrival from the start of the schedule, ns.
  std::int64_t next();

 private:
  std::uint64_t seed_;
  double mean_gap_ns_;
  std::uint64_t n_ = 0;
  double t_ = 0;
};

// ----- output -------------------------------------------------------------

/// Flat result record printed as the `result` line.
class Result {
 public:
  void set(const std::string& key, double v) { nums_[key] = v; }
  void add(const std::string& key, double v) { nums_[key] += v; }
  void print() const;

 private:
  std::map<std::string, double> nums_;
};

/// The apps/cholesky layer on its own: cholesky's matrix factored with the
/// paper's nonpreemptive tasks and spin-yield teams, which cannot hang.
/// Sets cholesky_probe.{flops_per_s,residual,workers} in `r`.
void cholesky_layer_probe(const Args& a, Result& r);

void emit_first_op(std::int64_t t_ns);

/// Rate-limited `progress` lines from the measuring thread.
class Progress {
 public:
  void tick(std::uint64_t attempted, std::uint64_t completed, bool force = false);

 private:
  std::int64_t last_ns_ = 0;
};

/// Write `v` as raw little-endian float32 to <out>.<name>.f32.
void write_samples(const Args& a, const std::string& name,
                   const std::vector<float>& v);

/// Runtime options every workload starts from: defaults with the tracer
/// switched by --trace and watchdog flags reported as `watchdog` lines.
lpt::RuntimeOptions base_options(const Args& a, int workers);

/// Counter and histogram deltas of `rt` between begin() and end(), written
/// into the result under "rt.<name>".
class RuntimeWindow {
 public:
  explicit RuntimeWindow(lpt::Runtime& rt) : rt_(rt) {}
  void begin();
  void end(Result& r) const;

 private:
  lpt::Runtime& rt_;
  lpt::metrics::Snapshot m0_;
  lpt::Runtime::Stats s0_;
};

// ----- spans --------------------------------------------------------------
//
// The benchmark's own spans around its calls into the runtime's public
// functions. Completed spans are stored in one preallocated array (slot =
// id - 1, reserved with one fetch_add at span begin, so a parent's id is
// known to its children) and written to <out>.spans at exit; run.py derives
// durations and self time from them. Off (no clock reads) unless --trace.
namespace spans {

enum Name : std::uint16_t {
  kTree,            ///< fork_join: external caller, root spawn -> join
  kNode,            ///< fork_join: one tree node's ULT body
  kSpawn,           ///< Runtime::spawn from a ULT
  kJoin,            ///< Thread::join from a ULT
  kSpawnExternal,   ///< Runtime::spawn from a non-ULT thread
  kJoinExternal,    ///< Thread::join from a non-ULT thread
  kProduce,         ///< lock_queue: one message sent
  kConsume,         ///< lock_queue: one message received
  kMutexLock,       ///< Mutex::lock on the shared queue lock
  kMutexPrivate,    ///< Mutex::lock on a ULT's private lock
  kCondWait,        ///< CondVar::wait
  kRwShared,        ///< RwLock::lock_shared
  kRequest,         ///< preempt_mix: request ULT body
  kTiledCholesky,   ///< apps::tiled_cholesky
  kYieldEmpty,      ///< batch of this_thread::yield, empty queue
  kYieldPingPong,   ///< batch of this_thread::yield, two ULTs
  kContextSwitch,   ///< batch of raw context_switch round trips
  kDgemm,           ///< batch of apps::dgemm_nt_minus tile calls
  kEmpty,           ///< nothing: the cost of a span itself
  kNameCount,
};

void enable(std::size_t capacity);
bool enabled();
/// Reserve a span id (0 = off or buffer full; a full buffer counts a drop).
std::uint32_t reserve();
void finish(std::uint32_t id, Name name, std::uint32_t parent,
            std::int64_t start_ns, std::int64_t end_ns);
/// Write every finished span to `path` (binary; see spans.py).
void write(const std::string& path);

/// RAII span; `sample` = false skips it (thinned high-rate spans).
class Scope {
 public:
  Scope(Name name, std::uint32_t parent, bool sample = true)
      : name_(name), parent_(parent) {
    if (sample && enabled()) {
      id_ = reserve();
      if (id_ != 0) start_ = lpt::now_ns();
    }
  }
  ~Scope() {
    if (id_ != 0) finish(id_, name_, parent_, start_, lpt::now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Name name_;
  std::uint32_t parent_;
  std::uint32_t id_ = 0;
  std::int64_t start_ = 0;
};

}  // namespace spans

/// Cache-line-padded relaxed counter with one writer.
struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> v{0};
  void inc() { v.store(v.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed); }
  std::uint64_t get() const { return v.load(std::memory_order_relaxed); }
};

}  // namespace lptbench
