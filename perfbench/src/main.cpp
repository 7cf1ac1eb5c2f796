// lptbench: one measurement process of the repository benchmark.
//
//   lptbench <fork_join|lock_queue|preempt_mix|cholesky> --seed N
//            --window S [--trace] [--out PREFIX] [--workers N]
//            [--task-preempt klt|signal]
//   lptbench calibrate --seed N [--out PREFIX]
//   lptbench arrivals --seed N --count K      (prints the Poisson schedule)
//
// perfbench/run.py starts one of these per repeat, enforces its deadline,
// and turns the line protocol of bench.hpp into the benchmark's metrics.
#include "bench.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace lptbench {

// ----- seeded inputs ------------------------------------------------------

std::int64_t Arrivals::next() {
  constexpr std::uint64_t kArrivalStream = 0xa77;
  const double u = static_cast<double>(input(seed_, kArrivalStream, n_++) >> 11) *
                   0x1.0p-53;  // [0, 1)
  t_ += -std::log1p(-u) * mean_gap_ns_;
  return std::llround(t_);
}

// ----- output -------------------------------------------------------------

void Result::print() const {
  std::string s = "result {";
  bool first = true;
  char buf[64];
  for (const auto& [k, v] : nums_) {
    if (!first) s += ", ";
    first = false;
    s += '"';
    s += k;
    s += "\": ";
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    s += buf;
  }
  s += "}\n";
  std::fputs(s.c_str(), stdout);
  std::fflush(stdout);
}

void emit_first_op(std::int64_t t_ns) {
  std::printf("first_op %" PRId64 "\n", t_ns);
  std::fflush(stdout);
}

void Progress::tick(std::uint64_t attempted, std::uint64_t completed,
                    bool force) {
  const std::int64_t now = lpt::now_ns();
  if (!force && now - last_ns_ < 100'000'000) return;
  last_ns_ = now;
  std::printf("progress %" PRIu64 " %" PRIu64 "\n", attempted, completed);
  std::fflush(stdout);
}

void write_samples(const Args& a, const std::string& name,
                   const std::vector<float>& v) {
  if (a.out.empty()) return;
  const std::string path = a.out + "." + name + ".f32";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(2);
  }
  if (!v.empty()) std::fwrite(v.data(), sizeof(float), v.size(), f);
  std::fclose(f);
}

lpt::RuntimeOptions base_options(const Args& a, int workers) {
  lpt::RuntimeOptions o;
  o.num_workers = a.workers > 0 ? a.workers : workers;
  o.trace.enabled = a.trace;
  // Every flag episode becomes a `watchdog` line, so a process killed at its
  // deadline still reports what the watchdog saw; stderr keeps the details.
  o.watchdog_callback = [](const lpt::WatchdogReport& r) {
    const char* kind = lpt::watchdog_kind_name(r.kind);
    std::printf("watchdog %s\n", kind);
    std::fflush(stdout);
    std::fprintf(stderr,
                 "[lpt watchdog] %s: worker %d for %" PRId64
                 " ms (queue depth %" PRId64 ", %" PRIu64 " unanswered ticks)\n",
                 kind, r.worker, r.age_ns / 1'000'000, r.queue_depth,
                 r.ticks_without_handler);
  };
  return o;
}

namespace {

lpt::trace::HistSnapshot hist_delta(const lpt::trace::HistSnapshot& a,
                                    const lpt::trace::HistSnapshot& b) {
  lpt::trace::HistSnapshot d;
  for (int i = 0; i < lpt::trace::HistSnapshot::kBuckets; ++i)
    d.buckets[i] = b.buckets[i] - a.buckets[i];
  d.sum_ns = b.sum_ns - a.sum_ns;
  return d;
}

}  // namespace

void RuntimeWindow::begin() {
  m0_ = rt_.metrics_snapshot();
  s0_ = rt_.stats();
}

void RuntimeWindow::end(Result& r) const {
  const lpt::metrics::Snapshot m1 = rt_.metrics_snapshot();
  const lpt::Runtime::Stats s1 = rt_.stats();
  auto d = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    r.set(std::string("rt.") + name, static_cast<double>(b - a));
  };
#define LPTB_DELTA(field) d(#field, m0_.field, m1.field)
  LPTB_DELTA(dispatches);
  LPTB_DELTA(yields);
  LPTB_DELTA(blocks);
  LPTB_DELTA(exits);
  LPTB_DELTA(steals);
  LPTB_DELTA(preempt_signal_yield);
  LPTB_DELTA(preempt_klt_switch);
  LPTB_DELTA(ticks_sent);
  LPTB_DELTA(handler_entries);
  LPTB_DELTA(handler_deferred);
  LPTB_DELTA(klt_degraded_ticks);
  LPTB_DELTA(ults_spawned);
  LPTB_DELTA(stacks_shed);
  LPTB_DELTA(klts_created);
  LPTB_DELTA(klts_on_demand);
  LPTB_DELTA(ult_faults);
  LPTB_DELTA(trace_dropped);
#undef LPTB_DELTA
  for (int s = 0; s < lpt::metrics::kWorkerStateCount; ++s) {
    std::uint64_t a = 0, b = 0;
    for (const auto& w : m0_.workers) a += w.time_in_state_ns[s];
    for (const auto& w : m1.workers) b += w.time_in_state_ns[s];
    d((std::string("time_ns.") +
       lpt::metrics::worker_state_name(static_cast<lpt::metrics::WorkerState>(s)))
          .c_str(),
      a, b);
  }
  auto h = [&](const char* name, const lpt::trace::HistSnapshot& a,
               const lpt::trace::HistSnapshot& b) {
    const lpt::trace::HistSnapshot x = hist_delta(a, b);
    const std::string p = std::string("rt.") + name;
    r.set(p + ".count", static_cast<double>(x.count()));
    r.set(p + ".p50", x.percentile_ns(50));
    r.set(p + ".p99", x.percentile_ns(99));
  };
  h("sched_delay_ns", s0_.sched_delay_ns, s1.sched_delay_ns);
  h("spawn_latency_ns", s0_.spawn_latency_ns, s1.spawn_latency_ns);
  h("klt_switch_trip_ns", s0_.klt_switch_trip_ns, s1.klt_switch_trip_ns);
}

// ----- spans --------------------------------------------------------------

namespace spans {
namespace {

struct Record {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t parent;
  std::uint16_t name;
  std::uint16_t pad;
};
static_assert(sizeof(Record) == 24);

struct FreeDeleter {
  void operator()(Record* p) const { std::free(p); }
};

std::unique_ptr<Record[], FreeDeleter> g_records;
std::size_t g_capacity = 0;
std::atomic<std::uint64_t> g_next{0};
std::atomic<std::uint64_t> g_dropped{0};

const char* const kNames[kNameCount] = {
    "tree",          "node",         "spawn",          "join",
    "spawn.external", "join.external", "produce",       "consume",
    "mutex.lock",    "mutex.private_lock", "condvar.wait", "rwlock.lock_shared",
    "request",       "tiled_cholesky", "yield.empty",   "yield.pingpong",
    "context_switch", "dgemm",        "empty",
};

}  // namespace

void enable(std::size_t capacity) {
  // calloc: untouched pages stay unmapped, so the reserve costs no RSS.
  g_records.reset(static_cast<Record*>(std::calloc(capacity, sizeof(Record))));
  if (!g_records) {
    std::fprintf(stderr, "span buffer allocation failed\n");
    std::exit(2);
  }
  g_capacity = capacity;
}

bool enabled() { return g_capacity != 0; }

std::uint32_t reserve() {
  const std::uint64_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= g_capacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return static_cast<std::uint32_t>(i + 1);
}

void finish(std::uint32_t id, Name name, std::uint32_t parent,
            std::int64_t start_ns, std::int64_t end_ns) {
  g_records[id - 1] = Record{start_ns, end_ns, parent, name, 0};
}

void write(const std::string& path) {
  if (!enabled() || path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(2);
  }
  const std::uint64_t n =
      std::min<std::uint64_t>(g_next.load(), g_capacity);
  const std::uint64_t dropped = g_dropped.load();
  std::fwrite("LPTSPAN1", 1, 8, f);
  std::fwrite(&n, sizeof n, 1, f);
  std::fwrite(&dropped, sizeof dropped, 1, f);
  const std::uint32_t names = kNameCount;
  std::fwrite(&names, sizeof names, 1, f);
  for (const char* s : kNames) {
    const std::uint16_t len = static_cast<std::uint16_t>(std::strlen(s));
    std::fwrite(&len, sizeof len, 1, f);
    std::fwrite(s, 1, len, f);
  }
  std::fwrite(g_records.get(), sizeof(Record), n, f);
  std::fclose(f);
}

}  // namespace spans

}  // namespace lptbench

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: lptbench <fork_join|lock_queue|preempt_mix|cholesky|"
               "calibrate|arrivals> [--seed N] [--window S] [--trace] "
               "[--out PREFIX] [--workers N] [--task-preempt klt|signal] "
               "[--count K]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lptbench;
  if (argc < 2) usage();
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (k == "--seed")
      a.seed = std::strtoull(val(), nullptr, 10);
    else if (k == "--window")
      a.window_s = std::strtod(val(), nullptr);
    else if (k == "--trace")
      a.trace = true;
    else if (k == "--out")
      a.out = val();
    else if (k == "--workers")
      a.workers = std::atoi(val());
    else if (k == "--task-preempt")
      a.task_preempt = val();
    else if (k == "--count")
      a.count = std::atoll(val());
    else
      usage();
  }
  if (!(a.window_s > 0) || a.workers < 0 || a.count < 0 ||
      (a.task_preempt != "klt" && a.task_preempt != "signal"))
    usage();

  if (a.mode == "arrivals") {
    Arrivals arr(a.seed, 1000.0);
    for (std::int64_t i = 0; i < a.count; ++i)
      std::printf("%" PRId64 "\n", arr.next());
    return 0;
  }
  // Spans: 24 bytes each; 2M covers every traced window run.py asks for
  // (high-rate spans are thinned at their call sites).
  if (a.trace || a.mode == "calibrate") spans::enable(std::size_t{1} << 21);

  int rc = 2;
  if (a.mode == "fork_join")
    rc = run_fork_join(a);
  else if (a.mode == "lock_queue")
    rc = run_lock_queue(a);
  else if (a.mode == "preempt_mix")
    rc = run_preempt_mix(a);
  else if (a.mode == "cholesky")
    rc = run_cholesky(a);
  else if (a.mode == "calibrate")
    rc = run_calibrate(a);
  else
    usage();
  if (rc == 0 && !a.out.empty()) spans::write(a.out + ".spans");
  return rc;
}
