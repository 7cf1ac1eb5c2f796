// lock_queue: closed loop, 4 workers, no timer. 8 producer and 8 consumer
// ULTs pass seeded messages through a bounded Mutex + CondVar queue; per
// message each ULT also takes its own uncontended Mutex and a shared RwLock
// read section, so the contended and the uncontended lock paths both run.
// Latency is one send, from the private section to the queue unlock. Check:
// messages received == sent and the payload checksum.
#include <thread>

#include "bench.hpp"

namespace lptbench {
namespace {

constexpr int kProducers = 8;
constexpr int kConsumers = 8;
constexpr int kCapacity = 64;
constexpr std::uint64_t kWarmupMsgs = 4096;
// Traced runs record the spans of every 8th message per ULT, so a window's
// spans fit the span buffer.
constexpr std::uint64_t kSpanEvery = 8;
constexpr std::uint64_t kPayloadStream = 100;

struct Shared {
  bool traced = false;
  std::uint64_t seed = 0;
  lpt::Mutex m;  // guards ring/head/size/done
  lpt::CondVar not_full, not_empty;
  std::uint64_t ring[kCapacity] = {};  // payloads
  int head = 0, size = 0;
  bool done = false;
  lpt::RwLock rw;  // read-shared by every message
  std::uint64_t config = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> producers_left{kProducers};
  std::atomic<std::int64_t> window_begin{INT64_MAX}, window_end{INT64_MAX};
};

struct alignas(64) Side {
  lpt::Mutex own;  // private, never contended
  std::uint64_t acc = 0;
  std::uint64_t sum = 0;
  PaddedCount count;
  std::vector<float> latency_us;  // producers: sends begun in the window
};

/// The per-message private-lock and shared-read sections of both sides.
void private_and_shared(Shared& s, Side& me, std::uint64_t v,
                        std::uint32_t op, bool traced) {
  {
    spans::Scope span(spans::kMutexPrivate, op, traced);
    me.own.lock();
  }
  me.acc += v;
  me.own.unlock();
  {
    spans::Scope span(spans::kRwShared, op, traced);
    s.rw.lock_shared();
  }
  me.acc ^= s.config;
  s.rw.unlock_shared();
}

void producer(Shared& s, Side& me, int p) {
  for (std::uint64_t i = 0; !s.stop.load(std::memory_order_relaxed); ++i) {
    const bool traced = s.traced && i % kSpanEvery == 0;
    spans::Scope op(spans::kProduce, 0, traced);
    const std::int64_t start = lpt::now_ns();
    const std::uint64_t payload = input(s.seed, kPayloadStream + p, i);
    private_and_shared(s, me, payload, op.id(), traced);
    {
      spans::Scope span(spans::kMutexLock, op.id(), traced);
      s.m.lock();
    }
    while (s.size == kCapacity) {
      spans::Scope span(spans::kCondWait, op.id(), traced);
      s.not_full.wait(s.m);
    }
    s.ring[(s.head + s.size) % kCapacity] = payload;
    ++s.size;
    s.not_empty.notify_one();
    s.m.unlock();
    if (start >= s.window_begin.load(std::memory_order_relaxed) &&
        start < s.window_end.load(std::memory_order_relaxed))
      me.latency_us.push_back(static_cast<float>((lpt::now_ns() - start) / 1e3));
    me.sum += payload;
    me.count.inc();
  }
  if (s.producers_left.fetch_sub(1) == 1) {
    s.m.lock();
    s.done = true;
    s.not_empty.notify_all();
    s.m.unlock();
  }
}

void consumer(Shared& s, Side& me) {
  for (std::uint64_t j = 0;; ++j) {
    const bool traced = s.traced && j % kSpanEvery == 0;
    spans::Scope op(spans::kConsume, 0, traced);
    private_and_shared(s, me, j, op.id(), traced);
    {
      spans::Scope span(spans::kMutexLock, op.id(), traced);
      s.m.lock();
    }
    while (s.size == 0 && !s.done) {
      spans::Scope span(spans::kCondWait, op.id(), traced);
      s.not_empty.wait(s.m);
    }
    if (s.size == 0) {
      s.m.unlock();
      return;
    }
    const std::uint64_t payload = s.ring[s.head];
    s.head = (s.head + 1) % kCapacity;
    --s.size;
    s.not_full.notify_one();
    s.m.unlock();
    me.sum += payload;
    me.count.inc();
  }
}

}  // namespace

int run_lock_queue(const Args& a) {
  lpt::Runtime rt(base_options(a, 4));
  Shared s;
  s.traced = a.trace;
  s.seed = a.seed;
  s.config = input(a.seed, 3, 0);
  std::vector<std::unique_ptr<Side>> prod, cons;
  std::vector<lpt::Thread> threads;
  for (int i = 0; i < kProducers; ++i) prod.push_back(std::make_unique<Side>());
  for (int i = 0; i < kConsumers; ++i) cons.push_back(std::make_unique<Side>());
  for (int i = 0; i < kConsumers; ++i) {
    Side* c = cons[i].get();
    threads.push_back(rt.spawn([&s, c] { consumer(s, *c); }));
  }
  for (int i = 0; i < kProducers; ++i) {
    Side* p = prod[i].get();
    threads.push_back(rt.spawn([&s, p, i] { producer(s, *p, i); }));
  }
  auto total = [](const std::vector<std::unique_ptr<Side>>& v) {
    std::uint64_t n = 0;
    for (const auto& x : v) n += x->count.get();
    return n;
  };
  while (total(cons) < kWarmupMsgs)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  Result r;
  RuntimeWindow win(rt);
  win.begin();
  const std::int64_t window_ns = static_cast<std::int64_t>(a.window_s * 1e9);
  const std::int64_t t0 = lpt::now_ns();
  s.window_begin.store(t0);
  emit_first_op(t0);
  const std::uint64_t c0 = total(cons);
  Progress progress;
  std::int64_t now = t0;
  while (now - t0 < window_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    progress.tick(total(prod), total(cons));
    now = lpt::now_ns();
  }
  const std::uint64_t c1 = total(cons);
  s.window_end.store(now);
  win.end(r);
  s.stop.store(true);
  for (auto& t : threads) t.join();

  // Checks: every message sent was received, and the payloads received sum
  // to the payloads the seed defines for the counts each producer sent.
  std::uint64_t sent = 0, expected = 0, received_sum = 0;
  std::vector<float> latency_us;
  for (int p = 0; p < kProducers; ++p) {
    const std::uint64_t n = prod[p]->count.get();
    sent += n;
    for (std::uint64_t i = 0; i < n; ++i)
      expected += input(a.seed, kPayloadStream + p, i);
    latency_us.insert(latency_us.end(), prod[p]->latency_us.begin(),
                      prod[p]->latency_us.end());
  }
  for (const auto& c : cons) received_sum += c->sum;
  const std::uint64_t received = total(cons);
  progress.tick(sent, received, true);

  r.set("attempted", static_cast<double>(sent));
  r.set("completed", static_cast<double>(received));
  r.set("check_failures",
        (received != sent ? 1.0 : 0.0) + (received_sum != expected ? 1.0 : 0.0));
  r.set("work", static_cast<double>(c1 - c0));
  r.set("elapsed_s", (now - t0) / 1e9);
  write_samples(a, "latency_us", latency_us);
  r.print();
  return 0;
}

}  // namespace lptbench
