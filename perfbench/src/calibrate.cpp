// calibrate: the layer floors the traced run divides by. Each is a batch of
// calls inside one span, so clock reads do not dominate calls of tens of ns:
//   context_switch  raw lpt_ctx_switch round trips (two switches each)
//   yield.empty     this_thread::yield with nothing else runnable
//   yield.pingpong  this_thread::yield between two ULTs on one worker
//   dgemm           apps::dgemm_nt_minus on one 128 x 128 x 128 tile
//   empty           an empty span: the cost of one span
// plus preempt_mix's hogs on a runtime without a timer and the
// apps/cholesky layer probe (cholesky.cpp).
#include "apps/linalg/blas.hpp"
#include "bench.hpp"
#include "context/context.hpp"
#include "context/stack.hpp"

namespace lptbench {
namespace {

constexpr int kBatches = 7;
constexpr int kSwitchTrips = 200'000;
constexpr int kYields = 100'000;
constexpr int kDgemmN = 128;
constexpr int kDgemmCalls = 40;
constexpr int kEmptySpans = 20'000;

struct PingPong {
  lpt::Context main_ctx;
  lpt::Context ult_ctx;
};

void pingpong_entry(void* arg) {
  auto* pp = static_cast<PingPong*>(arg);
  for (;;) lpt::context_switch(pp->ult_ctx, pp->main_ctx);
}

}  // namespace

int run_calibrate(const Args& a) {
  Result r;
  {
    lpt::Stack stack(64 * 1024);
    PingPong pp;
    pp.ult_ctx = lpt::make_context(stack.base(), stack.size(), pingpong_entry, &pp);
    for (int b = 0; b < kBatches; ++b) {
      spans::Scope span(spans::kContextSwitch, 0);
      for (int i = 0; i < kSwitchTrips; ++i) lpt::context_switch(pp.main_ctx, pp.ult_ctx);
    }
    r.set("calls.context_switch", 2.0 * kSwitchTrips);
  }
  {
    lpt::Runtime rt(base_options(a, 1));
    rt.spawn([&rt] {
        for (int b = 0; b < kBatches; ++b) {
          spans::Scope span(spans::kYieldEmpty, 0);
          for (int i = 0; i < kYields; ++i) lpt::this_thread::yield();
        }
        std::atomic<bool> stop{false};
        lpt::Thread peer = rt.spawn([&stop] {
          while (!stop.load(std::memory_order_relaxed)) lpt::this_thread::yield();
        });
        for (int b = 0; b < kBatches; ++b) {
          spans::Scope span(spans::kYieldPingPong, 0);
          for (int i = 0; i < kYields; ++i) lpt::this_thread::yield();
        }
        stop.store(true);
        peer.join();
      }).join();
    r.set("calls.yield.empty", kYields);
    r.set("calls.yield.pingpong", kYields);
  }
  {
    const std::size_t tile = static_cast<std::size_t>(kDgemmN) * kDgemmN;
    std::vector<double> m(3 * tile);
    for (std::size_t i = 0; i < m.size(); ++i)
      m[i] = static_cast<double>(input(a.seed, 7, i) >> 11) * 0x1.0p-53;
    for (int b = 0; b < kBatches; ++b) {
      spans::Scope span(spans::kDgemm, 0);
      for (int i = 0; i < kDgemmCalls; ++i)
        lpt::apps::dgemm_nt_minus(kDgemmN, kDgemmN, kDgemmN, m.data(), kDgemmN,
                                  m.data() + tile, kDgemmN, m.data() + 2 * tile,
                                  kDgemmN);
    }
    r.set("flops.dgemm", 2.0 * kDgemmN * kDgemmN * kDgemmN * kDgemmCalls);
  }
  for (int i = 0; i < kEmptySpans; ++i) spans::Scope span(spans::kEmpty, 0);
  r.set("hog_units_per_s_no_timer", hog_units_per_s_without_timer(a, 1.0));
  r.set("check_failures", 0);
  cholesky_layer_probe(a, r);
  r.set("attempted", 1);
  r.set("completed", 1);
  r.print();
  return 0;
}

}  // namespace lptbench
