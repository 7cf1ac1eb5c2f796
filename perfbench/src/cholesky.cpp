// cholesky: closed loop, 4 workers, aligned 1 ms timer. Factors a seeded
// SPD matrix (12 x 12 tiles of 128) with apps::tiled_cholesky, whose GEMM
// tiles run 2-wide inner teams joined at a busy-waiting barrier
// (TeamWait::kSpin): progress needs preemption (paper Fig 7). Tile tasks are
// KltSwitch because they call malloc. Check: the residual of every
// factorization is within kResidualBound.
#include <cmath>
#include <cstring>

#include "apps/cholesky/cholesky.hpp"
#include "apps/linalg/blas.hpp"
#include "bench.hpp"

namespace lptbench {
namespace {

constexpr int kTiles = 12;
constexpr int kTileN = 128;
constexpr int kInnerWidth = 2;
/// max_i |(A x - L (L^T x))_i| / (||A||_inf ||x||_inf); backward-stable
/// Cholesky gives about n * 2^-53 = 2e-13 at this size.
constexpr double kResidualBound = 1e-10;
constexpr int kProbeFactorizations = 3;

/// Relative residual of the factor L (lower triangle of `l`) against the
/// symmetric `a` (lower triangle used), probed with vector x.
double residual(int n, const double* a, const double* l,
                const std::vector<double>& x) {
  std::vector<double> y(n, 0.0), z(n, 0.0), w(n, 0.0), row_abs(n, 0.0);
  for (int j = 0; j < n; ++j) {
    const double* aj = a + static_cast<std::size_t>(j) * n;
    const double* lj = l + static_cast<std::size_t>(j) * n;
    for (int i = j; i < n; ++i) {
      y[i] += aj[i] * x[j];
      row_abs[i] += std::fabs(aj[i]);
      if (i != j) {
        y[j] += aj[i] * x[i];
        row_abs[j] += std::fabs(aj[i]);
      }
      z[j] += lj[i] * x[i];  // z = L^T x
    }
  }
  for (int j = 0; j < n; ++j) {
    const double* lj = l + static_cast<std::size_t>(j) * n;
    for (int i = j; i < n; ++i) w[i] += lj[i] * z[j];  // w = L z
  }
  double r = 0, na = 0, nx = 0;
  for (int i = 0; i < n; ++i) {
    r = std::max(r, std::fabs(y[i] - w[i]));
    na = std::max(na, row_abs[i]);
    nx = std::max(nx, std::fabs(x[i]));
  }
  return r / (na * nx);
}

/// The seeded SPD matrix of this workload and the residual probe vector.
struct Problem {
  int n = kTiles * kTileN;
  std::size_t nn = static_cast<std::size_t>(n) * n;
  std::vector<double> a0, m, x;
  double flops = static_cast<double>(n) * n * n / 3.0;

  explicit Problem(std::uint64_t seed) : a0(nn), m(nn), x(n) {
    lpt::apps::make_spd(n, a0.data(), n,
                        static_cast<unsigned>(seed ^ (seed >> 32)));
    for (int i = 0; i < n; ++i)
      x[i] = static_cast<double>(input(seed, 6, i) >> 11) * 0x1.0p-52 - 1.0;
  }
};

lpt::apps::TiledCholeskyOptions tile_options(lpt::Preempt preempt,
                                             lpt::apps::TeamWait wait) {
  lpt::apps::TiledCholeskyOptions c;
  c.tiles = kTiles;
  c.tile_n = kTileN;
  c.inner_width = kInnerWidth;
  c.inner_wait = wait;
  c.preempt = preempt;
  return c;
}

}  // namespace

void cholesky_layer_probe(const Args& a, Result& r) {
  lpt::Runtime rt(base_options(a, 4));
  Problem p(a.seed);
  const auto c = tile_options(lpt::Preempt::None, lpt::apps::TeamWait::kSpinYield);
  double busy_s = 0, worst = 0;
  for (int i = 0; i < kProbeFactorizations; ++i) {
    std::memcpy(p.m.data(), p.a0.data(), p.nn * sizeof(double));
    const std::int64_t s = lpt::now_ns();
    bool ok;
    {
      spans::Scope span(spans::kTiledCholesky, 0);
      ok = lpt::apps::tiled_cholesky(rt, c, p.m.data(), p.n);
    }
    busy_s += (lpt::now_ns() - s) / 1e9;
    const double res = ok ? residual(p.n, p.a0.data(), p.m.data(), p.x) : INFINITY;
    worst = std::max(worst, res);
    if (!(res <= kResidualBound)) r.add("check_failures", 1);
  }
  r.set("cholesky_probe.flops_per_s", p.flops * kProbeFactorizations / busy_s);
  r.set("cholesky_probe.residual", worst);
  r.set("cholesky_probe.workers", rt.num_workers());
}

int run_cholesky(const Args& a) {
  lpt::RuntimeOptions o = base_options(a, 4);
  o.timer = lpt::TimerKind::PerWorkerAligned;
  o.interval_us = 1000;
  lpt::Runtime rt(o);
  const auto c = tile_options(a.task_preempt == "signal"
                                  ? lpt::Preempt::SignalYield
                                  : lpt::Preempt::KltSwitch,
                              lpt::apps::TeamWait::kSpin);
  Problem p(a.seed);

  Result r;
  RuntimeWindow win(rt);
  win.begin();
  const std::int64_t window_ns = static_cast<std::int64_t>(a.window_s * 1e9);
  std::vector<float> latency_us, residuals;
  std::uint64_t done = 0, failures = 0;
  double busy_s = 0;
  Progress progress;
  const std::int64_t t0 = lpt::now_ns();
  emit_first_op(t0);
  while (lpt::now_ns() - t0 < window_ns) {
    std::memcpy(p.m.data(), p.a0.data(), p.nn * sizeof(double));
    progress.tick(done + 1, done, true);
    const std::int64_t s = lpt::now_ns();
    bool ok;
    {
      spans::Scope span(spans::kTiledCholesky, 0, a.trace);
      ok = lpt::apps::tiled_cholesky(rt, c, p.m.data(), p.n);
    }
    const double secs = (lpt::now_ns() - s) / 1e9;
    const double res = ok ? residual(p.n, p.a0.data(), p.m.data(), p.x) : INFINITY;
    if (!(res <= kResidualBound)) ++failures;
    busy_s += secs;
    latency_us.push_back(static_cast<float>(secs * 1e6));
    residuals.push_back(static_cast<float>(res));
    ++done;
  }
  win.end(r);
  progress.tick(done, done, true);

  r.set("attempted", static_cast<double>(done));
  r.set("completed", static_cast<double>(done));
  r.set("check_failures", static_cast<double>(failures));
  r.set("work", p.flops * static_cast<double>(done));
  r.set("elapsed_s", busy_s);
  r.set("workers", rt.num_workers());
  r.set("residual_bound", kResidualBound);
  write_samples(a, "latency_us", latency_us);
  write_samples(a, "residual", residuals);
  r.print();
  return 0;
}

}  // namespace lptbench
