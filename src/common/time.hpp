// Monotonic clocks and calibrated busy-work, used by tests and benchmarks.
#pragma once

#include <ctime>
#include <cstdint>

namespace lpt {

/// "No deadline": the absolute deadline of an untimed wait.
inline constexpr std::int64_t kNoDeadline = INT64_MAX;

/// Monotonic time in nanoseconds (CLOCK_MONOTONIC). Async-signal-safe.
inline std::int64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Burn CPU for roughly `ns` nanoseconds without issuing any system call
/// other than clock_gettime. Preemption-friendly busy work.
inline void busy_spin_ns(std::int64_t ns) {
  const std::int64_t deadline = now_ns() + ns;
  while (now_ns() < deadline) {
    for (int i = 0; i < 64; ++i) asm volatile("" ::: "memory");
  }
}

/// Pure ALU work (no clock reads); returns a value so the loop cannot be
/// optimized away. Useful when the test wants deterministic instruction
/// counts rather than wall-clock-calibrated work.
inline std::uint64_t busy_work_iters(std::uint64_t iters) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace lpt
