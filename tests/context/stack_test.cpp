#include "context/stack.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/sys.hpp"

namespace lpt {
namespace {

TEST(Stack, AllocatesUsableMemory) {
  Stack s(64 * 1024);
  ASSERT_TRUE(s.valid());
  ASSERT_GE(s.size(), 64u * 1024);
  // The whole usable area must be writable.
  std::memset(s.base(), 0xab, s.size());
  EXPECT_EQ(static_cast<unsigned char*>(s.base())[0], 0xab);
  EXPECT_EQ(static_cast<unsigned char*>(s.base())[s.size() - 1], 0xab);
}

TEST(Stack, SizeRoundedUpToPage) {
  Stack s(1000);
  EXPECT_GE(s.size(), 1000u);
  EXPECT_EQ(s.size() % 4096, 0u);
}

TEST(Stack, MoveTransfersOwnership) {
  Stack a(16 * 1024);
  void* base = a.base();
  Stack b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.base(), base);

  Stack c(16 * 1024);
  c = std::move(b);
  EXPECT_FALSE(b.valid());
  EXPECT_EQ(c.base(), base);
}

TEST(Stack, GuardPageFaultsOnUnderflow) {
  Stack s(16 * 1024);
  auto* below = static_cast<volatile char*>(s.base()) - 1;
  EXPECT_DEATH({ *below = 1; }, "");
}

TEST(StackPool, ReusesReleasedStacks) {
  StackPool pool(32 * 1024);
  Stack s1 = pool.acquire();
  void* base = s1.base();
  pool.release(std::move(s1));
  EXPECT_EQ(pool.cached(), 1u);
  Stack s2 = pool.acquire();
  EXPECT_EQ(s2.base(), base);
  EXPECT_EQ(pool.cached(), 0u);
}

TEST(StackPool, GrowsOnDemand) {
  StackPool pool(16 * 1024);
  Stack a = pool.acquire();
  Stack b = pool.acquire();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.base(), b.base());
  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.cached(), 2u);
}

TEST(StackPool, CapBoundsFreeListAndCountsShed) {
  StackPool pool(16 * 1024, /*max_cached=*/2);
  Stack a = pool.acquire();
  Stack b = pool.acquire();
  Stack c = pool.acquire();
  pool.release(std::move(a));
  pool.release(std::move(b));
  pool.release(std::move(c));  // over the cap: unmapped, not cached
  EXPECT_EQ(pool.cached(), 2u);
  EXPECT_EQ(pool.total_shed(), 1u);
  EXPECT_EQ(pool.max_cached(), 2u);
}

TEST(StackPool, ShedAllEmptiesCache) {
  StackPool pool(16 * 1024, 8);
  Stack a = pool.acquire();
  Stack b = pool.acquire();  // distinct: acquired before either release
  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.cached(), 2u);
  EXPECT_EQ(pool.shed_all(), 2u);
  EXPECT_EQ(pool.cached(), 0u);
  EXPECT_EQ(pool.total_shed(), 2u);
  // Still usable afterwards.
  Stack s = pool.acquire();
  EXPECT_TRUE(s.valid());
}

/// Protection of the page at `addr` as /proc/self/maps prints it ("rw-p",
/// "---p", ...), or "" when no mapping holds it.
std::string protection_of(const void* addr) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    std::uintptr_t lo = 0, hi = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) != 3)
      continue;
    if (a >= lo && a < hi) return perms;
  }
  return "";
}

TEST(StackPool, ReleaseReprotectsGuardMadeWritable) {
  StackPool pool(32 * 1024);
  Stack s = pool.acquire();
  ASSERT_TRUE(s.valid());
  void* guard = s.guard();
  ASSERT_EQ(protection_of(guard), "---p");
  // A buggy tenant opens the guard up; the stack goes back to the pool.
  ASSERT_EQ(::mprotect(guard, s.guard_size(), PROT_READ | PROT_WRITE), 0);
  ASSERT_EQ(protection_of(guard), "rw-p");
  pool.release(std::move(s));
  ASSERT_EQ(pool.cached(), 1u);

  Stack again = pool.acquire();
  ASSERT_EQ(again.guard(), guard);  // the same stack, handed out again
  EXPECT_EQ(protection_of(guard), "---p");
}

TEST(StackPool, TryAcquireReportsErrnoOnInjectedFailure) {
  StackPool pool(16 * 1024, 4);
  // Every mapping fails: even the shed-and-retry fallback cannot help, and
  // the caller gets an invalid stack plus the reason.
  ASSERT_TRUE(sys::configure_faults("mmap:every=1"));
  int err = 0;
  Stack s = pool.try_acquire(&err);
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(err, ENOMEM);
  sys::reset_faults();
  err = -1;
  Stack ok = pool.try_acquire(&err);
  EXPECT_TRUE(ok.valid());
}

}  // namespace
}  // namespace lpt
