#include "context/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/sys.hpp"

namespace lpt {

namespace {
std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}
}  // namespace

Stack::Stack(std::size_t usable_size) {
  const std::size_t ps = page_size();
  const std::size_t usable = (usable_size + ps - 1) / ps * ps;
  const std::size_t total = usable + ps;  // + guard page
  void* p = sys::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (p == MAP_FAILED) return;  // invalid; errno says why
  LPT_CHECK(::mprotect(p, ps, PROT_NONE) == 0);
  map_ = p;
  map_size_ = total;
  base_ = static_cast<char*>(p) + ps;
  size_ = usable;
}

Stack::~Stack() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

Stack::Stack(Stack&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

Stack& Stack::operator=(Stack&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

bool Stack::reassert_guard() {
  if (map_ == nullptr) return false;
  return sys::mprotect(map_, guard_size(), PROT_NONE) == 0;
}

void Stack::scrub() {
  if (base_ == nullptr) return;
  (void)::madvise(base_, size_, MADV_DONTNEED);
}

std::size_t Stack::watermark() const {
  if (base_ == nullptr) return 0;
  const std::size_t ps = page_size();
  const std::size_t npages = size_ / ps;
  unsigned char vec[256];
  // Scan upward from the bottom of the usable area; the first resident page
  // is the deepest the stack ever grew. Cost is one mincore per 256 pages
  // (1 MiB), and a typical run exits on the first chunk.
  for (std::size_t i = 0; i < npages; i += sizeof(vec)) {
    const std::size_t n = npages - i < sizeof(vec) ? npages - i : sizeof(vec);
    if (::mincore(static_cast<char*>(base_) + i * ps, n * ps, vec) != 0)
      return 0;
    for (std::size_t j = 0; j < n; ++j)
      if ((vec[j] & 1) != 0) return size_ - (i + j) * ps;
  }
  return 0;
}

Stack StackPool::acquire() {
  Stack s;
  {
    SpinlockGuard g(lock_);
    if (!free_.empty()) {
      s = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (!s.valid()) return Stack(stack_size_);  // map outside the lock
  // Every cached stack had its guard re-asserted on the way in (release,
  // quarantine), so handing one out needs no syscall.
  if (scrub_on_reuse_) s.scrub();
  return s;
}

Stack StackPool::try_acquire(int* err) {
  Stack s = acquire();
  if (s.valid()) return s;
  const int first_err = errno != 0 ? errno : ENOMEM;
  // Degrade: return every cached mapping to the kernel, then retry once.
  // (A cached stack of the right size would have been handed out above, so
  // reaching here means the free list held nothing useful — but a racing
  // release may have restocked it, and shedding also frees address space
  // held by other pools' churn.)
  shed_all();
  s = Stack(stack_size_);
  if (s.valid()) return s;
  if (err != nullptr) *err = errno != 0 ? errno : first_err;
  return s;
}

void StackPool::release(Stack&& s) {
  LPT_CHECK(s.valid());
  // A buggy former tenant could have left the guard writable; a stack enters
  // the cache only with PROT_NONE re-asserted below it, or not at all.
  const bool guard_ok = s.reassert_guard();
  Stack drop;  // unmapped outside the lock if it is not cached
  {
    SpinlockGuard g(lock_);
    if (guard_ok && free_.size() < max_cached_) {
      free_.push_back(std::move(s));
      return;
    }
    ++shed_;
    drop = std::move(s);
  }
}

void StackPool::quarantine(Stack&& s) {
  LPT_CHECK(s.valid());
  // The faulting ULT's frames are garbage and the guard may have been the
  // fault target: return the pages to the kernel and re-protect before this
  // stack can host another ULT. An unprotectable guard means the mapping is
  // not trustworthy — drop it.
  s.scrub();
  const bool guard_ok = s.reassert_guard();
  {
    SpinlockGuard g(lock_);
    ++quarantined_;
    if (guard_ok && free_.size() < max_cached_) {
      free_.push_back(std::move(s));
      return;
    }
    ++shed_;
  }
}

std::size_t StackPool::shed_all() {
  std::vector<Stack> drop;
  {
    SpinlockGuard g(lock_);
    drop.swap(free_);
    shed_ += drop.size();
  }
  return drop.size();
}

std::size_t StackPool::cached() const {
  SpinlockGuard g(lock_);
  return free_.size();
}

std::uint64_t StackPool::total_shed() const {
  SpinlockGuard g(lock_);
  return shed_;
}

std::uint64_t StackPool::total_quarantined() const {
  SpinlockGuard g(lock_);
  return quarantined_;
}

}  // namespace lpt
