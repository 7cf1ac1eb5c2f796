// fork_join: closed loop, 4 workers, no timer, nonpreemptive ULTs. One
// external caller spawns a root ULT, which runs a binary spawn/join tree of
// 255 ULTs; the next tree starts when the previous one is joined. Leaf work
// is a short seeded ALU chain, so spawn, join, the StackPool, the ready
// queues and stealing do nearly all the work. Check: every tree's checksum.
#include "bench.hpp"

namespace lptbench {
namespace {

constexpr int kDepth = 7;                    // 2^8 - 1 ULTs per tree
constexpr int kLeaves = 1 << kDepth;
constexpr std::uint64_t kUltsPerTree = 2 * kLeaves - 1;
constexpr int kWarmupTrees = 4;

struct Tree {
  lpt::Runtime* rt = nullptr;
  const std::uint32_t* leaf_iters = nullptr;  // seeded work per leaf
  std::uint64_t seed = 0;
  std::uint64_t tree_no = 0;  // folded into every leaf: stale results show
  bool traced = false;
};

struct Task {
  const Tree* tree;
  int depth;
  int index;
  std::uint64_t* out;
  std::uint32_t parent_span;
};

std::uint64_t leaf_value(std::uint64_t seed, int leaf, std::uint32_t iters) {
  return chain(input(seed, 1, static_cast<std::uint64_t>(leaf)), iters);
}

void node(const Task& t) {
  const Tree& tree = *t.tree;
  spans::Scope self(spans::kNode, t.parent_span, tree.traced);
  if (t.depth == 0) {
    *t.out = leaf_value(tree.seed, t.index, tree.leaf_iters[t.index]) +
             tree.tree_no;
    return;
  }
  std::uint64_t r[2] = {0, 0};
  Task kids[2];
  lpt::Thread th[2];
  for (int k = 0; k < 2; ++k) {
    kids[k] = Task{&tree, t.depth - 1, 2 * t.index + k, &r[k], self.id()};
    const Task* kid = &kids[k];
    spans::Scope s(spans::kSpawn, self.id(), tree.traced);
    th[k] = tree.rt->spawn([kid] { node(*kid); });
  }
  for (int k = 0; k < 2; ++k) {
    if (!th[k].joinable()) continue;  // spawn failed: r[k] stays 0
    spans::Scope s(spans::kJoin, self.id(), tree.traced);
    th[k].join();
  }
  *t.out = r[0] + r[1];
}

}  // namespace

int run_fork_join(const Args& a) {
  lpt::Runtime rt(base_options(a, 4));

  std::vector<std::uint32_t> iters(kLeaves);
  std::uint64_t base = 0;
  for (int leaf = 0; leaf < kLeaves; ++leaf) {
    iters[leaf] = 32 + static_cast<std::uint32_t>(input(a.seed, 2, leaf) % 128);
    base += leaf_value(a.seed, leaf, iters[leaf]);
  }
  Tree tree;
  tree.rt = &rt;
  tree.leaf_iters = iters.data();
  tree.seed = a.seed;
  tree.traced = a.trace;

  // One tree, run from this (external) thread; true when its checksum holds.
  auto run_tree = [&](std::uint64_t no) {
    tree.tree_no = no;
    std::uint64_t out = 0;
    spans::Scope span(spans::kTree, 0, a.trace);
    const Task root{&tree, kDepth, 0, &out, span.id()};
    lpt::Thread t;
    {
      spans::Scope s(spans::kSpawnExternal, span.id(), a.trace);
      t = rt.spawn([&root] { node(root); });
    }
    if (!t.joinable()) return false;
    {
      spans::Scope s(spans::kJoinExternal, span.id(), a.trace);
      t.join();
    }
    return out == base + kLeaves * no;
  };

  std::uint64_t no = 0, failures = 0;
  for (int i = 0; i < kWarmupTrees; ++i)
    if (!run_tree(no++)) ++failures;

  Result r;
  RuntimeWindow win(rt);
  win.begin();
  const std::int64_t window_ns = static_cast<std::int64_t>(a.window_s * 1e9);
  const std::int64_t t0 = lpt::now_ns();
  emit_first_op(t0);
  std::vector<float> latency_us;
  std::uint64_t trees = 0;
  Progress progress;
  std::int64_t now = t0;
  while (now - t0 < window_ns) {
    progress.tick(trees + 1, trees);
    const bool ok = run_tree(no++);
    const std::int64_t done = lpt::now_ns();
    latency_us.push_back(static_cast<float>((done - now) / 1e3));
    now = done;
    ++trees;
    if (!ok) ++failures;
  }
  win.end(r);
  progress.tick(trees, trees, true);

  r.set("attempted", static_cast<double>(trees));
  r.set("completed", static_cast<double>(trees));
  r.set("check_failures", static_cast<double>(failures));
  r.set("work", static_cast<double>(trees * kUltsPerTree));
  r.set("elapsed_s", (now - t0) / 1e9);
  r.set("ults_per_tree", static_cast<double>(kUltsPerTree));
  write_samples(a, "latency_us", latency_us);
  r.print();
  return 0;
}

}  // namespace lptbench
