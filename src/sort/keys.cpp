#include "sort/keys.h"

#include <bit>
#include <system_error>

#include "sort/blockops.h"
#include "util/thread_pool.h"

namespace aoft::sort {

namespace {

// The oracle's sort of `input` in 2^depth parts (depth >= 1): a binary tree
// whose leaves radix-sort their parts and whose inner nodes merge their two
// children, each level into the buffer its children were not in.  Every
// node's lower child is non-decreasing and its upper child non-increasing,
// so a node's range holds exactly the two runs merge_runs and is_runs_merge
// read.  Sibling subtrees write disjoint ranges.
struct RunTree {
  std::span<const Key> input;
  int depth;
  Key* buf[2];
  detail::StartThread start;

  // Where the nodes of `level` (the root is level 0) leave their keys; the
  // leaves write buf[0] and use buf[1] as their radix scratch.
  Key* level_buf(int level) const { return buf[(depth - level) % 2]; }

  // Leave input[lo, lo + n) sorted in direction `ascending` at
  // level_buf(level)[lo, lo + n).
  void build(std::size_t lo, std::size_t n, int level, bool ascending) {
    Key* out = level_buf(level) + lo;
    if (level == depth) {
      blockops::sort_into(input.subspan(lo, n), ascending, {out, n},
                          {buf[1] + lo, n});
      return;
    }
    halves(lo, n, level + 1);
    kernels::merge_runs({level_buf(level + 1) + lo, n}, {out, n}, ascending);
  }

  // Build [lo, lo + n/2) non-decreasing and the rest non-increasing as
  // nodes of `level`, the upper half on a thread of its own if one starts.
  void halves(std::size_t lo, std::size_t n, int level) {
    const std::size_t half = n / 2;
    const auto upper = [=, this] { build(lo + half, n - half, level, false); };
    std::thread t;
    try {
      t = start(upper);
    } catch (const std::system_error&) {
      // No thread: the calling thread sorts this half after the other.
    }
    build(lo, half, level, true);
    if (t.joinable())
      t.join();
    else
      upper();
  }
};

// Two uninitialised buffers of n keys; the tree's levels alternate between
// them.
struct Buffers {
  sim::KeyBuf buf[2];
  explicit Buffers(std::size_t n) {
    buf[0].resize_for_overwrite(n);
    buf[1].resize_for_overwrite(n);
  }
};

// Sort `input` (parts >= 2) into its last two runs, the lower half
// non-decreasing and the upper non-increasing; returns the index of the
// buffer that holds them.
int last_runs(std::span<const Key> input, std::size_t parts,
              detail::StartThread start, Buffers& b) {
  RunTree tree{input, std::countr_zero(parts),
               {b.buf[0].data(), b.buf[1].data()}, start};
  tree.halves(0, input.size(), 1);
  return (tree.depth - 1) % 2;
}

// At most one part per key, so that no part is empty.
std::size_t cut_parts(std::size_t parts, std::size_t n) {
  return std::min(parts, n == 0 ? std::size_t{1} : std::bit_floor(n));
}

std::size_t parts_here(std::size_t n) {
  if (n < kOracleParallelCutoff || util::ThreadPool::on_worker()) return 1;
  return detail::oracle_parts(n, util::ThreadPool::resolve(0));
}

}  // namespace

namespace detail {

std::thread start_thread(std::function<void()> part) {
  return std::thread(std::move(part));
}

std::size_t oracle_parts(std::size_t n, int cpus) {
  if (n < kOracleParallelCutoff || cpus < 2) return 1;
  return std::bit_floor(std::min(static_cast<std::size_t>(cpus),
                                 n / (kOracleParallelCutoff / 2)));
}

bool is_sort_of(std::span<const Key> claimed, std::span<const Key> input,
                std::size_t parts, StartThread start) {
  if (claimed.size() != input.size()) return false;
  parts = cut_parts(parts, input.size());
  if (parts <= 1) {
    const sim::KeyBuf sorted = sorted_ascending(input, 1);
    return std::equal(sorted.begin(), sorted.end(), claimed.begin());
  }
  Buffers b(input.size());
  const int runs = last_runs(input, parts, start, b);
  return kernels::is_runs_merge(b.buf[runs], claimed, true);
}

sim::KeyBuf sorted_ascending(std::span<const Key> input, std::size_t parts,
                             StartThread start) {
  parts = cut_parts(parts, input.size());
  if (parts <= 1) {
    sim::KeyBuf sorted;
    sorted.assign(input.begin(), input.end());
    blockops::sort_dir(sorted, true);
    return sorted;
  }
  Buffers b(input.size());
  const int runs = last_runs(input, parts, start, b);
  kernels::merge_runs(b.buf[runs], b.buf[1 - runs], true);
  return std::move(b.buf[1 - runs]);
}

}  // namespace detail

bool is_sort_of(std::span<const Key> claimed, std::span<const Key> input) {
  if (claimed.size() != input.size()) return false;
  return detail::is_sort_of(claimed, input, parts_here(input.size()));
}

sim::KeyBuf sorted_ascending(std::span<const Key> input) {
  return detail::sorted_ascending(input, parts_here(input.size()));
}

bool is_permutation_of(std::span<const Key> a, std::span<const Key> b) {
  return a.size() == b.size() && is_sort_of(sorted_ascending(b), a);
}

}  // namespace aoft::sort
