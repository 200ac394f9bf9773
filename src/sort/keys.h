// Key utilities shared by the sorting algorithms and their checks.

#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "sim/message.h"
#include "sort/kernels.h"

namespace aoft::sort {

using sim::Key;

// True iff `v` is non-decreasing.  Routed through the dispatched run-scan
// kernel (sort/kernels.h) — same verdict as std::is_sorted on every path.
inline bool is_non_decreasing(std::span<const Key> v) {
  return kernels::is_sorted_run(v, true);
}

// True iff `v` is non-increasing.
inline bool is_non_increasing(std::span<const Key> v) {
  return kernels::is_sorted_run(v, false);
}

// True iff `v` is bitonic in the restricted sense the sort maintains:
// a non-decreasing first half followed by a non-increasing second half
// (paper Definition 2 with the split at the midpoint, which Lemma 2
// guarantees for every intermediate sequence).
inline bool is_bitonic_halves(std::span<const Key> v) {
  const std::size_t mid = v.size() / 2;
  return is_non_decreasing(v.subspan(0, mid)) && is_non_increasing(v.subspan(mid));
}

// The exact oracle: true iff `claimed` is `input` sorted ascending, on every
// input.  classify, is_permutation_of and S_NR's host Theorem-1 check all
// rest on it.  Below kOracleParallelCutoff keys, on a util::ThreadPool
// worker, or with one CPU in the affinity mask it copies `input`, sorts the
// copy (blockops::sort_dir) and compares.  From the cutoff up it splits
// `input` into P parts (a power of two, at most the CPUs in the affinity
// mask) and radix-sorts each on its own thread, straight from `input` into
// two uninitialised buffers.  Every lower half is sorted non-decreasing and
// every upper half non-increasing, so the parts alternate.  Sibling runs are
// merged pairwise (kernels::merge_runs), and `claimed` is checked against
// the merge of the last two runs without writing it (kernels::is_runs_merge,
// Φ_F's merge compare).  A thread that fails to start runs its part on the
// calling thread, and every thread is joined before return.
bool is_sort_of(std::span<const Key> claimed, std::span<const Key> input);

// `input` sorted ascending, by the oracle's sort (the last two runs merged
// into the buffer they were not in).
sim::KeyBuf sorted_ascending(std::span<const Key> input);

// True iff `a` is a permutation of `b` (multiset equality): `b` sorted is
// `a` sorted.
bool is_permutation_of(std::span<const Key> a, std::span<const Key> b);

// Below this many keys the oracle sorts on the calling thread.  Starting and
// joining a thread costs ~50 µs: at 16,384 keys two parts tie with one, at
// 32,768 two win by ~13% and four tie with two, from 49,152 keys four win
// (EXPERIMENTS §16.11).  Each part holds at least half of it.
inline constexpr std::size_t kOracleParallelCutoff = std::size_t{1} << 15;

namespace detail {
// Starts a thread running `part`; throws std::system_error, like
// std::thread's constructor, when it cannot.
using StartThread = std::thread (*)(std::function<void()> part);
std::thread start_thread(std::function<void()> part);

// The part count for n keys on `cpus` CPUs: 1 below kOracleParallelCutoff,
// else the largest power of two within cpus and n / (kOracleParallelCutoff /
// 2).
std::size_t oracle_parts(std::size_t n, int cpus);

// The oracle and its sort with the part count given (a power of two, cut to
// at most input.size() so no part is empty; 1 is the serial path) and the
// thread starter given: the seam the tests reach every part count and a
// failing thread start through.
bool is_sort_of(std::span<const Key> claimed, std::span<const Key> input,
                std::size_t parts, StartThread start = start_thread);
sim::KeyBuf sorted_ascending(std::span<const Key> input, std::size_t parts,
                             StartThread start = start_thread);
}  // namespace detail

}  // namespace aoft::sort
