// Scalar reference kernels and the runtime dispatch table.
//
// The scalar implementations below are the semantic ground truth: the SIMD
// translation units (kernels_avx2.cpp, kernels_neon.cpp) must reproduce their
// results bit for bit, including first-failure positions.  Keep them boring —
// every branch here is part of the contract the fuzz suite enforces.

#include "sort/kernels.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>

namespace aoft::sort::kernels {

namespace {

std::size_t run_break_scalar(const Key* v, std::size_t n, bool non_decreasing) {
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const bool bad = non_decreasing ? v[k + 1] < v[k] : v[k + 1] > v[k];
    if (bad) return k;
  }
  return n;
}

std::size_t mismatch_scalar(const Key* a, const Key* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] != b[i]) return i;
  return n;
}

// Merge-path kernels (Green, McColl and Bader, "Merge Path", 2012).  The
// output of a stable merge is cut into four equal segments; a binary search
// on each segment's first output diagonal finds where the merge path crosses
// it, and the four segments then advance together in one interleaved loop.
// Each step is branchless (the taken side is a select, not a jump) and the
// four chains carry no dependency on each other, so the core overlaps four
// load->compare->advance chains instead of waiting on one and mispredicting
// about half of its steps.  Four chains' state fits in x86-64's registers;
// the merge runs 3-4x the reference on fresh 2 x 65,536-key runs
// (bench/micro_predicates BM_Merge).
//
// Positions are absolute: the merge step at (ia, ib) always emits output
// position ia + ib.  A chain that starts on the global merge path and takes
// its segment's steps under the global rule (ties take A first, like
// std::merge) walks exactly that segment of the path.  Running out of one
// side inside its segment is harmless: the next key on that side lies on the
// path after every key the chain still emits, so the compare keeps choosing
// the other side.  The loop therefore needs no bounds checks as long as
// those "next keys" exist, which holds when the last split point lies
// strictly inside both runs.  The last segment runs backward from the end of
// both runs, so its reads stay inside them as well.

// The A-index where the merge path crosses output diagonal d, given two
// points (a_lo, b_lo) and (a_hi, b_hi) on the path that bracket it.  A(mid)
// is among the first d outputs iff B(d-1-mid) does not come strictly before.
template <typename A, typename B, typename Before>
std::size_t merge_path_split(const A& a, std::size_t a_lo, std::size_t a_hi,
                             const B& b, std::size_t b_lo, std::size_t b_hi,
                             std::size_t d, const Before& before) {
  std::size_t lo = d > a_lo + b_hi ? d - b_hi : a_lo;
  std::size_t hi = std::min(d - b_lo, a_hi);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (before(b(d - 1 - mid), a(mid)))
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

// The stable merge of the sorted sequences A[0, la) and B[0, lb) in `before`
// order, handing emit(position, value) every output exactly once.  Below
// kMergePathCutoff keys, and whenever a whole quarter of what is left comes
// from one run (a split point on a run's edge), the plain two-pointer walk or
// a one-run copy takes that part instead; each such pass removes a quarter.
template <typename A, typename B, typename Before, typename Emit>
void merge_path(const A& a, std::size_t la, const B& b, std::size_t lb,
                const Before& before, Emit&& emit) {
  std::size_t a_lo = 0, a_hi = la, b_lo = 0, b_hi = lb;
  for (;;) {
    const std::size_t n = (a_hi - a_lo) + (b_hi - b_lo);
    const std::size_t base = a_lo + b_lo;
    if (n < detail::kMergePathCutoff || a_lo == a_hi || b_lo == b_hi) {
      std::size_t ia = a_lo, ib = b_lo;
      while (ia < a_hi && ib < b_hi) {
        if (before(b(ib), a(ia))) {
          emit(ia + ib, b(ib));
          ++ib;
        } else {
          emit(ia + ib, a(ia));
          ++ia;
        }
      }
      for (; ia < a_hi; ++ia) emit(ia + ib, a(ia));
      for (; ib < b_hi; ++ib) emit(ia + ib, b(ib));
      return;
    }
    const std::size_t d3 = base + n * 3 / 4;
    const std::size_t i3 = merge_path_split(a, a_lo, a_hi, b, b_lo, b_hi, d3, before);
    const std::size_t j3 = d3 - i3;
    if (i3 == a_hi || j3 == b_hi) {  // the last quarter is one run's tail
      for (std::size_t j = j3; j < b_hi; ++j) emit(a_hi + j, b(j));
      for (std::size_t i = i3; i < a_hi; ++i) emit(i + b_hi, a(i));
      a_hi = i3;
      b_hi = j3;
      continue;
    }
    if (i3 == a_lo || j3 == b_lo) {  // the first three quarters are one run's
      for (std::size_t j = b_lo; j < j3; ++j) emit(a_lo + j, b(j));
      for (std::size_t i = a_lo; i < i3; ++i) emit(i + b_lo, a(i));
      a_lo = i3;
      b_lo = j3;
      continue;
    }
    const std::size_t d1 = base + n / 4, d2 = base + n / 2;
    std::size_t ia0 = a_lo, ib0 = b_lo;
    std::size_t ia1 = merge_path_split(a, a_lo, i3, b, b_lo, j3, d1, before);
    std::size_t ib1 = d1 - ia1;
    std::size_t ia2 = merge_path_split(a, ia1, i3, b, ib1, j3, d2, before);
    std::size_t ib2 = d2 - ia2;
    std::size_t ia3 = a_hi, ib3 = b_hi;  // one past the last output, backward
    const auto forward = [&](std::size_t& ia, std::size_t& ib) {
      const Key x = a(ia), y = b(ib);
      const bool take_b = before(y, x);
      emit(ia + ib, take_b ? y : x);
      ia += !take_b;
      ib += take_b;
    };
    // Backward, the last of equal keys is B's: take A only when its key
    // comes strictly after.
    const auto backward = [&](std::size_t& ia, std::size_t& ib) {
      const Key x = a(ia - 1), y = b(ib - 1);
      const bool take_a = before(y, x);
      emit(ia + ib - 1, take_a ? x : y);
      ia -= take_a;
      ib -= !take_a;
    };
    for (std::size_t s = n / 4; s > 0; --s) {
      forward(ia0, ib0);
      forward(ia1, ib1);
      forward(ia2, ib2);
      backward(ia3, ib3);
    }
    // Segments are n/4 or n/4 + 1 long: at most one step each is left.
    if (ia0 + ib0 < d1) forward(ia0, ib0);
    if (ia1 + ib1 < d2) forward(ia1, ib1);
    if (ia2 + ib2 < d3) forward(ia2, ib2);
    if (ia3 + ib3 > d3) backward(ia3, ib3);
    return;
  }
}

template <bool Asc>
bool before(Key x, Key y) {
  return Asc ? x < y : x > y;
}

// The walks below stay out of line: inlined next to the precondition scans,
// gcc allocated the interleaved loop's registers worse and the merge ran
// ~2x slower.
template <bool Asc>
[[gnu::noinline]] void merge_path_dir(const Key* a, std::size_t la,
                                      const Key* b, std::size_t lb, Key* out) {
  merge_path([a](std::size_t i) { return a[i]; }, la,
             [b](std::size_t j) { return b[j]; }, lb, before<Asc>,
             [out](std::size_t o, Key v) { out[o] = v; });
}

// The merge-path walk reads within its runs only when they are sorted, and
// only then equals std::merge.  A node that skipped its exchange check can
// hold an unsorted block, so unsorted runs take the reference instead: its
// bytes stay the reference's on every input, not just on sorted ones.  The
// precondition scans here and in the Φ_F kernel go through the active
// table's run_break, vectorized where the host has it; its result is the
// same on every path.
void merge_kernel(const Key* a, std::size_t la, const Key* b, std::size_t lb,
                  bool ascending, Key* out) {
  if (la + lb < detail::kMergePathCutoff ||
      table().run_break(a, la, ascending) != la ||
      table().run_break(b, lb, ascending) != lb) {
    detail::merge_reference(a, la, b, lb, ascending, out);
    return;
  }
  if (ascending)
    merge_path_dir<true>(a, la, b, lb, out);
  else
    merge_path_dir<false>(a, la, b, lb, out);
}

// True iff lbs, read in ascending visit order (forward when `Asc`, backward
// otherwise), equals the ascending merge of llbs' lower run [0, half) and
// its upper run [half, size) read backward.
template <bool Asc>
[[gnu::noinline]] bool lbs_is_runs_merge(const Key* llbs, const Key* lbs,
                                         std::size_t size) {
  const std::size_t half = size / 2;
  // Backward reads use negative subscripts, which address in one load; the
  // pointer difference `upper_back - t` cost a register and two more
  // instructions a step, spilled a chain and ran ~20% slower.
  const auto back = [](std::size_t t) { return -static_cast<std::ptrdiff_t>(t); };
  const Key* upper_back = llbs + size - 1;
  const Key* visit = Asc ? lbs : lbs + size - 1;
  bool differ = false;
  merge_path([llbs](std::size_t i) { return llbs[i]; }, half,
             [&](std::size_t t) { return upper_back[back(t)]; }, size - half,
             before<true>, [&](std::size_t o, Key v) {
               differ |= v != (Asc ? visit[o] : visit[back(o)]);
             });
  return !differ;
}

// Φ_F through the merge path.  When llbs' lower run is non-decreasing and
// its upper run non-increasing, an lbs that reads, in visit order, as the
// ascending merge of the two runs passes the greedy scan: each visited key
// is the minimum of what is left, so it matches a run head.  The kernel
// returns -1 only on that equality.  Any other input — a run out of order,
// or lbs differing from the merge — reruns the reference, so verdicts and
// first-failure indices are the reference's on every input.  A clean stage
// boundary always takes the fast path: there lbs is sorted, and a sorted
// permutation of the two runs is their merge.
std::int64_t phi_f_scan_kernel(const Key* llbs, const Key* lbs,
                               std::size_t size, bool ascending) {
  const std::size_t half = size / 2;
  if (size >= detail::kMergePathCutoff &&
      table().run_break(llbs, half, true) == half &&
      table().run_break(llbs + half, size - half, false) == size - half &&
      (ascending ? lbs_is_runs_merge<true>(llbs, lbs, size)
                 : lbs_is_runs_merge<false>(llbs, lbs, size)))
    return -1;
  return detail::phi_f_scan_reference(llbs, lbs, size, ascending);
}

bool includes_scalar(const Key* super, std::size_t ls, const Key* sub,
                     std::size_t lb, bool ascending) {
  if (ascending) return std::includes(super, super + ls, sub, sub + lb);
  return std::includes(super, super + ls, sub, sub + lb, std::greater<Key>{});
}

constexpr KernelTable kScalarTable{run_break_scalar, mismatch_scalar,
                                   phi_f_scan_kernel, merge_kernel,
                                   includes_scalar};

// Published (table, path) pair.  First table() call detects and publishes;
// force_path republishes.  Concurrent first-use is a benign race (every
// thread detects the same path); force_path during concurrent kernel use is
// documented as unsupported.
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<util::simd::Path> g_path{util::simd::Path::kScalar};

}  // namespace

namespace detail {

const KernelTable& scalar_table() { return kScalarTable; }

std::int64_t phi_f_scan_reference(const Key* llbs, const Key* lbs,
                                  std::size_t size, bool ascending) {
  const std::size_t half = size / 2;
  // l walks the non-decreasing run forward, u walks the non-increasing run
  // backward; both visit values in ascending order.  Iterate the sorted lbs
  // in ascending order and consume the matching run head, l preferred.
  std::size_t l = 0;
  std::size_t u = size;  // one past the element `u-1` under consideration
  for (std::size_t step = 0; step < size; ++step) {
    const std::size_t idx = ascending ? step : size - 1 - step;
    const Key key = lbs[idx];
    if (l < half && key == llbs[l]) {
      ++l;
    } else if (u > half && key == llbs[u - 1]) {
      --u;
    } else {
      return static_cast<std::int64_t>(idx);
    }
  }
  return -1;
}

void merge_reference(const Key* a, std::size_t la, const Key* b,
                     std::size_t lb, bool ascending, Key* out) {
  if (ascending)
    std::merge(a, a + la, b, b + lb, out);
  else
    std::merge(a, a + la, b, b + lb, out, std::greater<Key>{});
}

}  // namespace detail

const KernelTable& table_for(util::simd::Path path) {
  switch (path) {
    case util::simd::Path::kScalar:
      return kScalarTable;
    case util::simd::Path::kAvx2:
#ifdef AOFT_SIMD_AVX2
      if (util::simd::supported(path)) return detail::avx2_table();
#endif
      break;
    case util::simd::Path::kNeon:
#ifdef AOFT_SIMD_NEON
      if (util::simd::supported(path)) return detail::neon_table();
#endif
      break;
  }
  throw std::runtime_error(
      std::string("kernels: dispatch path '") + util::simd::to_string(path) +
      "' is not available in this build/host (AOFT_SIMD option, architecture, "
      "or cpuid)");
}

const KernelTable& table() {
  if (const KernelTable* t = g_table.load(std::memory_order_acquire)) return *t;
  const util::simd::Path path = util::simd::detect();
  const KernelTable& chosen = table_for(path);
  g_path.store(path, std::memory_order_relaxed);
  g_table.store(&chosen, std::memory_order_release);
  return chosen;
}

util::simd::Path active_path() {
  (void)table();  // ensure detection ran
  return g_path.load(std::memory_order_relaxed);
}

void force_path(util::simd::Path path) {
  const KernelTable& chosen = table_for(path);  // throws when unavailable
  g_path.store(path, std::memory_order_relaxed);
  g_table.store(&chosen, std::memory_order_release);
}

}  // namespace aoft::sort::kernels
