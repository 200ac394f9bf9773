// Vectorized kernels under the predicates and block operations.
//
// The paper prices S_FT's fault tolerance almost entirely in predicate
// evaluations and block merges (Thm 4) — these kernels ARE that cost,
// flattened to contiguous Key (= std::int64_t) arrays:
//
//   run_break    Φ_P bitonic-run scan (first out-of-order pair)
//   mismatch     Φ_C redundant-copy word compare (first differing word)
//   phi_f_scan   Φ_F completeness check (two-run head matching)
//   merge        blockops merge-split (two directional runs -> one)
//   pair_check   the passive partner's exchange check: the returned pair is
//                sorted and contains the block it contributed, in one pass
//
// Each has a scalar reference plus AVX2 (4x64) and NEON (2x64)
// implementations selected once at runtime through a function-pointer table
// (util/simd.h).  The dispatch contract is strict bit-identity: every path
// returns the same verdicts, the same first-failure positions and the same
// output bytes as the scalar reference, on every input — enforced by
// tests/sort/kernels_fuzz_test.cpp across all paths the host can execute.
// Both SIMD tables vectorize the wide scans (run_break, mismatch) and
// delegate the pointer-chasing kernels to scalar — measured, not assumed:
// the 4-wide bitonic merge and galloped scans lost to the scalar loops on
// every size (see kernels_avx2.cpp and bench/micro_predicates).  Those
// loops run ~1 ns/element only on small repeated fixtures whose branches
// the predictor learns; at block size on fresh inputs the reference merge
// and Φ_F scan mispredict and cost 6-8 ns/key.  The scalar merge,
// phi_f_scan and pair_check are therefore branchless interleaved chains:
// the first two merge-path walks bit-identical to the reference loops kept
// in detail:: below, the last a greedy subsequence match from both ends,
// whose verdict is `is_sorted && std::includes`.  Delegation is indistinguishable by the
// contract above.
//
// Certificates.  The merge-path walks read within their runs only when the
// runs are sorted, so merge and Φ_F scan their runs before walking them.  A
// caller that has already proven a run sorted — in the direction the kernel
// needs, by a scan that passed on the very bytes it now passes in — hands
// the kernel a Proven certificate and the kernel skips that scan.  A
// certificate may only skip a scan that already passed on the same bytes
// (docs/PROTOCOL.md §12): then it changes no verdict, index or output byte.
// A false one lets a walk read past its run and changes both.  Every run a
// certificate does not cover is scanned as before.
//
// Kernels take raw pointers, not spans, so the dispatch table stays a plain
// struct of function pointers; the inline span wrappers below are the
// intended call surface.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/pool.h"
#include "util/simd.h"

namespace aoft::sort::kernels {

using sim::Key;

// The runs of a two-run kernel call that the caller has already proven
// sorted in the direction the kernel reads them (see "Certificates" above).
struct Proven {
  bool first = false;
  bool second = false;
};

struct KernelTable {
  // Index of the first k with the pair (v[k], v[k+1]) out of order for the
  // given direction, or n when the whole array is a clean run (n <= 1 trivially
  // is).
  std::size_t (*run_break)(const Key* v, std::size_t n, bool non_decreasing);

  // Index of the first a[i] != b[i], or n when the prefixes agree.
  std::size_t (*mismatch)(const Key* a, const Key* b, std::size_t n);

  // Φ_F completeness scan (sort/predicates.h): visit `lbs` in ascending value
  // order and consume the matching head of llbs' non-decreasing run [0, size/2)
  // — preferred — or non-increasing run [size/2, size).  Returns the
  // visit-order index of the first key matching neither head, or -1 when lbs
  // is complete w.r.t. llbs.  Requires size >= 2 (the caller handles 0/1).
  std::int64_t (*phi_f_scan)(const Key* llbs, const Key* lbs, std::size_t size,
                             bool ascending);

  // Merge two runs sorted in direction `ascending` into out[0, la+lb).
  // `out` must not alias the inputs.  `proven` certifies a (first) and b
  // (second) sorted; unsorted runs get the reference merge's bytes.
  void (*merge)(const Key* a, std::size_t la, const Key* b, std::size_t lb,
                bool ascending, Key* out, Proven proven);

  // True iff `merged` is sorted in direction `ascending` and `mine` is a
  // sub-multiset of it: the verdict of is_sorted && std::includes(merged,
  // mine) on every input, sorted `mine` or not, in one pass over `merged`.
  bool (*pair_check)(const Key* merged, std::size_t lm, const Key* mine,
                     std::size_t lb, bool ascending);
};

// The table for the active dispatch path.  The path is resolved once per
// process on first use (util::simd::detect(), honoring AOFT_SIMD) and then
// only changes through force_path().
const KernelTable& table();

// The table for a specific path; throws std::runtime_error when that path is
// not compiled in or not executable on this host.
const KernelTable& table_for(util::simd::Path path);

// The path table() dispatches to.
util::simd::Path active_path();

// Pin dispatch to `path` (tests, benches, --simd= flag).  Throws like
// table_for on an unavailable path.  Not safe to call while kernels run on
// other threads — force before fanning work out.
void force_path(util::simd::Path path);

namespace detail {
// Per-path tables.  scalar_table() always exists; the SIMD tables are defined
// only when their translation unit is compiled in (AOFT_SIMD CMake option +
// matching target arch) and are referenced only under the matching macro.
const KernelTable& scalar_table();
const KernelTable& avx2_table();
const KernelTable& neon_table();

// The reference loops the scalar table's merge and phi_f_scan reproduce bit
// for bit: std::merge and the greedy Φ_F scan.  The kernels run them below
// kMergePathCutoff total keys (on fresh inputs the merge-path versions break
// even at 16 keys and win from 32), on unsorted merge operands, and, for
// Φ_F, on any input that is not a clean pass, so every first-failure index
// is the reference's.
std::int64_t phi_f_scan_reference(const Key* llbs, const Key* lbs,
                                  std::size_t size, bool ascending);
void merge_reference(const Key* a, std::size_t la, const Key* b,
                     std::size_t lb, bool ascending, Key* out);
inline constexpr std::size_t kMergePathCutoff = 32;
}  // namespace detail

// ---- span-based call surface -------------------------------------------

inline std::size_t run_break(std::span<const Key> v, bool non_decreasing) {
  return table().run_break(v.data(), v.size(), non_decreasing);
}

// True iff `v` is one clean run in the given direction.
inline bool is_sorted_run(std::span<const Key> v, bool non_decreasing) {
  return run_break(v, non_decreasing) == v.size();
}

inline std::size_t mismatch(std::span<const Key> a, std::span<const Key> b) {
  return table().mismatch(a.data(), b.data(), a.size());
}

inline std::int64_t phi_f_scan(std::span<const Key> llbs,
                               std::span<const Key> lbs, bool ascending) {
  return table().phi_f_scan(llbs.data(), lbs.data(), lbs.size(), ascending);
}

// Φ_F's merge compare, the core of phi_f_scan's fast path: true iff `lbs`,
// read in ascending visit order (forward when `ascending`, backward
// otherwise), is the ascending merge of llbs' lower run [0, size/2) and its
// upper run [size/2, size) read backward.  When it holds, lbs is sorted in
// direction `ascending`.  Requires size >= detail::kMergePathCutoff and both
// runs proven sorted (lower non-decreasing, upper non-increasing): the walk
// has no bounds checks.  Not dispatched: phi_f_scan runs this same walk on
// every path.
bool is_runs_merge(std::span<const Key> llbs, std::span<const Key> lbs,
                   bool ascending);

// The merge is_runs_merge compares against, written: `out` (runs.size()
// keys, aliasing nothing of `runs`) receives the ascending merge of runs'
// lower run [0, size/2) and its upper run [size/2, size) read backward,
// forward when `ascending` and backward otherwise, so it ends sorted in that
// direction.  Requires both runs sorted (lower non-decreasing, upper
// non-increasing).  The exact oracle (sort/keys.h) merges its parts with it.
void merge_runs(std::span<const Key> runs, std::span<Key> out, bool ascending);

inline void merge(std::span<const Key> a, std::span<const Key> b,
                  bool ascending, std::span<Key> out, Proven proven = {}) {
  table().merge(a.data(), a.size(), b.data(), b.size(), ascending, out.data(),
                proven);
}

inline bool pair_check(std::span<const Key> merged, std::span<const Key> mine,
                       bool ascending) {
  return table().pair_check(merged.data(), merged.size(), mine.data(),
                            mine.size(), ascending);
}

}  // namespace aoft::sort::kernels
