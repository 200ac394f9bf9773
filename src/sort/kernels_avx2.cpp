// AVX2 kernels: 4 x 64-bit Key lanes.
//
// Compiled with -mavx2 only on x86-64 (src/sort/CMakeLists.txt); selected at
// runtime when cpuid reports AVX2 (util/simd.h).  Contract: bit-identical to
// the scalar table in kernels.cpp — verdicts, first-failure positions and
// merged output bytes — enforced by tests/sort/kernels_fuzz_test.cpp.
//
// Only the wide linear scans are vectorized.  run_break and mismatch stream
// 32 bytes per compare with no cross-iteration dependency and measure 2-4x
// over scalar (bench/micro_predicates kernel sweep).  The pointer-chasing
// kernels — phi_f_scan, merge and the pair check (then std::includes) — were
// prototyped as 4-wide bitonic networks and galloped scans and *lost* to the
// scalar loops on every size (0.1-0.4x): the vector versions serialize on
// permute4x64 and the emulated 64-bit min/max (cmpgt + blendv) with
// data-dependent advances that average under two lanes of useful work per
// vector op.  Those scalar loops ran ~1 ns/element only on the sweep's small
// repeated fixtures, whose branches the predictor learns; at block size on
// fresh inputs the reference merge and Φ_F scan cost 6-8 ns/key.  The scalar
// table's merge, phi_f_scan and pair_check are therefore interleaved chains
// (kernels.cpp) that do not branch on the data.  All three delegate to the
// scalar function pointers outright —
// delegation is invisible under the bit-identity contract, exactly like the
// NEON table (kernels_neon.cpp), and the sweep reports such entries as
// "delegated" rather than inventing a speedup.
// All loads are full, in-bounds 32-byte loads; the kernels are ASan-clean by
// construction.

#include <immintrin.h>

#include <cstddef>

#include "sort/kernels.h"

namespace aoft::sort::kernels {

namespace {

inline __m256i load4(const Key* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// Per-lane predicates as 4-bit masks (bit i = lane i).  Key is std::int64_t,
// so the signed compare is the right order.
inline unsigned gt_mask(__m256i a, __m256i b) {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(a, b))));
}

inline unsigned eq_mask(__m256i a, __m256i b) {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(a, b))));
}

std::size_t run_break_avx2(const Key* v, std::size_t n, bool non_decreasing) {
  if (n < 2) return n;
  const std::size_t pairs = n - 1;
  std::size_t k = 0;
  if (non_decreasing) {
    for (; k + 4 <= pairs; k += 4) {
      const unsigned bad = gt_mask(load4(v + k), load4(v + k + 1));
      if (bad) return k + static_cast<std::size_t>(__builtin_ctz(bad));
    }
    for (; k < pairs; ++k)
      if (v[k + 1] < v[k]) return k;
  } else {
    for (; k + 4 <= pairs; k += 4) {
      const unsigned bad = gt_mask(load4(v + k + 1), load4(v + k));
      if (bad) return k + static_cast<std::size_t>(__builtin_ctz(bad));
    }
    for (; k < pairs; ++k)
      if (v[k + 1] > v[k]) return k;
  }
  return n;
}

std::size_t mismatch_avx2(const Key* a, const Key* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const unsigned ne = eq_mask(load4(a + i), load4(b + i)) ^ 0xFu;
    if (ne) return i + static_cast<std::size_t>(__builtin_ctz(ne));
  }
  for (; i < n; ++i)
    if (a[i] != b[i]) return i;
  return n;
}

}  // namespace

namespace detail {
const KernelTable& avx2_table() {
  // Start from the scalar table and override only the kernels that measure
  // faster: the delegated entries share the scalar function pointers, so
  // callers comparing tables see the delegation instead of a shim.
  static const KernelTable table = [] {
    KernelTable t = scalar_table();
    t.run_break = run_break_avx2;
    t.mismatch = mismatch_avx2;
    return t;
  }();
  return table;
}
}  // namespace detail

}  // namespace aoft::sort::kernels
