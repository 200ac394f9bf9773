// NEON kernels: 2 x 64-bit Key lanes (aarch64 only).
//
// Advanced SIMD is architecturally baseline on aarch64, so this TU needs no
// extra compile flags — it is simply only added to the build on that target
// (src/sort/CMakeLists.txt).  With 2-wide vectors the wins are in the wide
// linear scans; run_break and mismatch are vectorized here, while the
// pointer-chasing kernels (phi_f_scan, merge, pair_check) delegate to the
// scalar reference — delegation is invisible under the bit-identity contract
// (tests/sort/kernels_fuzz_test.cpp exercises this table like any other).

#include <arm_neon.h>

#include <cstddef>

#include "sort/kernels.h"

namespace aoft::sort::kernels {

namespace {

std::size_t run_break_neon(const Key* v, std::size_t n, bool non_decreasing) {
  if (n < 2) return n;
  const std::size_t pairs = n - 1;
  std::size_t k = 0;
  for (; k + 2 <= pairs; k += 2) {
    const int64x2_t x = vld1q_s64(v + k);
    const int64x2_t y = vld1q_s64(v + k + 1);
    const uint64x2_t bad = non_decreasing ? vcgtq_s64(x, y) : vcgtq_s64(y, x);
    if (vgetq_lane_u64(bad, 0)) return k;
    if (vgetq_lane_u64(bad, 1)) return k + 1;
  }
  for (; k < pairs; ++k) {
    const bool bad = non_decreasing ? v[k + 1] < v[k] : v[k + 1] > v[k];
    if (bad) return k;
  }
  return n;
}

std::size_t mismatch_neon(const Key* a, const Key* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t eq = vceqq_s64(vld1q_s64(a + i), vld1q_s64(b + i));
    if (!vgetq_lane_u64(eq, 0)) return i;
    if (!vgetq_lane_u64(eq, 1)) return i + 1;
  }
  for (; i < n; ++i)
    if (a[i] != b[i]) return i;
  return n;
}

std::int64_t phi_f_scan_neon(const Key* llbs, const Key* lbs, std::size_t size,
                             bool ascending) {
  return detail::scalar_table().phi_f_scan(llbs, lbs, size, ascending);
}

void merge_neon(const Key* a, std::size_t la, const Key* b, std::size_t lb,
                bool ascending, Key* out, Proven proven) {
  detail::scalar_table().merge(a, la, b, lb, ascending, out, proven);
}

bool pair_check_neon(const Key* merged, std::size_t lm, const Key* mine,
                     std::size_t lb, bool ascending) {
  return detail::scalar_table().pair_check(merged, lm, mine, lb, ascending);
}

constexpr KernelTable kNeonTable{run_break_neon, mismatch_neon,
                                 phi_f_scan_neon, merge_neon, pair_check_neon};

}  // namespace

namespace detail {
const KernelTable& neon_table() { return kNeonTable; }
}  // namespace detail

}  // namespace aoft::sort::kernels
