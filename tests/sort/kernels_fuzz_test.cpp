// Differential fuzzing of the SIMD kernel tables against the scalar
// reference (sort/kernels.h).
//
// The dispatch contract is bit-identity, not mere verdict agreement: for
// every kernel, every compiled-and-executable path must return the same
// value — including the exact first-failure position for run_break/mismatch/
// phi_f_scan and the exact output bytes for merge — on the same input.  The
// generators below deliberately cover the shapes where a vector
// implementation can diverge from a scalar one:
//   * sizes 0, 1 and every length around the 4-lane (AVX2) and 2-lane (NEON)
//     boundaries, so tails and the small-size scalar fallbacks are hit;
//   * duplicate-heavy alphabets, because the Φ_F scalar reference prefers the
//     l-side run on equal keys and a vectorized bulk advance must reproduce
//     that tie-break exactly;
//   * violations planted at every position, including lane 0, the last lane
//     of a vector and the scalar tail.

#include "sort/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.h"

namespace aoft::sort::kernels {
namespace {

using util::simd::Path;

std::vector<Path> testable_paths() {
  std::vector<Path> paths{Path::kScalar};
  for (const Path p : {Path::kAvx2, Path::kNeon})
    if (util::simd::supported(p)) paths.push_back(p);
  return paths;
}

// Sizes straddling lane-width multiples for both vector widths, plus the
// degenerate and fallback-threshold cases.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,  12, 15,
                              16, 17, 23, 31, 32, 33, 63, 64, 65, 100, 257};

std::vector<Key> random_keys(util::Rng& rng, std::size_t n,
                             std::uint64_t alphabet) {
  std::vector<Key> v(n);
  for (auto& k : v) k = static_cast<Key>(rng.next_u64() % alphabet);
  return v;
}

TEST(KernelsFuzzTest, RunBreakMatchesScalarEverywhere) {
  const auto paths = testable_paths();
  const auto& scalar = detail::scalar_table();
  util::Rng rng(0x5eedu);
  for (const std::size_t n : kSizes) {
    for (const bool non_dec : {true, false}) {
      for (int round = 0; round < 40; ++round) {
        // Mix clean runs (no break), runs broken at a planted position, and
        // raw random noise (breaks everywhere).
        std::vector<Key> v = random_keys(rng, n, round % 3 == 0 ? 4 : 1u << 20);
        if (round % 4 == 1) {
          std::sort(v.begin(), v.end());
          if (!non_dec) std::reverse(v.begin(), v.end());
          if (n >= 2 && round % 8 == 5) {
            // Plant a single break at a random pair.
            const std::size_t at = rng.next_u64() % (n - 1);
            v[at + 1] = non_dec ? v[at] - 1 : v[at] + 1;
          }
        }
        const std::size_t want = scalar.run_break(v.data(), n, non_dec);
        for (const Path p : paths)
          ASSERT_EQ(table_for(p).run_break(v.data(), n, non_dec), want)
              << util::simd::to_string(p) << " n=" << n << " dir=" << non_dec;
      }
    }
  }
}

TEST(KernelsFuzzTest, MismatchMatchesScalarEverywhere) {
  const auto paths = testable_paths();
  const auto& scalar = detail::scalar_table();
  util::Rng rng(0xabcdu);
  for (const std::size_t n : kSizes) {
    for (int round = 0; round < 40; ++round) {
      std::vector<Key> a = random_keys(rng, n, 1u << 16);
      std::vector<Key> b = a;
      if (n > 0 && round % 3 != 0) {
        // Flip one word (any position, including 0 and n-1) or a suffix.
        const std::size_t at = rng.next_u64() % n;
        if (round % 3 == 1) {
          b[at] ^= 1;
        } else {
          for (std::size_t i = at; i < n; ++i) b[i] += 7;
        }
      }
      const std::size_t want = scalar.mismatch(a.data(), b.data(), n);
      for (const Path p : paths)
        ASSERT_EQ(table_for(p).mismatch(a.data(), b.data(), n), want)
            << util::simd::to_string(p) << " n=" << n;
    }
  }
}

// Build a (llbs, lbs) pair the way the protocol does: llbs is a bitonic
// window (ascending half then descending half), lbs is some directional
// permutation-or-corruption of it.
struct PhiFCase {
  std::vector<Key> llbs;
  std::vector<Key> lbs;
};

PhiFCase make_phi_f_case(util::Rng& rng, std::size_t n, bool ascending,
                         bool corrupt) {
  PhiFCase c;
  // Duplicate-heavy alphabet: equal keys across the half boundary are the
  // tie-break hazard for a bulk u-side advance.
  const std::uint64_t alphabet = std::max<std::uint64_t>(2, n / 2);
  c.llbs = random_keys(rng, n, alphabet);
  const std::size_t half = n / 2;
  std::sort(c.llbs.begin(), c.llbs.begin() + half);
  std::sort(c.llbs.begin() + half, c.llbs.end(), std::greater<Key>{});
  c.lbs = c.llbs;
  std::sort(c.lbs.begin(), c.lbs.end());
  if (!ascending) std::reverse(c.lbs.begin(), c.lbs.end());
  if (corrupt && n > 0) {
    const std::size_t at = rng.next_u64() % n;
    c.lbs[at] += 1 + static_cast<Key>(rng.next_u64() % 3);
    // Re-sort so lbs is still directional (phi_f's precondition) but no
    // longer a permutation of llbs.
    std::sort(c.lbs.begin(), c.lbs.end());
    if (!ascending) std::reverse(c.lbs.begin(), c.lbs.end());
  }
  return c;
}

TEST(KernelsFuzzTest, PhiFScanMatchesScalarEverywhere) {
  const auto paths = testable_paths();
  const auto& scalar = detail::scalar_table();
  util::Rng rng(0xf00du);
  for (const std::size_t n : kSizes) {
    if (n < 2) continue;  // the kernel contract starts at size 2
    for (const bool ascending : {true, false}) {
      for (int round = 0; round < 60; ++round) {
        const PhiFCase c =
            make_phi_f_case(rng, n, ascending, round % 2 == 1);
        const std::int64_t want =
            scalar.phi_f_scan(c.llbs.data(), c.lbs.data(), n, ascending);
        for (const Path p : paths)
          ASSERT_EQ(table_for(p).phi_f_scan(c.llbs.data(), c.lbs.data(), n,
                                            ascending),
                    want)
              << util::simd::to_string(p) << " n=" << n << " asc=" << ascending
              << " round=" << round;
      }
    }
  }
}

TEST(KernelsFuzzTest, MergeOutputBytesMatchScalarEverywhere) {
  const auto paths = testable_paths();
  const auto& scalar = detail::scalar_table();
  util::Rng rng(0x4242u);
  for (const std::size_t la : kSizes) {
    for (const std::size_t lb : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                 std::size_t{4}, std::size_t{7}, std::size_t{16},
                                 std::size_t{33}, la}) {
      for (const bool ascending : {true, false}) {
        // Duplicate-heavy so stability differences would be *observable* if
        // keys carried identity — they do not, which is exactly why the
        // bitonic-network merge can be byte-identical to std::merge.
        std::vector<Key> a = random_keys(rng, la, 8);
        std::vector<Key> b = random_keys(rng, lb, 8);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        if (!ascending) {
          std::reverse(a.begin(), a.end());
          std::reverse(b.begin(), b.end());
        }
        std::vector<Key> want(la + lb);
        scalar.merge(a.data(), la, b.data(), lb, ascending, want.data(), {});
        for (const Path p : paths) {
          std::vector<Key> got(la + lb, Key{-777});
          table_for(p).merge(a.data(), la, b.data(), lb, ascending, got.data(),
                             {});
          ASSERT_EQ(got, want) << util::simd::to_string(p) << " la=" << la
                               << " lb=" << lb << " asc=" << ascending;
        }
      }
    }
  }
}

TEST(KernelsFuzzTest, IncludesMatchesScalarEverywhere) {
  const auto paths = testable_paths();
  const auto& scalar = detail::scalar_table();
  util::Rng rng(0x1cebeefu);
  for (const std::size_t ls : kSizes) {
    for (const bool ascending : {true, false}) {
      for (int round = 0; round < 30; ++round) {
        std::vector<Key> super = random_keys(rng, ls, 16);
        std::sort(super.begin(), super.end());
        // sub: a true sub-multiset, or a perturbed one (wrong value or excess
        // multiplicity).
        std::vector<Key> sub;
        for (const Key k : super)
          if (rng.next_u64() % 3 == 0) sub.push_back(k);
        if (round % 2 == 1 && !sub.empty()) {
          sub[rng.next_u64() % sub.size()] += 1;
          std::sort(sub.begin(), sub.end());
        }
        if (!ascending) {
          std::reverse(super.begin(), super.end());
          std::reverse(sub.begin(), sub.end());
        }
        const bool want = scalar.pair_check(super.data(), ls, sub.data(),
                                            sub.size(), ascending);
        for (const Path p : paths)
          ASSERT_EQ(table_for(p).pair_check(super.data(), ls, sub.data(),
                                            sub.size(), ascending),
                    want)
              << util::simd::to_string(p) << " ls=" << ls;
      }
    }
  }
}

// The public dispatch layer: force_path redirects table(), unavailable paths
// throw, and the env-driven default resolves to a supported path.
TEST(KernelsFuzzTest, DispatchControlForcesAndRejects) {
  const Path original = active_path();
  for (const Path p : testable_paths()) {
    force_path(p);
    EXPECT_EQ(active_path(), p);
    EXPECT_EQ(&table(), &table_for(p));
  }
  for (const Path p : {Path::kAvx2, Path::kNeon})
    if (!util::simd::supported(p)) EXPECT_THROW(force_path(p), std::runtime_error);
  force_path(original);
  EXPECT_TRUE(util::simd::supported(active_path()));
}

}  // namespace
}  // namespace aoft::sort::kernels
