// Differential fuzzing of the merge-path kernels against the reference loops
// they replace (sort/kernels.h detail::merge_reference and
// detail::phi_f_scan_reference).
//
// merge must write the reference's bytes on every sorted input, and
// phi_f_scan must return the reference's verdict and first-failure index on
// every input at all, whether or not it meets the fast path's conditions.
// The generators aim at the kernel's seams:
//   * sizes around kMergePathCutoff and the four-way split, unequal runs and
//     empty runs;
//   * all-equal and duplicate-heavy inputs, so runs of equal keys straddle
//     the split points;
//   * skewed runs, where a quarter of the output comes from one run and the
//     kernel trims it off before the interleaved loop;
//   * for Φ_F: clean passes (the fast path), planted corruptions, llbs runs
//     out of order and unsorted lbs (the fallback), odd sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sort/kernels.h"
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

constexpr std::size_t kCut = detail::kMergePathCutoff;

// Run lengths around the cutoff (as a total and per run), around multiples
// of four, and well past both.
const std::size_t kRunSizes[] = {0,        1,        2,        3,
                                 kCut / 2 - 1, kCut / 2, kCut / 2 + 1,
                                 kCut - 1, kCut,     kCut + 1,
                                 63,       64,       65,       100,
                                 257,      1000,     4097};

std::vector<Key> random_keys(util::Rng& rng, std::size_t n,
                             std::uint64_t alphabet, Key offset = 0) {
  std::vector<Key> v(n);
  for (auto& k : v) k = offset + static_cast<Key>(rng.next_u64() % alphabet);
  return v;
}

void sort_dir(std::vector<Key>& v, bool ascending) {
  if (ascending)
    std::sort(v.begin(), v.end());
  else
    std::sort(v.begin(), v.end(), std::greater<Key>{});
}

void expect_merge_matches(const std::vector<Key>& a, const std::vector<Key>& b,
                          bool ascending, const char* what) {
  std::vector<Key> want(a.size() + b.size());
  detail::merge_reference(a.data(), a.size(), b.data(), b.size(), ascending,
                          want.data());
  for (const Path p : testable_paths()) {
    std::vector<Key> got(a.size() + b.size(), Key{-777});
    table_for(p).merge(a.data(), a.size(), b.data(), b.size(), ascending,
                       got.data());
    ASSERT_EQ(got, want) << what << " " << util::simd::to_string(p)
                         << " la=" << a.size() << " lb=" << b.size()
                         << " asc=" << ascending;
  }
}

TEST(KernelsFuzzMergePathTest, MergeMatchesReferenceOnRandomRuns) {
  util::Rng rng(0x3e26e1u);
  for (const std::size_t la : kRunSizes)
    for (const std::size_t lb : kRunSizes)
      for (const bool ascending : {true, false})
        for (const std::uint64_t alphabet : {std::uint64_t{1}, std::uint64_t{3},
                                             std::uint64_t{1} << 40}) {
          auto a = random_keys(rng, la, alphabet);
          auto b = random_keys(rng, lb, alphabet);
          sort_dir(a, ascending);
          sort_dir(b, ascending);
          expect_merge_matches(a, b, ascending, "random");
        }
}

TEST(KernelsFuzzMergePathTest, MergeMatchesReferenceOnSkewedRuns) {
  // One run's keys sit wholly or partly above the other's, so whole
  // quarters of the output come from one run: the trimming passes run,
  // possibly several times, before (or instead of) the interleaved loop.
  util::Rng rng(0x5e3edu);
  for (const std::size_t la : {std::size_t{kCut}, std::size_t{100},
                               std::size_t{1000}})
    for (const std::size_t lb : {std::size_t{1}, std::size_t{kCut / 4},
                                 std::size_t{100}, std::size_t{3000}})
      for (const bool ascending : {true, false})
        for (const Key shift : {Key{-2000}, Key{-900}, Key{-500}, Key{0},
                                Key{500}, Key{900}, Key{2000}}) {
          auto a = random_keys(rng, la, 1000);
          auto b = random_keys(rng, lb, 1000, shift);
          sort_dir(a, ascending);
          sort_dir(b, ascending);
          expect_merge_matches(a, b, ascending, "skewed");
          expect_merge_matches(b, a, ascending, "skewed-swapped");
        }
}

TEST(KernelsFuzzMergePathTest, MergeDuplicatesStraddleSplitPoints) {
  // Long runs of one key span every quarter diagonal, on both sides and
  // across the two runs, so each binary search lands inside a tie block.
  util::Rng rng(0xd0bu);
  for (const std::size_t n : {std::size_t{kCut}, std::size_t{kCut + 3},
                              std::size_t{256}, std::size_t{1001}})
    for (const bool ascending : {true, false})
      for (int round = 0; round < 20; ++round) {
        std::vector<Key> a(n), b(n + static_cast<std::size_t>(round));
        const Key tie = static_cast<Key>(rng.next_u64() % 5);
        for (auto& k : a) k = rng.next_u64() % 4 == 0 ? tie - 1 : tie;
        for (auto& k : b) k = rng.next_u64() % 4 == 0 ? tie + 1 : tie;
        sort_dir(a, ascending);
        sort_dir(b, ascending);
        expect_merge_matches(a, b, ascending, "ties");
        expect_merge_matches(b, a, ascending, "ties-swapped");
      }
}

// A Φ_F instance the protocol's clean stage boundary produces: a sorted lbs
// and an llbs holding a random split of it into an ascending lower run
// [0, size/2) and a descending upper run [size/2, size).
struct PhiFCase {
  std::vector<Key> llbs;
  std::vector<Key> lbs;  // in index order, for the given direction
};

PhiFCase clean_phi_f_case(util::Rng& rng, std::size_t size, bool ascending,
                          std::uint64_t alphabet) {
  PhiFCase c;
  c.lbs = random_keys(rng, size, alphabet);
  std::sort(c.lbs.begin(), c.lbs.end());
  c.llbs.resize(size);
  const std::size_t half = size / 2;
  std::size_t lo = 0, hi = size;
  for (const Key k : c.lbs) {
    const bool lower = lo < half && (hi == half || rng.next_u64() % 2 == 0);
    if (lower)
      c.llbs[lo++] = k;
    else
      c.llbs[--hi] = k;
  }
  if (!ascending) std::reverse(c.lbs.begin(), c.lbs.end());
  return c;
}

const std::size_t kPhiSizes[] = {2,        3,    7,        kCut - 1,
                                 kCut,     kCut + 1, 63, 64,
                                 65,       99,   256,      1001,
                                 4096};

void expect_phi_f_matches(const PhiFCase& c, bool ascending, const char* what) {
  const std::size_t n = c.lbs.size();
  const std::int64_t want =
      detail::phi_f_scan_reference(c.llbs.data(), c.lbs.data(), n, ascending);
  for (const Path p : testable_paths())
    ASSERT_EQ(table_for(p).phi_f_scan(c.llbs.data(), c.lbs.data(), n,
                                      ascending),
              want)
        << what << " " << util::simd::to_string(p) << " n=" << n
        << " asc=" << ascending;
}

TEST(KernelsFuzzMergePathTest, PhiFFastPathPassesCleanWindows) {
  util::Rng rng(0xfa57u);
  for (const std::size_t n : kPhiSizes)
    for (const bool ascending : {true, false})
      for (const std::uint64_t alphabet : {std::uint64_t{1}, std::uint64_t{4},
                                           std::uint64_t{1} << 40})
        for (int round = 0; round < 10; ++round) {
          const PhiFCase c = clean_phi_f_case(rng, n, ascending, alphabet);
          ASSERT_EQ(detail::phi_f_scan_reference(c.llbs.data(), c.lbs.data(),
                                                 n, ascending),
                    -1);
          expect_phi_f_matches(c, ascending, "clean");
        }
}

TEST(KernelsFuzzMergePathTest, PhiFPlantedCorruptionsReportReferenceIndex) {
  util::Rng rng(0xc0bbu);
  for (const std::size_t n : kPhiSizes)
    for (const bool ascending : {true, false})
      for (int round = 0; round < 40; ++round) {
        PhiFCase c = clean_phi_f_case(rng, n, ascending, round % 2 ? 6 : 1u << 30);
        const std::size_t at = rng.next_u64() % n;
        switch (round % 4) {
          case 0:  // a value no run holds, lbs order kept where possible
            c.lbs[at] += 1 + static_cast<Key>(rng.next_u64() % 3);
            break;
          case 1:  // a key duplicated over its neighbour (lost key)
            c.lbs[at] = c.lbs[(at + 1) % n];
            break;
          case 2:  // the same, re-sorted: lbs stays directional
            c.lbs[at] += 1 + static_cast<Key>(rng.next_u64() % 3);
            sort_dir(c.lbs, ascending);
            break;
          default:  // llbs corrupted inside a run, runs kept sorted
            c.llbs[at] -= 1;
            std::sort(c.llbs.begin(), c.llbs.begin() + n / 2);
            std::sort(c.llbs.begin() + n / 2, c.llbs.end(), std::greater<Key>{});
            break;
        }
        expect_phi_f_matches(c, ascending, "corrupt");
      }
}

TEST(KernelsFuzzMergePathTest, PhiFFallsBackOnNonBitonicOrUnsortedInput) {
  util::Rng rng(0xbadu);
  for (const std::size_t n : kPhiSizes)
    for (const bool ascending : {true, false})
      for (int round = 0; round < 30; ++round) {
        PhiFCase c = clean_phi_f_case(rng, n, ascending, round % 3 ? 1u << 20 : 3);
        const std::size_t i = rng.next_u64() % n;
        const std::size_t j = rng.next_u64() % n;
        switch (round % 3) {
          case 0:  // llbs no longer bitonic; lbs may still pass the scan
            std::swap(c.llbs[i], c.llbs[j]);
            break;
          case 1:  // lbs out of visit order, same multiset
            std::swap(c.lbs[i], c.lbs[j]);
            break;
          default:  // both
            std::swap(c.llbs[i], c.llbs[j]);
            std::swap(c.lbs[j], c.lbs[(j + 1) % n]);
            break;
        }
        expect_phi_f_matches(c, ascending, "fallback");
      }
}

TEST(KernelsFuzzMergePathTest, PhiFMatchesReferenceOnRawNoise) {
  // Nothing bitonic or sorted at all: every verdict comes from the fallback.
  util::Rng rng(0x7015eu);
  for (const std::size_t n : kPhiSizes)
    for (const bool ascending : {true, false})
      for (int round = 0; round < 20; ++round) {
        PhiFCase c;
        c.llbs = random_keys(rng, n, 3);
        c.lbs = random_keys(rng, n, 3);
        expect_phi_f_matches(c, ascending, "noise");
      }
}

}  // namespace
}  // namespace aoft::sort::kernels
