// The radix kernel behind blockops::sort_dir and the bulk sorts routed
// through it (classify, is_permutation_of).  The suites are named BlockOps*
// so the CI filters that rerun BlockOps under AOFT_SIMD=scalar and the
// sanitizers pick them up too.
//
// sort_dir's output must equal std::sort's on every input: a sort's output
// is unique, so this is the whole contract, on both sides of kRadixCutoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sort/blockops.h"
#include "sort/driver.h"
#include "sort/keys.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

constexpr Key kMin = std::numeric_limits<Key>::min();
constexpr Key kMax = std::numeric_limits<Key>::max();
constexpr std::size_t kCutoff = blockops::kRadixCutoff;

std::vector<Key> std_sorted(std::vector<Key> v, bool ascending) {
  if (ascending)
    std::sort(v.begin(), v.end());
  else
    std::sort(v.begin(), v.end(), std::greater<Key>{});
  return v;
}

// The input shapes the kernel must get right, each of size n.
using Shape = std::pair<std::string, std::vector<Key>>;

std::vector<Shape> shapes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Shape> out;
  auto random32 = util::random_keys(seed, n);
  out.emplace_back("random32", random32);

  std::vector<Key> full(n);
  for (auto& k : full) k = static_cast<Key>(rng.next_u64());
  out.emplace_back("random64", full);

  // Range 2^64 - 1: every digit pass runs.
  std::vector<Key> extremes = random32;
  for (std::size_t i = 0; i < n; i += 7)
    extremes[i] = (i / 7) % 2 ? kMax : kMin;
  out.emplace_back("int64_extremes", extremes);

  out.emplace_back("all_equal", std::vector<Key>(n, -42));
  out.emplace_back("all_min", std::vector<Key>(n, kMin));

  std::vector<Key> two(n);
  for (auto& k : two) k = rng.next_u64() % 2 ? kMax : -3;
  out.emplace_back("two_values", two);

  out.emplace_back("sorted", std_sorted(random32, true));
  out.emplace_back("reverse_sorted", std_sorted(random32, false));
  out.emplace_back("heavy_duplicates",
                   util::random_keys_small_alphabet(seed + 1, n, 5));

  // Keys sharing their low digits but not their high ones: the low passes
  // are skipped, the high ones run.
  std::vector<Key> high(n);
  for (auto& k : high)
    k = static_cast<Key>((rng.next_u64() % 1000) << 40) | 0x7ff;
  out.emplace_back("high_digits_only", high);
  return out;
}

std::vector<std::size_t> sizes() {
  return {kCutoff - 1, kCutoff, kCutoff + 1, 65536};
}

TEST(BlockOpsRadixTest, MatchesStdSortAcrossTheCutoffInBothDirections) {
  for (const std::size_t n : sizes()) {
    for (const auto& [name, input] : shapes(n, 1000 + n)) {
      for (const bool asc : {true, false}) {
        std::vector<Key> got = input;
        sim::KeyPool pool;
        blockops::sort_dir(got, asc, pool);
        EXPECT_EQ(got, std_sorted(input, asc))
            << name << " n=" << n << (asc ? " ascending" : " descending");
      }
    }
  }
}

TEST(BlockOpsRadixTest, AllocatingOverloadMatchesStdSort) {
  for (const std::size_t n : sizes()) {
    const auto input = util::random_keys(77 + n, n);
    for (const bool asc : {true, false}) {
      std::vector<Key> got = input;
      blockops::sort_dir(got, asc);
      EXPECT_EQ(got, std_sorted(input, asc)) << "n=" << n;
    }
  }
}

// Below the cutoff the pool is never touched; from the cutoff up one pooled
// scratch serves sorts of every size, as a node's machine pool does.
TEST(BlockOpsRadixTest, PoolServesScratchOnlyFromTheCutoffUp) {
  sim::KeyPool pool;
  std::vector<Key> small = util::random_keys(5, kCutoff - 1);
  blockops::sort_dir(small, true, pool);
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_TRUE(std::is_sorted(small.begin(), small.end()));

  for (const std::size_t n :
       {std::size_t{4096}, kCutoff, std::size_t{65536}}) {
    const auto input = util::random_keys(6 + n, n);
    std::vector<Key> got = input;
    blockops::sort_dir(got, false, pool);
    EXPECT_EQ(got, std_sorted(input, false)) << "n=" << n;
    EXPECT_EQ(pool.free_count(), 1u) << "n=" << n;
  }
}

// classify's acceptance check is exact above the cutoff too.
TEST(BlockOpsRadixClassifyTest, LargeCorrectRunIsCorrect) {
  const auto input = util::random_keys(31, 4096);
  SortRun run;
  run.output = std_sorted(input, true);
  EXPECT_EQ(classify(run, input), Outcome::kCorrect);
}

TEST(BlockOpsRadixClassifyTest, OneChangedKeyIsSilentWrong) {
  const auto input = util::random_keys(32, 4096);
  SortRun run;
  run.output = std_sorted(input, true);
  run.output[2000] += 1;
  EXPECT_EQ(classify(run, input), Outcome::kSilentWrong);
}

TEST(BlockOpsRadixClassifyTest, OneSwappedAdjacentPairIsSilentWrong) {
  const auto input = util::random_keys(33, 4096);
  SortRun run;
  run.output = std_sorted(input, true);
  ASSERT_NE(run.output[1500], run.output[1501]);
  std::swap(run.output[1500], run.output[1501]);
  EXPECT_EQ(classify(run, input), Outcome::kSilentWrong);
}

TEST(BlockOpsRadixClassifyTest, SizeOffByOneIsSilentWrong) {
  const auto input = util::random_keys(34, 4096);
  SortRun shorter;
  shorter.output = std_sorted(input, true);
  shorter.output.pop_back();
  EXPECT_EQ(classify(shorter, input), Outcome::kSilentWrong);
  SortRun longer;
  longer.output = std_sorted(input, true);
  longer.output.push_back(longer.output.back());
  EXPECT_EQ(classify(longer, input), Outcome::kSilentWrong);
}

TEST(BlockOpsRadixPermutationTest, LargeShuffleIsAPermutation) {
  for (const std::size_t n : sizes()) {
    for (const auto& [name, a] : shapes(n, 2000 + n)) {
      std::vector<Key> b = a;
      std::reverse(b.begin(), b.end());
      std::rotate(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n / 3),
                  b.end());
      EXPECT_TRUE(is_permutation_of(a, b)) << name << " n=" << n;
    }
  }
}

TEST(BlockOpsRadixPermutationTest, LargeNonPermutationsAreRejected) {
  const std::size_t n = 65536;
  const auto a = util::random_keys(41, n);
  std::vector<Key> changed = a;
  changed[n / 2] = kMax;
  EXPECT_FALSE(is_permutation_of(a, changed));

  // Same size, same set of values, different multiplicities.
  std::vector<Key> dup = a;
  dup[0] = dup[1];
  ASSERT_NE(a[0], a[1]);
  EXPECT_FALSE(is_permutation_of(a, dup));

  std::vector<Key> shorter(a.begin(), a.end() - 1);
  EXPECT_FALSE(is_permutation_of(a, shorter));
}

}  // namespace
}  // namespace aoft::sort
