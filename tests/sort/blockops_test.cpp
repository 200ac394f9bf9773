#include "sort/blockops.h"

#include <gtest/gtest.h>

namespace aoft::sort::blockops {
namespace {

// Local convenience over the scratch-based API — production code keeps its
// pooled scratch; only the tests want a fresh vector per call.
std::vector<Key> merged(std::span<const Key> a, std::span<const Key> b,
                        bool ascending) {
  std::vector<Key> out(a.size() + b.size());
  merge_dir_into(a, b, ascending, out);
  return out;
}

TEST(BlockOpsTest, SortDirAscending) {
  std::vector<Key> b{3, 1, 2};
  sort_dir(b, true);
  EXPECT_EQ(b, (std::vector<Key>{1, 2, 3}));
}

TEST(BlockOpsTest, SortDirDescending) {
  std::vector<Key> b{3, 1, 2};
  sort_dir(b, false);
  EXPECT_EQ(b, (std::vector<Key>{3, 2, 1}));
}

TEST(BlockOpsTest, IsSortedDir) {
  EXPECT_TRUE(is_sorted_dir(std::vector<Key>{1, 2, 2, 3}, true));
  EXPECT_FALSE(is_sorted_dir(std::vector<Key>{1, 2, 2, 3}, false));
  EXPECT_TRUE(is_sorted_dir(std::vector<Key>{3, 2, 2, 1}, false));
  EXPECT_TRUE(is_sorted_dir(std::vector<Key>{7}, true));
  EXPECT_TRUE(is_sorted_dir(std::vector<Key>{}, false));
}

TEST(BlockOpsTest, ReverseFlipsDirection) {
  std::vector<Key> b{1, 2, 3};
  reverse_block(b);
  EXPECT_TRUE(is_sorted_dir(b, false));
}

TEST(BlockOpsTest, MergeAscending) {
  const std::vector<Key> a{1, 4, 6}, b{2, 3, 7};
  EXPECT_EQ(merged(a, b, true), (std::vector<Key>{1, 2, 3, 4, 6, 7}));
}

TEST(BlockOpsTest, MergeDescending) {
  const std::vector<Key> a{6, 4, 1}, b{7, 3, 2};
  EXPECT_EQ(merged(a, b, false), (std::vector<Key>{7, 6, 4, 3, 2, 1}));
}

TEST(BlockOpsTest, MergeWithDuplicates) {
  const std::vector<Key> a{2, 2}, b{2, 5};
  EXPECT_EQ(merged(a, b, true), (std::vector<Key>{2, 2, 2, 5}));
}

TEST(BlockOpsTest, SubMultisetPositive) {
  const std::vector<Key> super{1, 2, 2, 5, 9};
  EXPECT_TRUE(kernels::pair_check(super, std::vector<Key>{2, 5}, true));
  EXPECT_TRUE(kernels::pair_check(super, std::vector<Key>{2, 2}, true));
  EXPECT_TRUE(kernels::pair_check(super, std::vector<Key>{}, true));
}

TEST(BlockOpsTest, SubMultisetRespectsMultiplicity) {
  const std::vector<Key> super{1, 2, 5};
  EXPECT_FALSE(kernels::pair_check(super, std::vector<Key>{2, 2}, true));
}

TEST(BlockOpsTest, SubMultisetDescending) {
  const std::vector<Key> super{9, 5, 2, 1};
  EXPECT_TRUE(kernels::pair_check(super, std::vector<Key>{9, 1}, false));
  EXPECT_FALSE(kernels::pair_check(super, std::vector<Key>{9, 3}, false));
}

// The pair check also rejects a pair that is not sorted in its direction,
// even when it holds the contributed block.
TEST(BlockOpsTest, PairCheckRejectsUnsortedPair) {
  const std::vector<Key> mine{2, 5};
  EXPECT_TRUE(kernels::pair_check(std::vector<Key>{1, 2, 5, 7}, mine, true));
  EXPECT_FALSE(kernels::pair_check(std::vector<Key>{2, 1, 5, 7}, mine, true));
  EXPECT_FALSE(kernels::pair_check(std::vector<Key>{1, 2, 5, 7}, mine, false));
}

}  // namespace
}  // namespace aoft::sort::blockops
