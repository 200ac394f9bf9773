// KeyPool / KeyBuf / util::Ring semantics: the storage layer under the
// zero-allocation messaging hot path.  These are pure value-semantics tests;
// the end-to-end "no allocations at steady state" claim lives in
// sort/alloc_regression_test.cpp.

#include "sim/pool.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/ring.h"

namespace aoft::sim {
namespace {

TEST(KeyPoolTest, AcquireReusesReleasedCapacity) {
  KeyPool pool;
  const Key* storage = nullptr;
  {
    KeyBuf b(pool);
    b.reserve(64);
    storage = b.data();
  }
  EXPECT_EQ(pool.free_count(), 1u);

  KeyBuf again(pool);
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_TRUE(again.empty());          // released buffers come back cleared
  EXPECT_GE(again.capacity(), 64u);    // ... but keep their capacity
  EXPECT_EQ(again.data(), storage);    // literally the same storage
}

TEST(KeyPoolTest, ReleaseIgnoresEmptyCapacity) {
  KeyPool pool;
  { KeyBuf never_grown(pool); }
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(KeyPoolTest, FullPoolDropsReleases) {
  // The free list is bounded: past its cap, released storage frees normally
  // instead of growing the pool without limit.
  KeyPool pool;
  {
    std::vector<KeyBuf> bufs;
    for (int i = 0; i < 1000; ++i) {
      bufs.emplace_back(pool);
      bufs.back().assign(8, 1);
    }
  }
  EXPECT_GT(pool.free_count(), 0u);
  EXPECT_LT(pool.free_count(), 1000u);
}

TEST(KeyBufTest, DestructionReturnsStorageToPool) {
  KeyPool pool;
  {
    KeyBuf b(pool);
    b.assign({1, 2, 3});
  }
  EXPECT_EQ(pool.free_count(), 1u);
  // The next pooled buffer picks the storage straight back up.
  KeyBuf c(pool);
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(KeyBufTest, MoveStealsStorageAndPoolMembership) {
  KeyPool pool;
  KeyBuf a(pool);
  a.assign({4, 5, 6});
  KeyBuf b = std::move(a);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): spec'd state
  // `a` no longer owns pooled storage: destroying it must not double-release.
  { KeyBuf sink = std::move(a); }
  EXPECT_EQ(pool.free_count(), 0u);  // only `b` will release, on destruction
}

TEST(KeyBufTest, CopyIsDeepAndUnpooled) {
  KeyPool pool;
  std::size_t released;
  {
    KeyBuf a(pool);
    a.assign({7, 8});
    KeyBuf copy(a);
    copy[0] = 99;
    EXPECT_EQ(a[0], 7);
    released = pool.free_count();
  }
  // Both destroyed: only the pooled original returned to the free list.
  EXPECT_EQ(released, 0u);
  EXPECT_EQ(pool.free_count(), 1u);
}

TEST(KeyBufTest, CopyAssignKeepsDestinationPool) {
  KeyPool pool;
  {
    KeyBuf dst(pool);
    dst.assign(16, Key{0});
    KeyBuf src;
    src.assign({1, 2});
    dst = src;
    EXPECT_EQ(dst.size(), 2u);
    EXPECT_EQ(dst[1], 2);
  }
  EXPECT_EQ(pool.free_count(), 1u);  // dst stayed pooled through assignment
}

TEST(KeyBufTest, ComparesWithVectorsAndBufs) {
  KeyBuf a;
  a.assign({1, 2});
  KeyBuf b;
  b.assign({1, 2});
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a == (std::vector<Key>{1, 2}));
  b.push_back(3);
  EXPECT_FALSE(a == b);
}

TEST(RingTest, FifoAcrossGrowth) {
  util::Ring<int> r;
  for (int i = 0; i < 100; ++i) r.push_back(i);
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(r.empty());
    EXPECT_EQ(r.front(), i);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(RingTest, WrapsWithoutGrowingAtSteadyState) {
  util::Ring<int> r;
  for (int i = 0; i < 4; ++i) r.push_back(i);
  const std::size_t cap = r.capacity();
  // Ping-pong far beyond one capacity's worth of pushes: never grows.
  for (int i = 0; i < 1000; ++i) {
    r.push_back(i);
    r.pop_front();
  }
  EXPECT_EQ(r.capacity(), cap);
  EXPECT_EQ(r.size(), 4u);
}

TEST(RingTest, ClearKeepsCapacityAndReleasesElements) {
  // Elements must be destroyed/reset on clear and pop so pooled buffers
  // inside queued Messages return to their pool immediately.
  util::Ring<std::vector<int>> r;
  r.push_back(std::vector<int>(32, 7));
  r.push_back(std::vector<int>(32, 8));
  const std::size_t cap = r.capacity();
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), cap);
  r.push_back(std::vector<int>{1});
  EXPECT_EQ(r.front().at(0), 1);
}

}  // namespace
}  // namespace aoft::sim
