// KeyBufs borrowed over foreign storage (KeyBuf::borrow, sim/pool.h), as an
// shm node reads a received record in place in its segment's log:
//
//   - every mutating operation on a borrowed buffer matches std::vector and
//     leaves the borrowed region byte for byte as it was: resize up and
//     down, reserve, both assigns, append (from itself too), push_back,
//     pop_back, clear, copy and move;
//   - destroying or moving a borrowed buffer never frees the region or
//     hands it to the pool;
//   - own() gives a borrowed buffer storage of its own, so in-place writes
//     stay out of the region.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/pool.h"

namespace aoft::sim {
namespace {

constexpr std::size_t kBorrowed = 24;   // keys the buffer borrows
constexpr std::size_t kRegion = 4096;   // keys of the surrounding region
constexpr std::size_t kAt = 1000;       // where the borrowed keys start
constexpr unsigned char kFill = 0xA5;

// A 0xA5-filled region; the borrowed keys sit well inside it, so a write
// past their end lands in bytes the test checks too.
struct Region {
  std::vector<Key> keys = std::vector<Key>(kRegion);
  Region() { std::memset(keys.data(), kFill, keys.size() * sizeof(Key)); }
  const Key* borrowed() const { return keys.data() + kAt; }
  bool untouched() const {
    const auto* b = reinterpret_cast<const unsigned char*>(keys.data());
    for (std::size_t i = 0; i < keys.size() * sizeof(Key); ++i)
      if (b[i] != kFill) return false;
    return true;
  }
};

// Capacity 0 over foreign storage marks a borrowed KeyBuf.
bool borrowed(const KeyBuf& b) {
  return b.capacity() == 0 && b.data() != nullptr;
}

Key stale() {
  Key k;
  std::memset(&k, kFill, sizeof k);
  return k;
}

struct Op {
  const char* name;
  std::function<void(KeyBuf&, std::vector<Key>&)> apply;
};

std::vector<Op> ops() {
  const std::vector<Key> src{5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  const std::vector<Key> big(100, 3);
  return {
      {"resize up", [](KeyBuf& b, std::vector<Key>& v) { b.resize(40); v.resize(40); }},
      {"resize up with fill",
       [](KeyBuf& b, std::vector<Key>& v) { b.resize(30, -1); v.resize(30, -1); }},
      {"resize to its size",
       [](KeyBuf& b, std::vector<Key>& v) { b.resize(kBorrowed); v.resize(kBorrowed); }},
      {"resize down", [](KeyBuf& b, std::vector<Key>& v) { b.resize(5); v.resize(5); }},
      {"resize to 0", [](KeyBuf& b, std::vector<Key>& v) { b.resize(0); v.resize(0); }},
      {"reserve below its size",
       [](KeyBuf& b, std::vector<Key>& v) { b.reserve(3); v.reserve(3); }},
      {"reserve above its size",
       [](KeyBuf& b, std::vector<Key>& v) { b.reserve(100); v.reserve(100); }},
      {"assign range, shorter",
       [src](KeyBuf& b, std::vector<Key>& v) {
         b.assign(src.begin(), src.end());
         v.assign(src.begin(), src.end());
       }},
      {"assign range, longer",
       [big](KeyBuf& b, std::vector<Key>& v) {
         b.assign(big.begin(), big.end());
         v.assign(big.begin(), big.end());
       }},
      {"assign range, empty",
       [](KeyBuf& b, std::vector<Key>& v) {
         b.assign(v.end(), v.end());
         v.clear();
       }},
      {"assign from itself",
       [](KeyBuf& b, std::vector<Key>& v) {
         b.assign(b.begin() + 2, b.end());
         v.assign(v.begin() + 2, v.end());
       }},
      {"assign n copies",
       [](KeyBuf& b, std::vector<Key>& v) { b.assign(std::size_t{7}, 4); v.assign(7, 4); }},
      {"assign initializer list",
       [](KeyBuf& b, std::vector<Key>& v) { b.assign({1, 2}); v.assign({1, 2}); }},
      {"append",
       [src](KeyBuf& b, std::vector<Key>& v) {
         b.append(src.data(), src.data() + src.size());
         v.insert(v.end(), src.begin(), src.end());
       }},
      {"append nothing",
       [src](KeyBuf& b, std::vector<Key>&) { b.append(src.data(), src.data()); }},
      {"append from itself",
       [](KeyBuf& b, std::vector<Key>& v) {
         b.append(b.begin(), b.end());
         const std::vector<Key> copy = v;
         v.insert(v.end(), copy.begin(), copy.end());
       }},
      {"push_back",
       [](KeyBuf& b, std::vector<Key>& v) { b.push_back(77); v.push_back(77); }},
      {"pop_back then push_back",
       [](KeyBuf& b, std::vector<Key>& v) {
         b.pop_back();
         v.pop_back();
         b.push_back(78);
         v.push_back(78);
       }},
      {"clear then push_back",
       [](KeyBuf& b, std::vector<Key>& v) {
         b.clear();
         v.clear();
         b.push_back(79);
         v.push_back(79);
       }},
      {"copy-assign onto it",
       [src](KeyBuf& b, std::vector<Key>& v) {
         KeyBuf other;
         other.assign(src.begin(), src.end());
         b = other;
         v = src;
       }},
      {"copy it, then grow the copy",
       [](KeyBuf& b, std::vector<Key>& v) {
         KeyBuf copy(b);
         EXPECT_FALSE(borrowed(copy));
         copy.push_back(1);
         std::vector<Key> vcopy = v;
         vcopy.push_back(1);
         EXPECT_TRUE(copy == vcopy);
       }},
      {"move it, then grow the destination",
       [](KeyBuf& b, std::vector<Key>& v) {
         KeyBuf moved(std::move(b));
         EXPECT_TRUE(borrowed(moved));
         EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
         moved.push_back(2);
         b = std::move(moved);
         v.push_back(2);
       }},
      {"own, then write in place",
       [](KeyBuf& b, std::vector<Key>& v) {
         b.own();
         EXPECT_FALSE(borrowed(b));
         b[0] = 123;
         v[0] = 123;
       }},
  };
}

TEST(KeyBufBorrow, EveryMutationMatchesVectorAndLeavesTheRegionUntouched) {
  for (const bool pooled_arena : {false, true}) {
    struct alignas(64) ArenaMem {
      Key keys[8192] = {};
    };
    const auto arena_mem = std::make_unique<ArenaMem>();
    KeyPool pool;
    if (pooled_arena) pool.use_arena(arena_mem->keys, sizeof arena_mem->keys);
    for (const Op& op : ops()) {
      Region region;
      KeyBuf b = KeyBuf::borrow(pool, region.borrowed(), kBorrowed);
      ASSERT_TRUE(borrowed(b));
      ASSERT_EQ(b.capacity(), 0u);
      std::vector<Key> v(kBorrowed, stale());
      ASSERT_TRUE(b == v);
      ASSERT_EQ(b.data(), region.borrowed()) << "read in place";
      op.apply(b, v);
      EXPECT_TRUE(b == v) << op.name;
      EXPECT_TRUE(region.untouched()) << op.name << " wrote the region";
      // Whatever the buffer holds now, growing it stays out of the region.
      b.push_back(1);
      v.push_back(1);
      const std::vector<Key> head(v.begin(), v.begin() + 3);
      b.append(head.data(), head.data() + head.size());
      v.insert(v.end(), head.begin(), head.end());
      EXPECT_TRUE(b == v) << op.name << ", then grown";
      EXPECT_TRUE(region.untouched()) << op.name << ", then grown";
      EXPECT_FALSE(borrowed(b)) << op.name;
    }
  }
}

TEST(KeyBufBorrow, DestroyingOrMovingNeverFreesOrPoolsTheRegion) {
  Region region;
  KeyPool pool;
  {
    KeyBuf b = KeyBuf::borrow(pool, region.borrowed(), kBorrowed);
    KeyBuf moved = std::move(b);
    KeyBuf assigned;
    assigned = std::move(moved);
    EXPECT_TRUE(borrowed(assigned));
    KeyBuf replaced = KeyBuf::borrow(pool, region.borrowed(), 4);
    replaced = std::move(assigned);  // drops a borrow: frees nothing
    EXPECT_EQ(replaced.size(), kBorrowed);
  }
  // A heap region freed by a KeyBuf would trip the allocator (and ASan);
  // a pooled one would now sit on the free list.
  EXPECT_EQ(pool.free_count(), 0u);
  KeyBuf fresh(pool);
  EXPECT_EQ(fresh.capacity(), 0u) << "the pool handed out borrowed storage";
  EXPECT_TRUE(region.untouched());

  // Growth returns nothing to the pool either: the borrow is dropped, not
  // released, and only the buffer's own storage is pooled.
  {
    KeyBuf b = KeyBuf::borrow(pool, region.borrowed(), kBorrowed);
    b.push_back(5);
  }
  ASSERT_EQ(pool.free_count(), 1u);
  KeyBuf reused(pool);
  EXPECT_GE(reused.capacity(), kBorrowed + 1);
  EXPECT_TRUE(reused.data() < region.keys.data() ||
              reused.data() >= region.keys.data() + kRegion);
  EXPECT_TRUE(region.untouched());
}

}  // namespace
}  // namespace aoft::sim
