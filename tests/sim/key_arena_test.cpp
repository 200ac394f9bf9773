// KeyArena and the arena-backed KeyPool (sim/pool.h):
//
//   - a KeyBuf whose storage comes from an arena full of stale bytes (0xA5)
//     behaves exactly like std::vector under resize/assign/append/reserve/
//     push_back/pop_back/clear: no stale byte is ever visible;
//   - the arena is first-fit: a freed extent is reused, and freed neighbours
//     coalesce back into one extent;
//   - a full arena falls back to the heap, so its size affects only speed.

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "sim/pool.h"
#include "util/rng.h"

namespace aoft::sim {
namespace {

// A shared anonymous region pre-filled with 0xA5, as a recycled segment's
// arena holds the previous job's keys.
class StaleRegion {
 public:
  explicit StaleRegion(std::size_t bytes) : bytes_(bytes) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap");
    base_ = p;
    std::memset(base_, 0xA5, bytes_);
  }
  ~StaleRegion() { munmap(base_, bytes_); }
  StaleRegion(const StaleRegion&) = delete;
  StaleRegion& operator=(const StaleRegion&) = delete;

  void* base() const { return base_; }
  std::size_t bytes() const { return bytes_; }

 private:
  void* base_;
  std::size_t bytes_;
};

constexpr std::size_t kLineKeys = 8;  // the arena's allocation unit

TEST(KeyArenaTest, ArenaBackedBufsMatchVectorsOverStaleBytes) {
  StaleRegion region(std::size_t{1} << 20);
  KeyPool pool;
  pool.use_arena(region.base(), region.bytes());
  const KeyArena& arena = *pool.arena();

  // Several buffers live at once, so storage is reused across them.
  constexpr int kBufs = 4;
  std::vector<KeyBuf> bufs;
  for (int b = 0; b < kBufs; ++b) bufs.emplace_back(pool);
  std::vector<std::vector<Key>> want(kBufs);
  util::Rng rng(7);
  std::vector<Key> src;
  bool any_in_arena = false;
  for (int step = 0; step < 4000; ++step) {
    const auto b = static_cast<std::size_t>(rng.next_below(kBufs));
    KeyBuf& got = bufs[b];
    std::vector<Key>& ref = want[b];
    const std::size_t n = rng.next_below(3) == 0 ? rng.next_below(3000)
                                                 : rng.next_below(40);
    src.resize(n);
    for (Key& k : src) k = static_cast<Key>(rng.next_below(1000));
    const auto fill = static_cast<Key>(step);
    switch (rng.next_below(10)) {
      case 0: got.resize(n); ref.resize(n); break;
      case 1: got.resize(n, fill); ref.resize(n, fill); break;
      case 2: got.assign(src.begin(), src.end()); ref.assign(src.begin(), src.end()); break;
      case 3: got.assign(n, fill); ref.assign(n, fill); break;
      case 4:
        got.append(src.data(), src.data() + n);
        ref.insert(ref.end(), src.begin(), src.end());
        break;
      case 5: got.reserve(n); ref.reserve(n); break;
      case 6: got.push_back(fill); ref.push_back(fill); break;
      case 7:
        if (!ref.empty()) {
          got.pop_back();
          ref.pop_back();
        }
        break;
      case 8: got.clear(); ref.clear(); break;
      case 9:  // retire the buffer and take a pooled one back
        bufs[b] = KeyBuf(pool);
        ref.clear();
        break;
    }
    ASSERT_TRUE(got == ref) << "step " << step;
    ASSERT_GE(got.capacity(), got.size());
    any_in_arena = any_in_arena || arena.owns(got.data());
  }
  EXPECT_TRUE(any_in_arena);
}

TEST(KeyArenaTest, AppendFromItselfAcrossGrowth) {
  StaleRegion region(std::size_t{1} << 16);
  KeyPool pool;
  pool.use_arena(region.base(), region.bytes());
  KeyBuf b(pool);
  b.assign({1, 2, 3});
  std::vector<Key> want{1, 2, 3};
  for (int i = 0; i < 6; ++i) {  // the source is the storage being replaced
    b.append(b.begin(), b.end());
    want.insert(want.end(), want.begin(), want.end());
  }
  EXPECT_TRUE(b == want);
  b.assign(b.begin() + 1, b.end());  // shrinking self-assign: no growth
  want.assign(want.begin() + 1, want.end());
  EXPECT_TRUE(b == want);
}

TEST(KeyArenaTest, FreedExtentIsReusedFirstFit) {
  StaleRegion region(std::size_t{1} << 16);
  KeyArena arena(region.base(), region.bytes());
  Key* a = arena.allocate(100);
  Key* b = arena.allocate(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a, static_cast<Key*>(region.base()));  // first fit from the start
  arena.deallocate(a, 100);
  Key* c = arena.allocate(50);  // fits in a's hole: reuses it
  EXPECT_EQ(c, a);
  Key* d = arena.allocate(200);  // does not: goes past b
  EXPECT_GT(d, b);
  arena.deallocate(b, 100);
  arena.deallocate(c, 50);
  arena.deallocate(d, 200);
  EXPECT_EQ(arena.free_keys(), arena.capacity_keys());
}

TEST(KeyArenaTest, FreedNeighboursCoalesce) {
  StaleRegion region(64 * kLineKeys * sizeof(Key));
  KeyArena arena(region.base(), region.bytes());
  const std::size_t quarter = arena.capacity_keys() / 4;
  Key* a = arena.allocate(quarter);
  Key* b = arena.allocate(quarter);
  Key* c = arena.allocate(quarter);
  Key* rest = arena.allocate(arena.capacity_keys() - 3 * quarter);
  ASSERT_NE(rest, nullptr);
  EXPECT_EQ(arena.allocate(1), nullptr) << "the arena is full";
  // Free the outer two first, then the middle: all three must merge with
  // each other, and with `rest` once it goes too.
  arena.deallocate(a, quarter);
  arena.deallocate(c, quarter);
  EXPECT_EQ(arena.allocate(2 * quarter), nullptr) << "a and c are not adjacent";
  arena.deallocate(b, quarter);
  Key* whole = arena.allocate(3 * quarter);
  EXPECT_EQ(whole, a) << "a, b and c coalesced into one extent";
  arena.deallocate(whole, 3 * quarter);
  arena.deallocate(rest, arena.capacity_keys() - 3 * quarter);
  EXPECT_EQ(arena.allocate(arena.capacity_keys()), a);
}

TEST(KeyArenaTest, FullArenaFallsBackToTheHeap) {
  StaleRegion region(4096);  // 512 keys
  KeyPool pool;
  pool.use_arena(region.base(), region.bytes());
  const KeyArena& arena = *pool.arena();
  KeyBuf small(pool);
  small.assign(300, 7);
  EXPECT_TRUE(arena.owns(small.data()));
  KeyBuf big(pool);
  big.assign(1000, 9);  // beyond what is left: heap storage
  EXPECT_FALSE(arena.owns(big.data()));
  EXPECT_TRUE(big == std::vector<Key>(1000, 9));
  small.resize(2000, 3);  // grows out of the arena, contents kept
  EXPECT_FALSE(arena.owns(small.data()));
  std::vector<Key> want(300, 7);
  want.resize(2000, 3);
  EXPECT_TRUE(small == want);
  EXPECT_EQ(arena.free_keys(), arena.capacity_keys())
      << "growing out of the arena returned its extent";
}

}  // namespace
}  // namespace aoft::sim
