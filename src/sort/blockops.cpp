#include "sort/blockops.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

#include "sort/kernels.h"

namespace aoft::sort::blockops {

namespace {

constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kBuckets - 1;
constexpr int kMaxDigits = (64 + kDigitBits - 1) / kDigitBits;

// LSD radix sort of keys[0, n) in direction `ascending`, ping-ponging through
// scratch[0, n).  Each key is sorted by its rank u = key - min (ascending) or
// max - key (descending), taken in uint64: that order-preserving map needs no
// sign flip and no reverse pass, and only bit_width(max - min) bits of u are
// sorted.  One pass builds every digit histogram; a digit every key shares is
// skipped.  Counts are 32-bit: the caller bounds n.
void radix_sort(Key* keys, std::size_t n, bool ascending, Key* scratch) {
  const auto [lo, hi] = std::minmax_element(keys, keys + n);
  const auto ulo = static_cast<std::uint64_t>(*lo);
  const auto uhi = static_cast<std::uint64_t>(*hi);
  const int digits = (std::bit_width(uhi - ulo) + kDigitBits - 1) / kDigitBits;
  if (digits == 0) return;  // all keys equal

  // max - k == ~k - ~max in uint64, so one xor and one subtract serve both
  // directions without a branch in the loops.
  const std::uint64_t flip = ascending ? 0 : ~std::uint64_t{0};
  const std::uint64_t base = ascending ? ulo : ~uhi;
  const auto rank = [&](Key k) {
    return (static_cast<std::uint64_t>(k) ^ flip) - base;
  };

  // Only rows [0, digits) are zeroed, and no other row is read.
  std::uint32_t count[kMaxDigits][kBuckets];
  std::memset(count, 0, sizeof(count[0]) * static_cast<std::size_t>(digits));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t u = rank(keys[i]);
    for (int d = 0; d < digits; ++d)
      ++count[d][(u >> (d * kDigitBits)) & kDigitMask];
  }

  Key* src = keys;
  Key* dst = scratch;
  for (int d = 0; d < digits; ++d) {
    const int shift = d * kDigitBits;
    std::uint32_t* offset = count[d];
    if (offset[(rank(src[0]) >> shift) & kDigitMask] == n) continue;
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b)
      sum += std::exchange(offset[b], sum);  // counts -> bucket starts
    for (std::size_t i = 0; i < n; ++i) {
      const Key k = src[i];
      dst[offset[(rank(k) >> shift) & kDigitMask]++] = k;
    }
    std::swap(src, dst);
  }
  if (src != keys) std::memcpy(keys, src, n * sizeof(Key));
}

}  // namespace

void sort_dir(std::span<Key> block, bool ascending, sim::KeyPool& pool) {
  const std::size_t n = block.size();
  if (n < kRadixCutoff || n > std::numeric_limits<std::uint32_t>::max()) {
    if (ascending)
      std::sort(block.begin(), block.end());
    else
      std::sort(block.begin(), block.end(), std::greater<Key>{});
    return;
  }
  sim::KeyBuf scratch(pool);
  scratch.resize(n);
  radix_sort(block.data(), n, ascending, scratch.data());
}

void sort_dir(std::span<Key> block, bool ascending) {
  sim::KeyPool pool;
  sort_dir(block, ascending, pool);
}

bool is_sorted_dir(std::span<const Key> block, bool ascending) {
  return ascending ? is_non_decreasing(block) : is_non_increasing(block);
}

void reverse_block(std::span<Key> block) {
  std::reverse(block.begin(), block.end());
}

void merge_dir_into(std::span<const Key> a, std::span<const Key> b,
                    bool ascending, std::span<Key> out, kernels::Proven proven) {
  assert(is_sorted_dir(a, ascending) && is_sorted_dir(b, ascending));
  assert(out.size() == a.size() + b.size());
  kernels::merge(a, b, ascending, out, proven);
}

}  // namespace aoft::sort::blockops
