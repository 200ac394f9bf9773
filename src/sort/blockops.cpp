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

// LSD radix sort of src[0, n) into dst[0, n) in direction `ascending`,
// ping-ponging through scratch[0, n); `dst` may be `src`.  Each key is sorted
// by its rank u = key - min (ascending) or max - key (descending), taken in
// uint64: that order-preserving map needs no sign flip and no reverse pass,
// and only bit_width(max - min) bits of u are sorted.  One pass builds every
// digit histogram; a digit every key shares is skipped.  The first moving
// pass reads `src` and the buffers alternate so that the last one lands in
// `dst`, so a `src` other than `dst` is never copied.  Counts are 32-bit: the
// caller bounds n.  Requires n >= 1.
void radix_sort(const Key* src, std::size_t n, bool ascending, Key* dst,
                Key* scratch) {
  // Two chains of selects, no branch: std::minmax_element's compares
  // mispredict on fresh keys and took ~15% of the sort.
  Key lo0 = src[0], hi0 = src[0], lo1 = src[0], hi1 = src[0];
  std::size_t i = 1;
  for (; i + 1 < n; i += 2) {
    lo0 = std::min(lo0, src[i]);
    hi0 = std::max(hi0, src[i]);
    lo1 = std::min(lo1, src[i + 1]);
    hi1 = std::max(hi1, src[i + 1]);
  }
  if (i < n) {
    lo0 = std::min(lo0, src[i]);
    hi0 = std::max(hi0, src[i]);
  }
  const auto ulo = static_cast<std::uint64_t>(std::min(lo0, lo1));
  const auto uhi = static_cast<std::uint64_t>(std::max(hi0, hi1));
  const int digits = (std::bit_width(uhi - ulo) + kDigitBits - 1) / kDigitBits;
  if (digits == 0) {  // all keys equal
    if (src != dst) std::memcpy(dst, src, n * sizeof(Key));
    return;
  }

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
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t u = rank(src[k]);
    for (int d = 0; d < digits; ++d)
      ++count[d][(u >> (d * kDigitBits)) & kDigitMask];
  }
  int moving[kMaxDigits];
  int passes = 0;
  const std::uint64_t first = rank(src[0]);
  for (int d = 0; d < digits; ++d)
    if (count[d][(first >> (d * kDigitBits)) & kDigitMask] != n)
      moving[passes++] = d;

  // Pass p writes out[p % 2].  In place, the first pass must not write the
  // keys it reads, so an odd pass count ends in scratch and is copied back.
  const bool scratch_first = src == dst || passes % 2 == 0;
  Key* const out[2] = {scratch_first ? scratch : dst,
                       scratch_first ? dst : scratch};
  const Key* from = src;
  for (int p = 0; p < passes; ++p) {
    const int shift = moving[p] * kDigitBits;
    std::uint32_t* offset = count[moving[p]];
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b)
      sum += std::exchange(offset[b], sum);  // counts -> bucket starts
    Key* to = out[p % 2];
    for (std::size_t k = 0; k < n; ++k) {
      const Key key = from[k];
      to[offset[(rank(key) >> shift) & kDigitMask]++] = key;
    }
    from = to;
  }
  if (from != dst) std::memcpy(dst, from, n * sizeof(Key));
}

// The comparison sort sort_dir and sort_into use below kRadixCutoff.
void std_sort_dir(std::span<Key> block, bool ascending) {
  if (ascending)
    std::sort(block.begin(), block.end());
  else
    std::sort(block.begin(), block.end(), std::greater<Key>{});
}

bool radix_sized(std::size_t n) {
  return n >= kRadixCutoff && n <= std::numeric_limits<std::uint32_t>::max();
}

}  // namespace

void sort_dir(std::span<Key> block, bool ascending, sim::KeyPool& pool) {
  const std::size_t n = block.size();
  if (!radix_sized(n)) {
    std_sort_dir(block, ascending);
    return;
  }
  sim::KeyBuf scratch(pool);
  scratch.resize_for_overwrite(n);
  radix_sort(block.data(), n, ascending, block.data(), scratch.data());
}

void sort_dir(std::span<Key> block, bool ascending) {
  sim::KeyPool pool;
  sort_dir(block, ascending, pool);
}

void sort_into(std::span<const Key> src, bool ascending, std::span<Key> out,
               std::span<Key> scratch) {
  assert(out.size() == src.size() && scratch.size() >= src.size());
  if (!radix_sized(src.size())) {
    std::copy(src.begin(), src.end(), out.begin());
    std_sort_dir(out, ascending);
    return;
  }
  radix_sort(src.data(), src.size(), ascending, out.data(), scratch.data());
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
