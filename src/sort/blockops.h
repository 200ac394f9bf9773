// Block (m keys per node) helpers for the bitonic sort/merge variants.
//
// Paper §5: "each processor holds m elements ... half of the processors must
// do a compare/exchange of 2m elements and then each processor must sort
// these m elements locally."  The classical realization is merge-split: both
// partners' blocks are merged and the pair splits the result, the lower node
// keeping the lower half under the pair's direction.
//
// Blocks are stored *directionally*: a node participating in an ascending
// merge holds its m keys non-decreasing, a descending one non-increasing.
// The flattened concatenation of directional blocks over a subcube is then
// exactly the global (sub)sequence the scalar predicates reason about, which
// is how "each of the predicates Φ scales by m" (paper §5) falls out for
// free — see sort/predicates.h.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/pool.h"
#include "sort/kernels.h"
#include "sort/keys.h"

namespace aoft::sort::blockops {

// Blocks shorter than this are sorted with std::sort; from here up, with an
// LSD radix sort (11-bit digits).  The crossover is measured on fresh random
// inputs: the two tie at ~256 keys, at 512 radix is 1.6-3x faster, and below
// ~200 its fixed histogram cost loses (EXPERIMENTS §16.4).
inline constexpr std::size_t kRadixCutoff = 512;

// Sort `block` in the given direction.  From kRadixCutoff keys up this is a
// linear-time radix sort that ping-pongs between `block` and a scratch
// KeyBuf of block.size() keys drawn from `pool` for the call (sized, not
// zero-filled); below it the pool is not touched.  Node programs pass their
// machine's pool, so a warm machine's sorts allocate nothing.  Wall clock
// only: the cost model still charges m·log2 m comparisons.
void sort_dir(std::span<Key> block, bool ascending, sim::KeyPool& pool);

// The same with a pool local to the call, so the scratch is freed on return.
void sort_dir(std::span<Key> block, bool ascending);

// Sort the keys of `src` into `out` (src.size() keys) in the given direction
// without writing `src`.  From kRadixCutoff keys up, the radix sort's first
// pass reads `src` and its passes alternate between `out` and `scratch` (at
// least src.size() keys) so that the last lands in `out`: no copy of `src`
// is made.  Below it, `src` is copied into `out` and sorted there.  `out`
// and `scratch` alias neither `src` nor each other.  The exact oracle
// (sort/keys.h) sorts each of its parts with this.
void sort_into(std::span<const Key> src, bool ascending, std::span<Key> out,
               std::span<Key> scratch);

// True iff `block` is sorted in the given direction.
bool is_sorted_dir(std::span<const Key> block, bool ascending);

// Flip the stored direction (reverse).  A directional block reversed is
// sorted in the opposite direction.
void reverse_block(std::span<Key> block);

// Merge two blocks sorted in direction `ascending` into caller-provided
// storage (`out.size()` must equal `a.size() + b.size()`, and `out` must not
// alias the inputs).  The hot loops of S_FT/S_NR reuse one scratch buffer
// across all log^2 N iterations; there is deliberately no allocating variant
// — callers own their scratch (the former merge_dir was the last allocating
// call path through the merge).  `proven` names the blocks the caller has
// already proven sorted in that direction on these bytes, whose scans the
// merge then skips (the certificate contract of sort/kernels.h).
void merge_dir_into(std::span<const Key> a, std::span<const Key> b,
                    bool ascending, std::span<Key> out,
                    kernels::Proven proven = {});

}  // namespace aoft::sort::blockops
