// Gossip-coverage mask algebra (paper Fig. 4c, procedure vect_mask; Lemma 3).
//
// During stage i of the fault-tolerant sort the inner loop walks j = i down
// to 0, and at each iteration every node exchanges its collected bitonic
// sequence LBS with its dimension-j neighbor.  vect_mask(i, j, k) is the bit
// vector with a 1 in position l iff LBS[l] has been collected by node k after
// the exchange at iteration j (from iteration i down to j) — Lemma 3.
//
// This module provides:
//   * vect_mask_recursive — the paper's O(2^{i-j}) recursion verbatim
//     (Lemma 7 benchmarks measure exactly this),
//   * vect_mask — a closed-form equivalent: after the iteration-j exchange a
//     node has collected exactly the labels reachable by flipping any subset
//     of bits {j..i} of its own label,
//   * pre_mask — coverage immediately *before* the iteration-j exchange,
//     which is what a message sent at iteration j can actually contain.
//
// The distinction between pre- and post-exchange coverage matters for the
// consistency predicate: see DESIGN.md §4 (fidelity note 2).

#pragma once

#include "hypercube/topology.h"
#include "util/bitvec.h"

namespace aoft::cube {

using util::BitVec;

// Coverage after the exchange at iteration j of stage i (paper's vect_mask),
// computed by the paper's recursion.  Preconditions: 0 <= j <= i < dimension.
BitVec vect_mask_recursive(const Topology& topo, int i, int j, NodeId node);

// Closed-form equivalent of vect_mask_recursive.
BitVec vect_mask(const Topology& topo, int i, int j, NodeId node);

// Coverage before the exchange at iteration j of stage i: the node's own
// label only when j == i (LBS was reset at the stage boundary), otherwise the
// post-exchange coverage of iteration j+1.
BitVec pre_mask(const Topology& topo, int i, int j, NodeId node);

// Number of set bits of vect_mask / pre_mask without materializing them.
std::uint64_t vect_mask_count(int i, int j);
std::uint64_t pre_mask_count(int i, int j);

// vect_mask / pre_mask of stage i in closed form, for callers that must not
// build a BitVec: the labels reachable from `node` by flipping any subset of
// bits lo..hi, which is `node` alone when lo > hi.  Every such label lies in
// node's SC_{hi+1} window (the 2^(hi+1) labels sharing node's bits above
// hi), and within that window the covered cells are every 2^lo-th one,
// starting at node's bits below lo.
struct MaskCover {
  NodeId node = 0;
  int lo = 0;
  int hi = -1;
};

constexpr MaskCover vect_cover(int i, int j, NodeId node) {
  return {node, j, i};
}
constexpr MaskCover pre_cover(int i, int j, NodeId node) {
  return {node, j + 1, i};
}

}  // namespace aoft::cube
