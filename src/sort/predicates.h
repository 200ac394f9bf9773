// The constraint predicate Φ = (Φ_P, Φ_F, Φ_C) for bitonic sorting
// (paper §3, Figs. 4a–4c), as pure functions.
//
// The fault-tolerant sort S_FT gossips, during stage i, the values every node
// held at the *start* of the stage; the collected sequence LBS_i covers the
// node's home subcube SC_{i+1}.  At the end of the stage each node checks:
//
//   Φ_P (progress)    — LBS_i is bitonic: the lower dim-i half of the window
//                       is non-decreasing and the upper half non-increasing
//                       (the final verification checks a fully ascending
//                       sequence instead);
//   Φ_F (feasibility) — LBS_i restricted to the node's dim-i home subcube,
//                       which stage i-1 sorted, is a permutation of the
//                       previously validated LLBS_i over the same range.
//                       Because LLBS_i is bitonic, a permutation that is
//                       sorted must be its two-pointer merge, checkable in
//                       one linear pass without auxiliary storage;
//   Φ_C (consistency) — applied on every message: the received copy of each
//                       already-collected element must equal the local copy,
//                       so a Byzantine sender cannot tell different peers
//                       different stories (copies travel vertex-disjoint
//                       paths; see hypercube/routing.h).
//
// Everything is expressed over *flattened* key arrays so the block variant
// (m keys per node, paper §5) reuses the same code: a window of 2^{i+1} nodes
// with m keys each is a flat span of 2^{i+1}·m keys, and every predicate
// "scales by m" exactly as the paper states.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "hypercube/masks.h"
#include "hypercube/subcube.h"
#include "sort/kernels.h"
#include "sort/keys.h"
#include "util/bitvec.h"

namespace aoft::sort {

using util::BitVec;

// A failed executable assertion, with enough context for the fail-stop
// diagnostic sent to the host.
struct Violation {
  std::string what;        // human-readable cause
  std::int64_t position;   // flattened index (or node label) it anchors to
};

// --- Φ_P: progress -----------------------------------------------------------

// Check that `window_vals` (the LBS slice over a window of `2h` nodes,
// m keys each, flattened) is bitonic: first half non-decreasing, second half
// non-increasing.  With `final_stage` the whole window must be non-decreasing
// (the paper's "i != n" guard in Fig. 4a).
std::optional<Violation> phi_p(std::span<const Key> window_vals, bool final_stage);

// --- Φ_F: feasibility --------------------------------------------------------

// Check that `lbs_inner` (sorted; ascending iff `ascending`) is a permutation
// of the bitonic `llbs_inner` (non-decreasing first half, non-increasing
// second half).  Both spans cover the same dim-i home subcube, flattened.
// One linear two-pointer pass (paper Fig. 4b); duplicates are handled by
// preferring the ascending run, which is safe because equal keys are
// interchangeable.
std::optional<Violation> phi_f(std::span<const Key> llbs_inner,
                               std::span<const Key> lbs_inner, bool ascending);

// --- Φ_C: consistency --------------------------------------------------------

// Outcome of merging one received LBS slice into the local collection.
struct MergeStats {
  std::uint64_t absorbed = 0;  // entries newly copied from the sender
  std::uint64_t checked = 0;   // entries cross-checked against a local copy
};

// Merge the received slice `recv_slice` (covering `window`, flattened with
// m = block keys per node) into `local` (a full-cube flattened array).
// `sender_cover` marks the node labels whose entries the sender had actually
// collected when it sent; `local_cover` marks the labels already collected
// locally.  Entries in both covers are compared (consistency: they travelled
// vertex-disjoint routes); entries only the sender has are absorbed.
// On success `local_cover` grows by `sender_cover`.
//
// Returns a violation on the first mismatch (paper Fig. 4c ERROR).
std::optional<Violation> phi_c_merge(std::span<Key> local, BitVec& local_cover,
                                     std::span<const Key> recv_slice,
                                     const BitVec& sender_cover,
                                     const cube::Subcube& window, std::size_t m,
                                     MergeStats* stats = nullptr);

// --- bit_compare -------------------------------------------------------------

// What one stage-boundary bit_compare evaluates, and what its caller has
// already proven.  The defaults are the paper's bit_compare.
struct StageChecks {
  bool progress = true;     // evaluate Φ_P
  bool feasibility = true;  // evaluate Φ_F
  // Evaluate Φ_F even after Φ_P failed, as a silent checker does; otherwise
  // the first violation ends the check.
  bool past_violation = false;
  // The runs of `llbs` over `inner` already proven in Φ_F's direction — the
  // lower run non-decreasing (first), the upper non-increasing (second) — by
  // a scan that passed on these very bytes (docs/PROTOCOL.md §12).  Their
  // scans are skipped; a false certificate can read past a run.
  kernels::Proven llbs_runs;
};

// The paper's bit_compare: Φ_P over the stage window followed by Φ_F over the
// inner home subcube (Fig. 3 / Lemma 4).  `lbs` and `llbs` are full-cube
// flattened arrays; `outer` is SC_{i+1,node}; `inner` is SC_{i,node};
// `inner_ascending` is the direction stage i-1 sorted the inner subcube.
// Returns the first violation, Φ_P's before Φ_F's.
//
// It reads each window once when it can: the llbs runs `checks` does not
// certify are scanned, lbs' inner half is compared with their merge (Φ_F's
// pass, which also proves that half sorted the way Φ_P wants), and only the
// rest of the window is scanned for Φ_P — nothing at the final stage.  On a
// pass it records both verdicts as phi_p and phi_f would.  Anything else —
// a window below the merge-path cutoff, a check turned off, any failure —
// runs phi_p and then phi_f, so every verdict, first-failure index and trace
// event is theirs.
std::optional<Violation> bit_compare(std::span<const Key> llbs,
                                     std::span<const Key> lbs,
                                     const cube::Subcube& outer,
                                     const cube::Subcube& inner,
                                     bool inner_ascending, bool final_stage,
                                     std::size_t m,
                                     const StageChecks& checks = {});

}  // namespace aoft::sort
