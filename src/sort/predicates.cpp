#include "sort/predicates.h"

#include <cassert>
#include <cstring>

#include "obs/sink.h"
#include "sort/kernels.h"

namespace aoft::sort {

namespace {

// Every predicate evaluation reports its verdict to the bound observability
// sink (obs/sink.h).  The predicates are pure functions with no protocol
// position of their own; the caller (sort/sft.cpp) binds (node, stage, iter,
// clock) via ScopedPredContext around the call.  With no sink bound this is a
// thread-local load and a branch.
std::optional<Violation> record_verdict(obs::Ev kind, obs::Counter pass_c,
                                        obs::Counter fail_c,
                                        std::optional<Violation> v) {
  if (!obs::active()) return v;
  const auto& at = obs::pred_context();
  if (auto* me = obs::metrics()) {
    me->inc(v ? fail_c : pass_c);
    me->phi_verdict(at.stage, !v);
  }
  if (auto* tr = obs::tracer())
    tr->instant(kind, at.node, at.stage, at.iter, at.clock, v ? 0 : 1,
                v ? v->position : 0, v ? v->what : std::string{});
  return v;
}

std::optional<Violation> check_run(std::span<const Key> v, std::size_t lo,
                                   std::size_t hi, bool non_decreasing,
                                   const char* which) {
  const std::size_t n = hi - lo;
  const std::size_t k = kernels::table().run_break(v.data() + lo, n, non_decreasing);
  if (k == n) return std::nullopt;
  return Violation{std::string("phi_P: ") + which + " run broken",
                   static_cast<std::int64_t>(lo + k)};
}

}  // namespace

namespace {

std::optional<Violation> phi_p_eval(std::span<const Key> window_vals,
                                    bool final_stage) {
  if (final_stage)
    return check_run(window_vals, 0, window_vals.size(), true, "ascending(final)");
  const std::size_t mid = window_vals.size() / 2;
  if (auto v = check_run(window_vals, 0, mid, true, "ascending")) return v;
  return check_run(window_vals, mid, window_vals.size(), false, "descending");
}

}  // namespace

std::optional<Violation> phi_p(std::span<const Key> window_vals, bool final_stage) {
  return record_verdict(obs::Ev::kPhiP, obs::Counter::kPhiPPass,
                        obs::Counter::kPhiPFail,
                        phi_p_eval(window_vals, final_stage));
}

namespace {

std::optional<Violation> phi_f_eval(std::span<const Key> llbs_inner,
                                    std::span<const Key> lbs_inner,
                                    bool ascending) {
  assert(llbs_inner.size() == lbs_inner.size());
  const std::size_t size = lbs_inner.size();
  if (size <= 1) {
    if (size == 1 && llbs_inner[0] != lbs_inner[0])
      return Violation{"phi_F: singleton mismatch", 0};
    return std::nullopt;
  }
  const std::int64_t idx = kernels::phi_f_scan(llbs_inner, lbs_inner, ascending);
  if (idx < 0) return std::nullopt;
  return Violation{"phi_F: sequence not complete w.r.t. previous stage", idx};
}

}  // namespace

std::optional<Violation> phi_f(std::span<const Key> llbs_inner,
                               std::span<const Key> lbs_inner, bool ascending) {
  return record_verdict(obs::Ev::kPhiF, obs::Counter::kPhiFPass,
                        obs::Counter::kPhiFFail,
                        phi_f_eval(llbs_inner, lbs_inner, ascending));
}

namespace {

std::optional<Violation> phi_c_merge_eval(std::span<Key> local, BitVec& local_cover,
                                     std::span<const Key> recv_slice,
                                     const BitVec& sender_cover,
                                     const cube::Subcube& window, std::size_t m,
                                     MergeStats* stats) {
  assert(recv_slice.size() == static_cast<std::size_t>(window.size()) * m);
  // Walk maximal runs of consecutive covered-by-sender nodes that agree on
  // local coverage, so the word compare / absorb copy runs once per run over
  // run_nodes*m contiguous words (kernels.h) instead of once per node.  The
  // run decomposition is invisible: nodes are still processed in ascending
  // order, a disagreement still reports the node that owns the word, and
  // stats count exactly the nodes fully processed before a violation — the
  // same partial counts the per-node loop produced.
  cube::NodeId p = window.start;
  while (p <= window.end) {
    if (!sender_cover.test(p)) {
      ++p;
      continue;
    }
    const bool have = local_cover.test(p);
    cube::NodeId q = p;
    while (q < window.end && sender_cover.test(q + 1) &&
           local_cover.test(q + 1) == have)
      ++q;
    const std::size_t run_nodes = static_cast<std::size_t>(q - p) + 1;
    const std::size_t words = run_nodes * m;
    const std::size_t local_off = static_cast<std::size_t>(p) * m;
    const std::size_t slice_off = static_cast<std::size_t>(p - window.start) * m;
    if (have) {
      const std::size_t bad = kernels::table().mismatch(
          local.data() + local_off, recv_slice.data() + slice_off, words);
      if (bad != words) {
        if (stats) stats->checked += (bad / m) * m;
        return Violation{"phi_C: redundant copies disagree",
                         static_cast<std::int64_t>(p) +
                             static_cast<std::int64_t>(bad / m)};
      }
      if (stats) stats->checked += words;
    } else {
      std::memcpy(local.data() + local_off, recv_slice.data() + slice_off,
                  words * sizeof(Key));
      for (cube::NodeId r = p; r <= q; ++r) local_cover.set(r);
      if (stats) stats->absorbed += words;
    }
    p = q + 1;
  }
  return std::nullopt;
}

}  // namespace

std::optional<Violation> phi_c_merge(std::span<Key> local, BitVec& local_cover,
                                     std::span<const Key> recv_slice,
                                     const BitVec& sender_cover,
                                     const cube::Subcube& window, std::size_t m,
                                     MergeStats* stats) {
  return record_verdict(obs::Ev::kPhiC, obs::Counter::kPhiCPass,
                        obs::Counter::kPhiCFail,
                        phi_c_merge_eval(local, local_cover, recv_slice,
                                         sender_cover, window, m, stats));
}

namespace {

// Φ_P ∘ Φ_F in one read of each window (see bit_compare in the header).
// True only when both predicates pass; false hands the decision to phi_p and
// phi_f.  A pass proves each of their conditions on the same bytes:
//   * Φ_F: lbs' inner half, in visit order, equals the ascending merge of
//     the two llbs runs, which are sorted (certified or scanned here) — the
//     merge-path pass of phi_f_scan;
//   * Φ_P on the inner half: that merge is sorted, so the half is sorted in
//     direction `inner_ascending`, which is Φ_P's direction for it (the
//     lower half of a stage window ascends, the upper descends; the final
//     window ascends whole);
//   * Φ_P on the other half: scanned here.
bool stage_passes(std::span<const Key> llbs_inner, std::span<const Key> lbs_outer,
                  std::span<const Key> lbs_inner, bool inner_lower,
                  bool inner_ascending, bool final_stage, kernels::Proven runs) {
  const std::size_t size = lbs_inner.size();
  const std::size_t half = size / 2;
  if (size < kernels::detail::kMergePathCutoff) return false;
  if (final_stage ? size != lbs_outer.size() || !inner_ascending
                  : 2 * size != lbs_outer.size() || inner_lower != inner_ascending)
    return false;
  if (!runs.first && !kernels::is_sorted_run(llbs_inner.first(half), true))
    return false;
  if (!runs.second && !kernels::is_sorted_run(llbs_inner.subspan(half), false))
    return false;
  if (!kernels::is_runs_merge(llbs_inner, lbs_inner, inner_ascending)) return false;
  if (final_stage) return true;
  const auto other = inner_lower ? lbs_outer.subspan(size) : lbs_outer.first(size);
  return kernels::is_sorted_run(other, !inner_lower);
}

}  // namespace

std::optional<Violation> bit_compare(std::span<const Key> llbs,
                                     std::span<const Key> lbs,
                                     const cube::Subcube& outer,
                                     const cube::Subcube& inner,
                                     bool inner_ascending, bool final_stage,
                                     std::size_t m, const StageChecks& checks) {
  const auto window_span = [&](std::span<const Key> full, const cube::Subcube& sc) {
    return full.subspan(static_cast<std::size_t>(sc.start) * m,
                        static_cast<std::size_t>(sc.size()) * m);
  };
  const auto lbs_outer = window_span(lbs, outer);
  const auto lbs_inner = window_span(lbs, inner);
  const auto llbs_inner = window_span(llbs, inner);
  if (checks.progress && checks.feasibility &&
      stage_passes(llbs_inner, lbs_outer, lbs_inner, inner.start == outer.start,
                   inner_ascending, final_stage, checks.llbs_runs)) {
    record_verdict(obs::Ev::kPhiP, obs::Counter::kPhiPPass,
                   obs::Counter::kPhiPFail, std::nullopt);
    record_verdict(obs::Ev::kPhiF, obs::Counter::kPhiFPass,
                   obs::Counter::kPhiFFail, std::nullopt);
    return std::nullopt;
  }
  std::optional<Violation> first;
  if (checks.progress) first = phi_p(lbs_outer, final_stage);
  if (first && !checks.past_violation) return first;
  if (checks.feasibility) {
    auto v = phi_f(llbs_inner, lbs_inner, inner_ascending);
    if (!first) first = std::move(v);
  }
  return first;
}

}  // namespace aoft::sort
