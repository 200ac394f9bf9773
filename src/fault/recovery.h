// Retry-based recovery on top of fail-stop detection (extension, DESIGN §7).
//
// The paper's contract ends at fail-stop: "the result of the calculation is
// either completely correct, or the entire system halts with an error
// condition" (§4), with diagnostics shipped to the host "so that appropriate
// actions may be taken" (§1).  The most basic such action is a retry: the
// host re-runs the sort, diagnosing every failed attempt
// (fault/supervisor.h, RecoveryPolicy::full_restart).  This header holds the
// pieces every retry policy shares.
//
//   * A *transient* fault (a glitched message, a link that recovers) does
//     not reappear: the retry completes correctly and the run counts as
//     recovered — the overall system is now fault-tolerant, not merely
//     fail-stop, at the cost of re-execution instead of redundancy.
//   * A *permanent* fault reproduces the fail-stop; the per-attempt
//     diagnoses then intersect to a stable suspect set, which is exactly
//     what an operator (or a reconfiguration layer) needs to retire a node.
//
// Faults are injected per attempt through a factory, so tests and demos can
// model transience precisely.

#pragma once

#include <functional>
#include <span>

#include "fault/localization.h"
#include "sort/sft.h"

namespace aoft::fault {

// Returns the interceptor to install for the given attempt (nullptr = clean
// links).  The returned object must stay alive for the whole attempt.
using InterceptorFactory = std::function<sim::LinkInterceptor*(int attempt)>;

// Suspects implicated by every *conclusive* failed attempt — the
// permanent-fault candidates.  An inconclusive diagnosis (no suspects at
// all, e.g. the fail-stop cascaded before localization could pin anyone)
// carries no exculpatory evidence, so it is skipped rather than vacuously
// emptying the intersection; a link-pair diagnosis (Definition 3 case 2a)
// participates with both endpoints, so a recurring dead link intersects to
// its stable endpoint pair.  Empty when no conclusive diagnosis exists or no
// suspect recurs through all of them.
std::vector<cube::NodeId> persistent_suspects(std::span<const Diagnosis> diagnoses);

}  // namespace aoft::fault
