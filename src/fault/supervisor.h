// Recovery supervisor: the escalation ladder that turns the fail-stop S_FT
// into a fault-*tolerant* sorting service (DESIGN §7).
//
// The paper's contract ends at fail-stop: on a Φ violation S_FT halts and
// ships diagnostics to the host "so that appropriate actions may be taken"
// (§1).  This module is those actions.  The host supervises a sequence of
// attempts, escalating through rungs that each strictly reduce what the
// faulty components can still break:
//
//   1. rollback re-execution — every stage boundary where Φ_P/Φ_F/Φ_C
//      validated LLBS_i is a host-certifiable checkpoint (SftOptions::
//      checkpoint); on fail-stop the supervisor resumes from the last
//      certified boundary instead of stage 0, salvaging validated work à la
//      Dwork/Halpern/Waarts instead of discarding it;
//   2. full restart — when no certified checkpoint pair exists (the failure
//      hit before boundary 1) the attempt restarts from scratch in the same
//      configuration;
//   3. degraded-mode reconfiguration — per-attempt diagnoses intersect into a
//      persistent-suspect set (fault/recovery.h); once it is stable the
//      workload is remapped onto a fault-free subcube that excludes the
//      suspects (cube::best_excluding_cut, block size doubled per collapsed
//      dimension) and the sort finishes there;
//   4. host sequential sort — the terminal rung.  The host and its links are
//      reliable by Environmental Assumption 2, so this rung cannot fail, and
//      the ladder therefore always terminates with a correct sorted output.
//
// The supervisor never returns a wrong answer: an attempt's output is only
// accepted after the host-side Theorem-1 classification (sorted and a
// permutation of the original input), whatever rung produced it.
//
// Every attempt appends a structured RecoveryEvent, consumed by
// bench/recovery_ladder.cpp and the --recover mode of tools/aoft_sort_cli.

#pragma once

#include <functional>
#include <span>
#include <vector>

#include "fault/localization.h"
#include "fault/recovery.h"
#include "sort/sft.h"

namespace aoft::fault {

// Returns the node-fault assignment for the given attempt, in *physical*
// (full-cube) node ids; nullptr-equivalent (empty function) means the base
// options' fault map applies to every attempt.  Lets tests and demos model
// transient processor faults precisely, like InterceptorFactory does for
// links.
using NodeFaultFactory = std::function<NodeFaultMap(int attempt)>;

enum class Rung : std::uint8_t {
  kInitial,   // first attempt in a configuration
  kRollback,  // resumed from the last certified checkpoint pair
  kRestart,   // full restart within the current configuration
  kSubcube,   // reconfigured onto a smaller fault-free subcube
  kHostSort,  // terminal: reliable host sequential sort
};

const char* to_string(Rung r);

struct RecoveryPolicy {
  bool rollback = true;      // resume from certified checkpoints
  bool reconfigure = true;   // collapse onto a suspect-free subcube
  bool host_fallback = true; // terminal host-sort rung

  int attempts_per_config = 3;  // S_FT attempts per configuration (>= 1)
  int max_attempts = 12;        // hard ceiling on S_FT attempts overall
  int stable_after = 2;         // conclusive diagnoses before suspects count
                                // as persistent (transient-vs-persistent line)

  // Host-side wait before retry k, modelling the grace period that lets
  // transients clear: backoff_ticks * backoff_factor^(k-1) logical ticks,
  // charged into the attempt's (and the run's) tick total.
  double backoff_ticks = 0.0;
  double backoff_factor = 2.0;

  // Plain retry: blind full restarts, no reconfiguration, no fallback —
  // fail-stop after the budget.
  static RecoveryPolicy full_restart(int max_attempts = 2);
};

// The active (sub)cube a configuration runs on.  physical[l] is the full-cube
// label of logical node l; block is the per-node key count after doublings.
struct CubeConfig {
  int dim = 0;
  std::size_t block = 1;
  std::vector<cube::NodeId> physical;

  bool degraded() const { return cuts > 0; }
  int cuts = 0;  // dimensions collapsed so far
};

struct RecoveryEvent {
  int attempt = 0;  // global 0-based attempt index
  Rung rung = Rung::kInitial;
  int config_dim = 0;
  std::size_t block = 1;
  int resume_stage = 0;  // 0 = from scratch
  sort::Outcome outcome{};
  double ticks = 0.0;  // attempt elapsed + backoff (+ remap charge on kSubcube)
  std::vector<cube::NodeId> suspects;    // this attempt's diagnosis (physical)
  std::vector<cube::NodeId> persistent;  // stable intersection so far (physical)
  bool inconclusive = false;             // diagnosis produced no suspects
  bool link_suspected = false;
};

struct SupervisedRun {
  sort::SortRun last;      // the final attempt's run
  sort::Outcome outcome{}; // classified against the original input
  Rung final_rung = Rung::kInitial;
  int attempts = 0;        // total attempts (host-sort rung included)
  bool recovered = false;  // correct output after >= 1 fail-stop
  double total_ticks = 0.0;
  int stages_salvaged = 0;  // sum of resume stages over rollback attempts
  std::vector<RecoveryEvent> events;
  std::vector<Diagnosis> diagnoses;   // one per failed attempt, physical ids
  std::vector<cube::NodeId> retired;  // suspects excluded by reconfiguration
};

// Sort `input` under the full escalation ladder.  With the default policy the
// returned outcome is kCorrect for any fault pattern the predicates catch —
// the terminal host rung cannot fail.  `interceptors` supplies the link
// interceptor per attempt in physical coordinates (remapped automatically in
// degraded configurations); `node_faults`, when set, overrides
// base.node_faults per attempt.
SupervisedRun run_supervised_sort(int dim, std::span<const sort::Key> input,
                                  const sort::SftOptions& base,
                                  const RecoveryPolicy& policy = {},
                                  const InterceptorFactory& interceptors = nullptr,
                                  const NodeFaultFactory& node_faults = nullptr);

}  // namespace aoft::fault
