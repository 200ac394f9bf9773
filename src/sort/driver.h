// Common result type, outcome classification and the checkpoint/resume
// surface shared by all sorting runs.

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sim/machine.h"
#include "sort/keys.h"
#include "transport/slot_state.h"

namespace aoft::sort {

// How a run ended, judged against the paper's reliability claim (Thm 3):
// a reliable algorithm may be kCorrect or kFailStop, never kSilentWrong.
enum class Outcome {
  kCorrect,     // terminated, output is the ascending sort of the input
  kFailStop,    // at least one processor signalled ERROR to the host
  kSilentWrong, // terminated without any error but the output is wrong
};

const char* to_string(Outcome o);

// One host-certified stage checkpoint (recovery supervisor, DESIGN §7).
// `state` is the full-cube flattened start-of-stage-`stage` state, assembled
// from the per-window uploads of S_FT's stage boundary; `certified` means
// every SC_{stage+1} window's representative slice matched every member's
// digest, the assembled state is a permutation of the run's start state, and
// every dim-`stage` subcube is sorted in its direction-bit orientation.
struct StageCheckpoint {
  int stage = -1;
  std::vector<Key> state;
  int windows_agreed = 0;
  int windows_total = 0;
  bool certified = false;
};

// A node death the host itself observed (docs/PROTOCOL.md §11, §13.4): a
// process fabric's parent saw the process end, go silent, or had to kill
// it.  The simulator records the deaths its scripts model — kill_process as
// kExit, wedge_process as kSilence — so the three fabrics agree.
struct Death {
  cube::NodeId node = 0;
  transport::DeathCause cause = transport::DeathCause::kExit;
  bool operator==(const Death&) const = default;
};

struct SortRun {
  std::vector<Key> output;  // flattened N*m keys, node p's block at [p*m, (p+1)*m)
  std::vector<sim::ErrorReport> errors;
  std::vector<Death> deaths;  // ascending node ids
  sim::RunSummary summary;
  std::vector<StageCheckpoint> checkpoints;  // when SftOptions::checkpoint
  std::vector<sim::LinkEvent> link_events;   // when SftOptions::record_link_events

  // A dead node published nothing, so its death alone is a loud failure.
  bool fail_stop() const { return !errors.empty() || !deaths.empty(); }
};

// Classify a finished run against the original input.  Exact: a correct
// output equals a sorted copy of the input.
Outcome classify(const SortRun& run, std::span<const Key> input);

// A consistent recovery line: re-enter S_FT at the start of `stage` with
// `blocks` (the certified start-of-stage state, C_stage) and `llbs` (the
// previous boundary's certified state, C_{stage-1}, consulted by the stage's
// own Phi_F evaluation).  Both are full-cube flattened (N*m keys).
struct ResumeState {
  int stage = 0;
  std::vector<Key> blocks;
  std::vector<Key> llbs;
};

// Build the deepest resume point available from a run's checkpoint list:
// the highest k >= 1 with both C_k and C_{k-1} certified.  nullopt when no
// such pair exists (then only a full restart can follow).
std::optional<ResumeState> make_resume_state(
    std::span<const StageCheckpoint> checkpoints);

// The size contract of every sort entry point: `got` keys must be one
// block of `block` keys per node of the dim-`dim` cube.  Throws
// std::invalid_argument naming `what` and both sizes otherwise, in every
// build type: a wrong-sized input would be read (sim) or copied into the
// segment (shm) past its end.
void require_cube_keys(const char* what, int dim, std::size_t block,
                       std::size_t got);

struct SftOptions;  // sort/sft.h

// Resume-from-stage entry point: run the tail of S_FT (stages rs.stage..n-1
// plus the final verification round) from a certified checkpoint.  A resumed
// run is bit-identical, in output and in every downstream Phi evaluation, to
// the uninterrupted run that produced the checkpoint (defined in sft.cpp;
// tested by tests/integration/checkpoint_resume_test.cpp).
SortRun resume_sft(int dim, const ResumeState& rs, const SftOptions& opts);

}  // namespace aoft::sort
