// S_FT — the reliable (fail-stop) hypercube bitonic sort (paper Fig. 3).
//
// S_FT runs the same compare-exchange schedule as S_NR, with three additions:
//
//   1. Piggybacked gossip.  Each node's element at the *start* of stage i is
//      disseminated across the stage's home subcube SC_{i+1} by appending the
//      node's collected sequence LBS to every message it already sends — no
//      extra messages, only longer ones (the paper's key efficiency claim).
//
//   2. Consistency on every receive (Φ_C).  The receiver knows, from the mask
//      algebra of hypercube/masks.h, exactly which entries the sender must
//      have collected.  Entries both sides hold travelled vertex-disjoint
//      routes and must agree; fresh entries are absorbed.  Because the active
//      node merges *before* replying, its reply re-delivers every entry the
//      passive partner already holds, which is where the cross-checking
//      redundancy comes from (DESIGN.md §4, fidelity note 2).
//
//   3. Stage-boundary verification (bit_compare = Φ_P ∘ Φ_F).  The collected
//      LBS must be bitonic over SC_{i+1}, and over the node's dim-i subcube
//      it must be a permutation of the previously validated LLBS.  A final
//      pure-exchange round re-disseminates the finished sort and re-verifies
//      it against the last validated bitonic sequence.
//
// Every violated assertion makes the node signal ERROR to the host and halt:
// the system is fail-stop built from Byzantine-faulty components (Thm 3).
//
// The exchange messages carry both halves of the compare-exchange result, so
// the passive partner can additionally assert that the pair was computed
// consistently (its own old block is contained in the returned merge and the
// merge is direction-sorted).  The paper's Fig. 3 sends the pair (a, b) for
// exactly this purpose; the check is the `check_exchange` knob below.

#pragma once

#include <functional>
#include <span>

#include "fault/fault_spec.h"
#include "hypercube/subcube.h"
#include "sim/cost_model.h"
#include "sim/machine.h"
#include "sort/driver.h"
#include "transport/backend.h"

namespace aoft::transport {
class ShmSegment;
class TcpNodeEndpoint;
}

namespace aoft::sort {

// One node's view at a stage boundary, for traces and the Figure-5 test.
struct StageSnapshot {
  cube::NodeId node = 0;
  int stage = 0;                 // completed stage index; dim for the final round
  cube::Subcube window;          // SC_{stage+1,node} (whole cube for the final round)
  std::vector<Key> lbs_window;   // collected LBS over the window, flattened
  std::vector<Key> llbs_window;  // previous validated sequence over the window
};

struct SftOptions {
  std::size_t block = 1;  // m: keys per node
  sim::CostModel cost{};

  // Predicate toggles, for the ablation benches.  All on for the real S_FT.
  bool check_progress = true;     // Φ_P
  bool check_feasibility = true;  // Φ_F
  bool check_consistency = true;  // Φ_C
  bool check_exchange = true;     // pair check on (a, b) replies

  sim::LinkInterceptor* interceptor = nullptr;  // Byzantine links
  fault::NodeFaultMap node_faults;              // Byzantine processors

  // Stage checkpointing (recovery supervisor, DESIGN §7).  At every validated
  // stage boundary each node uploads its window state to the reliable host:
  // the window's lowest label ships the full slice, every other member a
  // digest for cross-checking.  The host assembles and certifies per-stage
  // checkpoints into SortRun::checkpoints; a later resume_sft() re-enters the
  // sort at the last certified boundary instead of stage 0.
  bool checkpoint = false;

  // Copy the machine's per-message LinkEvent log (node-node and host links)
  // into SortRun::link_events.  For tests and traffic accounting; off by
  // default — the log grows with every message sent.
  bool record_link_events = false;

  // Invoked at every stage boundary of every node (small cubes only; the
  // snapshots copy the stage window).
  std::function<void(const StageSnapshot&)> observer;

  // Run on this caller-owned machine instead of constructing one: the machine
  // is reset() first (its key pool and channel storage stay warm), and its
  // topology dimension must match the sort's `dim`.  The campaign engine
  // keeps one machine per worker thread this way.  Owned by the caller; must
  // outlive the run.
  sim::Machine* machine = nullptr;

  // Which fabric carries the cube (docs/PROTOCOL.md §11).  Every fabric runs
  // one node program through one driver (sort/fleet), which hands each node
  // only the JobConfig built from these options.  kSim is the deterministic
  // single-process oracle; kShm runs one OS process per node over
  // shared-memory rings and must reproduce the oracle's sorted output and
  // fail-stop verdicts for identical fault scripts.  kShm rejects `observer`
  // and `machine` (both are in-process affordances a forked child cannot
  // share back), an `interceptor` with an exec launcher (shm.node_binary)
  // and wedge_process scripts, and is limited to
  // dim <= transport::kMaxProcessDim.
  transport::Backend backend = transport::Backend::kSim;
  transport::ShmOptions shm;

  // kTcp options: one OS process per node over framed loopback/LAN sockets,
  // with heartbeat-based peer-death detection in place of the shm parent's
  // waitpid authority (docs/PROTOCOL.md §13).  Same rejections and dim cap
  // as kShm, except that wedge_process is supported.
  transport::TcpOptions tcp;
};

namespace detail {
// Exec-mode child entry (tools/aoft_node): run node `p`'s S_FT program
// against an attached segment, reconstructing the options from its header.
// Returns the child's exit code.
int run_sft_shm_node(transport::ShmSegment& seg, cube::NodeId p);
// Same for the tcp backend: the endpoint has already received its CONFIG
// (which is how aoft_node knew to dispatch here).
int run_sft_tcp_node(transport::TcpNodeEndpoint& ep, cube::NodeId p);
}  // namespace detail

// Sort `input` (flattened, size 2^dim * block) reliably.  The returned run is
// kCorrect or kFailStop for up to dim-1 faulty nodes (paper Thm 3) — the
// coverage campaign in bench/ verifies exactly that, and the unit tests
// exercise each predicate's detection separately.
SortRun run_sft(int dim, std::span<const Key> input, const SftOptions& opts = {});

}  // namespace aoft::sort
