// One driver for every fabric (docs/PROTOCOL.md §11, §13).
//
// run() takes any algorithm's job through one sequence.  On the simulator
// it leases the caller's machine (or builds one), runs the node program on
// every node plus the optional host program, and reads the SortRun off the
// machine.  On shm or tcp, with either launcher — fork or exec
// (tools/aoft_node) — it validates the job, lays out the fabric, spawns,
// hands out the job (tcp: rendezvous + CONFIG), runs the optional host
// program, awaits, reaps, and assembles the SortRun from what the nodes
// published.
//
// Node side: run_node() rebuilds the job from the segment or the CONFIG
// frame — the same way for forked and exec'd nodes, so every fork run also
// exercises the exec path — runs the algorithm's node program on a one-node
// machine wired to the fabric, and publishes its result (stats, error
// reports, link events, output block) back to the parent.
//
// A node program reads only its NodeJob, whose config is the JobConfig a
// node process decodes, so the oracle and the process fabrics run one
// program on the same bytes.  sft.cpp and snr.cpp supply only their node
// programs, host programs and one Options -> JobConfig builder each.
// Internal to aoft_sort.

#pragma once

#include <functional>
#include <span>
#include <vector>

#include "fault/fault_spec.h"
#include "sim/machine.h"
#include "sort/driver.h"
#include "transport/backend.h"
#include "transport/shm_segment.h"

namespace aoft::transport {
class TcpNodeEndpoint;
}

namespace aoft::sort {
struct StageSnapshot;  // sort/sft.h
}

namespace aoft::sort::fleet {

using Observer = std::function<void(const StageSnapshot&)>;

// A job as a node program sees it, on every fabric.
struct NodeJob {
  const transport::JobConfig& cfg;
  const fault::NodeFaultMap& faults;
  std::span<const Key> input;  // the whole cube's, N*m keys
  std::span<const Key> llbs;   // C_{start_stage-1}; empty unless with_resume
  // Where finished blocks land: the whole cube's output on the simulator; in
  // a node process, only that node's m-key slot (out_first == the node).
  std::span<Key> output;
  cube::NodeId out_first = 0;
  // Simulator-only hooks, null in a node process: S_FT's stage observer and
  // the deaths the scripts model (see halt_process).
  const Observer* observer = nullptr;
  std::vector<Death>* deaths = nullptr;

  const fault::NodeFault* fault_for(cube::NodeId p) const {
    const auto it = faults.find(p);
    return it == faults.end() ? nullptr : &it->second;
  }
  // Node p's m-key block of the output.
  std::span<Key> out_block(cube::NodeId p) const {
    return output.subspan((p - out_first) * cfg.block, cfg.block);
  }
};

// A node program: one coroutine per node, reading only `job`.
using NodeProgram = sim::SimTask (*)(sim::Ctx& ctx, const NodeJob& job);

// Everything the driver needs to run one job.
struct Job {
  transport::Backend backend = transport::Backend::kSim;
  transport::JobConfig cfg;  // process fabrics take recv_timeout_s from shm/tcp
  std::span<const Key> input;
  std::span<const Key> llbs = {};  // with cfg.with_resume
  const fault::NodeFaultMap& faults;
  sim::LinkInterceptor* interceptor = nullptr;  // reaches forked nodes only
  // In-process affordances a node process cannot share back: process
  // fabrics reject both.  The simulator runs on `machine` when set (reset
  // first; its dimension must match) and hands `observer` to the nodes.
  sim::Machine* machine = nullptr;
  const Observer* observer = nullptr;
  const transport::ShmOptions* shm = nullptr;  // required for kShm
  const transport::TcpOptions* tcp = nullptr;  // required for kTcp
};

// Run `job` with every node executing `node`.  `host`, when set, runs as the
// host program: on the simulator's own host, or on a parent-side machine
// attached to a process fabric's host link (the S_FT checkpoint collector).
// Throws std::invalid_argument for a sim machine of the wrong dimension and
// for a job no process fabric can run: an in-process affordance, an
// interceptor with an exec launcher, a wedge script on shm, an invalid
// JobConfig, or a tcp CONFIG beyond the frame limit.
SortRun run(const Job& job, NodeProgram node, const sim::HostMain& host = {});

// Node-process side, for fork children and the exec entry points
// (sort::detail::run_*_node): serve node p of the job the segment or the
// endpoint's CONFIG carries.  Returns the process exit code.
int run_node(transport::ShmSegment& seg, cube::NodeId p, NodeProgram node,
             sim::LinkInterceptor* interceptor = nullptr);
int run_node(transport::TcpNodeEndpoint& ep, cube::NodeId p, NodeProgram node,
             sim::LinkInterceptor* interceptor = nullptr);

// A node program reached its scripted halt point under `f`.  In a node
// process a kill_process or wedge_process script really kills or wedges it
// here (no return); on the simulator the node halts gracefully, and the
// death a process fabric's host would observe is appended to `job.deaths`.
void halt_process(const sim::Ctx& ctx, const fault::NodeFault& f,
                  const NodeJob& job);

// fault::NodeFault scripts <-> their POD wire form, one row per node.
std::vector<transport::WireFault> wire_faults_of(
    const fault::NodeFaultMap& faults, cube::NodeId num_nodes);
fault::NodeFaultMap faults_from_wire(
    std::span<const transport::WireFault> wire);

}  // namespace aoft::sort::fleet
