// One driver for the multi-process fabrics (docs/PROTOCOL.md §11, §13).
//
// Parent side: run() takes any algorithm's job over shm or tcp, with either
// launcher — fork or exec (tools/aoft_node) — through one sequence:
// validate, lay out the fabric, spawn, hand out the job (tcp: rendezvous +
// CONFIG), run the optional host program, await, reap, and assemble the
// SortRun from what the nodes published.
//
// Node side: run_node() rebuilds the job from the segment or the CONFIG
// frame — the same way for forked and exec'd nodes, so every fork run also
// exercises the exec path — runs the algorithm's node program on a one-node
// machine wired to the fabric, and publishes its result (stats, error
// reports, link events, output block) back to the parent.
//
// sft.cpp and snr.cpp supply only their node programs, host collectors and
// one Options <-> JobConfig mapping each way.  Internal to aoft_sort.

#pragma once

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

namespace aoft::sort::fleet {

// A job as a node process received it over its fabric.
struct NodeJob {
  const transport::JobConfig& cfg;
  fault::NodeFaultMap faults;
  std::span<const Key> input;
  std::span<const Key> llbs;  // C_{start_stage-1}; empty unless with_resume
};

// Runs node p's program for `job` on `mach` — a one-node machine already
// wired to the fabric — and copies the node's final block into `out`.
// Forked and exec'd nodes alike build their state from `job`.
using NodeProgram = void (*)(const NodeJob& job, sim::Machine& mach,
                             cube::NodeId p, std::span<Key> out);

// Everything the parent needs to run one job on a process fabric.
struct Job {
  transport::Backend backend;  // kShm or kTcp
  const transport::ShmOptions& shm;
  const transport::TcpOptions& tcp;
  transport::JobConfig cfg;  // recv_timeout_s is taken from shm/tcp
  std::span<const Key> input;
  std::span<const Key> llbs;  // with cfg.with_resume
  const fault::NodeFaultMap& faults;
  sim::LinkInterceptor* interceptor;  // reaches forked nodes only
  // In-process affordances a node process cannot share back: rejected.
  const sim::Machine* machine;
  bool observer;
};

// Run `job` with every node executing `node`.  `host`, when set, runs on a
// parent-side machine attached to the fabric's host link (the S_FT
// checkpoint collector).  Throws std::invalid_argument for a job no process
// fabric can run: an in-process affordance, an interceptor with an exec
// launcher, a wedge script on shm, an invalid JobConfig, or a tcp CONFIG
// beyond the frame limit.
SortRun run(const Job& job, const NodeProgram& node,
            const sim::HostMain& host = {});

// Node-process side, for fork children and the exec entry points
// (sort::detail::run_*_node): serve node p of the job the segment or the
// endpoint's CONFIG carries.  Returns the process exit code.
int run_node(transport::ShmSegment& seg, cube::NodeId p,
             const NodeProgram& node,
             sim::LinkInterceptor* interceptor = nullptr);
int run_node(transport::TcpNodeEndpoint& ep, cube::NodeId p,
             const NodeProgram& node,
             sim::LinkInterceptor* interceptor = nullptr);

// fault::NodeFault scripts <-> their POD wire form, one row per node.
std::vector<transport::WireFault> wire_faults_of(
    const fault::NodeFaultMap& faults, cube::NodeId num_nodes);
fault::NodeFaultMap faults_from_wire(
    std::span<const transport::WireFault> wire);

}  // namespace aoft::sort::fleet
