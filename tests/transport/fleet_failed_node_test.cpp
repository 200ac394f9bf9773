// A node process whose program throws publishes kFailed with its reason
// (shm: NodeSlot, tcp: FINISH), and the simulator records the same throw as
// that node's error.  That node never wrote its output block, so on every
// fabric the run must end fail-stop with one error naming the node and the
// reason — never as a silently wrong sort, nor as an exception.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "sort/fleet.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

// Node 1 gives up; every other node copies its input block to its output
// and finishes without sending anything.
sim::SimTask throw_on_node1(sim::Ctx& ctx, const fleet::NodeJob& job) {
  const cube::NodeId me = ctx.id();
  if (me == 1) throw std::runtime_error("node program gave up");
  const auto in = job.input.subspan(me * job.cfg.block, job.cfg.block);
  std::ranges::copy(in, job.out_block(me).begin());
  co_return;
}

void expect_node1_failure(transport::Backend backend) {
  transport::JobConfig cfg;
  cfg.dim = 2;
  cfg.block = 2;
  transport::ShmOptions shm;
  shm.recv_timeout_s = 5.0;
  shm.run_deadline_s = 60.0;
  transport::TcpOptions tcp;
  tcp.recv_timeout_s = 5.0;
  tcp.run_deadline_s = 60.0;
  const fault::NodeFaultMap faults;
  const auto input = util::random_keys(2101, 8);

  const SortRun run = fleet::run({.backend = backend,
                                  .cfg = cfg,
                                  .input = input,
                                  .faults = faults,
                                  .shm = &shm,
                                  .tcp = &tcp},
                                 throw_on_node1);
  const char* fabric = transport::to_string(backend);
  EXPECT_EQ(classify(run, input), Outcome::kFailStop) << fabric;
  ASSERT_EQ(run.errors.size(), 1u) << fabric;
  const sim::ErrorReport& e = run.errors.front();
  EXPECT_EQ(e.node, 1u) << fabric;
  EXPECT_EQ(e.source, sim::ErrorSource::kApp) << fabric;
  EXPECT_EQ(e.stage, -1) << fabric;
  EXPECT_EQ(e.iter, -1) << fabric;
  EXPECT_EQ(e.detail, "node program gave up") << fabric;
  EXPECT_TRUE(run.deaths.empty()) << fabric;
}

TEST(FleetFailedNode, SimFailedNodeIsAFailStop) {
  expect_node1_failure(transport::Backend::kSim);
}

TEST(FleetFailedNode, ShmFailedNodeIsAFailStop) {
  expect_node1_failure(transport::Backend::kShm);
}

TEST(FleetFailedNode, TcpFailedNodeIsAFailStop) {
  expect_node1_failure(transport::Backend::kTcp);
}

}  // namespace
}  // namespace aoft::sort
