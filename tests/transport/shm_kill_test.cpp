// The kill_process escalation and the process-death half of the §11 oracle
// contract: under the shm backend a scripted kill really SIGKILLs the node's
// OS process mid-protocol, while the simulator degrades the same script to a
// graceful halt — and the two must still produce the same fail-stop verdict
// (same detecting nodes, same stages, same classification).  The output image
// is NOT compared for kill scripts: the killed child dies before publishing
// its block, which is precisely what the escalation exists to exercise.
//
// Also covered here: exec mode (each node spawned by exec'ing the
// tools/aoft_node launcher, path baked in via AOFT_NODE_PATH) and the
// recovery supervisor detecting and recovering from a SIGKILLed node across
// its escalation ladder.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "fault/supervisor.h"
#include "sort/sft.h"
#include "util/rng.h"

#ifndef AOFT_NODE_PATH
#error "build must define AOFT_NODE_PATH (see tests/CMakeLists.txt)"
#endif

namespace aoft::sort {
namespace {

SftOptions shm_opts(const SftOptions& base) {
  SftOptions o = base;
  o.backend = transport::Backend::kShm;
  o.shm.recv_timeout_s = 5.0;
  o.shm.run_deadline_s = 60.0;
  return o;
}

std::vector<std::tuple<cube::NodeId, int, int, int>> error_keys(
    const SortRun& run) {
  std::vector<std::tuple<cube::NodeId, int, int, int>> keys;
  for (const auto& e : run.errors)
    keys.emplace_back(e.node, e.stage, e.iter, static_cast<int>(e.source));
  std::sort(keys.begin(), keys.end());
  return keys;
}

fault::NodeFaultMap kill_fault(cube::NodeId node, fault::StagePoint at) {
  fault::NodeFaultMap faults;
  faults[node].halt_at = at;
  faults[node].kill_process = true;
  return faults;
}

TEST(ShmKill, SigkilledNodeMatchesTheSimulatorsVerdict) {
  for (int dim = 2; dim <= 3; ++dim) {
    SftOptions base;
    base.block = 2;
    base.node_faults = kill_fault(1, fault::StagePoint{1, 0});
    auto input = util::random_keys(300 + static_cast<std::uint64_t>(dim),
                                   (std::size_t{1} << dim) * 2);
    auto sim_run = run_sft(dim, input, base);
    auto shm_run = run_sft(dim, input, shm_opts(base));
    ASSERT_FALSE(sim_run.errors.empty()) << "the kill script must be reached";
    EXPECT_EQ(error_keys(shm_run), error_keys(sim_run))
        << "dim=" << dim << ": verdicts diverged";
    EXPECT_EQ(classify(shm_run, input), classify(sim_run, input));
    EXPECT_EQ(classify(shm_run, input), Outcome::kFailStop);
  }
}

TEST(ShmKill, ExecModeMatchesForkMode) {
  const int dim = 2;
  SftOptions base;
  base.block = 2;
  auto input = util::random_keys(77, (std::size_t{1} << dim) * 2);

  auto fork_opts = shm_opts(base);
  auto exec_opts = shm_opts(base);
  exec_opts.shm.node_binary = AOFT_NODE_PATH;

  auto sim_run = run_sft(dim, input, base);
  auto fork_run = run_sft(dim, input, fork_opts);
  auto exec_run = run_sft(dim, input, exec_opts);
  EXPECT_EQ(exec_run.output, sim_run.output);
  EXPECT_EQ(fork_run.output, exec_run.output);
  EXPECT_TRUE(exec_run.errors.empty());
}

TEST(ShmKill, ExecModeKillVerdictMatches) {
  const int dim = 2;
  SftOptions base;
  base.node_faults = kill_fault(2, fault::StagePoint{1, 0});
  auto input = util::random_keys(555, std::size_t{1} << dim);

  auto exec_opts = shm_opts(base);
  exec_opts.shm.node_binary = AOFT_NODE_PATH;

  auto sim_run = run_sft(dim, input, base);
  auto exec_run = run_sft(dim, input, exec_opts);
  ASSERT_FALSE(sim_run.errors.empty());
  EXPECT_EQ(error_keys(exec_run), error_keys(sim_run));
  EXPECT_EQ(classify(exec_run, input), Outcome::kFailStop);
}

TEST(ShmKill, ExecModeCheckpointAndResumeMatch) {
  const int dim = 3;
  SftOptions base;
  base.block = 2;
  base.checkpoint = true;
  auto input = util::random_keys(556, (std::size_t{1} << dim) * 2);
  auto exec_opts = shm_opts(base);
  exec_opts.shm.node_binary = AOFT_NODE_PATH;

  auto sim_run = run_sft(dim, input, base);
  auto exec_run = run_sft(dim, input, exec_opts);
  EXPECT_EQ(exec_run.output, sim_run.output);
  EXPECT_EQ(error_keys(exec_run), error_keys(sim_run));
  ASSERT_EQ(exec_run.checkpoints.size(), sim_run.checkpoints.size());
  for (std::size_t i = 0; i < sim_run.checkpoints.size(); ++i) {
    EXPECT_TRUE(exec_run.checkpoints[i].certified);
    EXPECT_EQ(exec_run.checkpoints[i].state, sim_run.checkpoints[i].state);
  }

  // Re-enter at the deepest certified boundary: the resume image travels
  // through the segment to freshly exec'd nodes.
  auto rs = make_resume_state(sim_run.checkpoints);
  ASSERT_TRUE(rs.has_value());
  auto sim_resume = resume_sft(dim, *rs, base);
  auto exec_resume = resume_sft(dim, *rs, exec_opts);
  EXPECT_EQ(exec_resume.output, sim_resume.output);
  EXPECT_EQ(error_keys(exec_resume), error_keys(sim_resume));
  ASSERT_EQ(exec_resume.checkpoints.size(), sim_resume.checkpoints.size());
  for (std::size_t i = 0; i < sim_resume.checkpoints.size(); ++i)
    EXPECT_EQ(exec_resume.checkpoints[i].state,
              sim_resume.checkpoints[i].state);
  EXPECT_EQ(classify(exec_resume, input), Outcome::kCorrect);
}

TEST(ShmKill, SupervisorRecoversFromASigkilledNode) {
  const int dim = 3;
  SftOptions base;
  base.block = 2;
  base.backend = transport::Backend::kShm;
  base.shm.recv_timeout_s = 5.0;
  base.shm.run_deadline_s = 60.0;
  auto input = util::random_keys(2024, (std::size_t{1} << dim) * 2);

  const auto faults = kill_fault(3, fault::StagePoint{1, 0});
  const auto run = fault::run_supervised_sort(
      dim, input, base, fault::RecoveryPolicy{},
      [](int) -> sim::LinkInterceptor* { return nullptr; },
      [&](int attempt) -> fault::NodeFaultMap {
        // Transient: the node is killed on the first attempt only — the
        // ladder's job is to notice the death and drive a clean retry.
        return attempt == 0 ? faults : fault::NodeFaultMap{};
      });
  EXPECT_EQ(run.outcome, Outcome::kCorrect);
  EXPECT_TRUE(run.recovered) << "a fail-stop must precede the correct run";
  EXPECT_GE(run.attempts, 2);
}

}  // namespace
}  // namespace aoft::sort
