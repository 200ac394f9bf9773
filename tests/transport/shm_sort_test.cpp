// The backend oracle contract (docs/PROTOCOL.md §11): for identical inputs
// and fault scripts, the shared-memory multi-process backend must reproduce
// the deterministic simulator's sorted output and fail-stop verdicts.  For
// every scripted fault except kill_process the *entire* output image is
// bit-identical — a receive fails exactly when its message was never sent,
// which is the same condition on both fabrics.

#include <gtest/gtest.h>

#include <algorithm>

#include "sort/sft.h"
#include "sort/snr.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

SftOptions shm_opts(const SftOptions& base) {
  SftOptions o = base;
  o.backend = transport::Backend::kShm;
  o.shm.recv_timeout_s = 5.0;
  o.shm.run_deadline_s = 60.0;
  return o;
}

// Canonical error key: (node, stage, iter, source).  The two backends report
// the same violation set but may order reports differently (sim: delivery
// order; shm: node order).
std::vector<std::tuple<cube::NodeId, int, int, int>> error_keys(
    const SortRun& run) {
  std::vector<std::tuple<cube::NodeId, int, int, int>> keys;
  for (const auto& e : run.errors)
    keys.emplace_back(e.node, e.stage, e.iter, static_cast<int>(e.source));
  std::sort(keys.begin(), keys.end());
  return keys;
}

void expect_match(const SortRun& sim_run, const SortRun& shm_run,
                  std::span<const Key> input, const char* what) {
  EXPECT_EQ(shm_run.output, sim_run.output) << what << ": output diverged";
  EXPECT_EQ(error_keys(shm_run), error_keys(sim_run))
      << what << ": verdicts diverged";
  EXPECT_EQ(classify(shm_run, input), classify(sim_run, input)) << what;
}

TEST(ShmSortCrossCheck, FaultFreeRunsMatchTheOracle) {
  for (int dim = 1; dim <= 3; ++dim) {
    for (std::size_t m : {std::size_t{1}, std::size_t{4}}) {
      SftOptions base;
      base.block = m;
      auto input = util::random_keys(
          1000 + static_cast<std::uint64_t>(dim) * 10 + m,
          (std::size_t{1} << dim) * m);
      auto sim_run = run_sft(dim, input, base);
      auto shm_run = run_sft(dim, input, shm_opts(base));
      ASSERT_TRUE(shm_run.errors.empty())
          << "dim=" << dim << " m=" << m
          << " first: " << shm_run.errors.front().detail;
      expect_match(sim_run, shm_run, input, "fault-free");
    }
  }
}

TEST(ShmSortCrossCheck, Dim4FaultFreeMatches) {
  SftOptions base;
  base.block = 2;
  auto input = util::random_keys(4242, (std::size_t{1} << 4) * 2);
  auto sim_run = run_sft(4, input, base);
  auto shm_run = run_sft(4, input, shm_opts(base));
  expect_match(sim_run, shm_run, input, "dim-4 fault-free");
}

TEST(ShmSortCrossCheck, HaltFaultYieldsIdenticalFailStop) {
  for (int dim = 2; dim <= 3; ++dim) {
    SftOptions base;
    base.node_faults[1].halt_at = fault::StagePoint{1, 0};
    auto input = util::random_keys(7 + static_cast<std::uint64_t>(dim),
                                   std::size_t{1} << dim);
    auto sim_run = run_sft(dim, input, base);
    auto shm_run = run_sft(dim, input, shm_opts(base));
    ASSERT_FALSE(sim_run.errors.empty());
    expect_match(sim_run, shm_run, input, "halt");
  }
}

TEST(ShmSortCrossCheck, InvertAndSubstituteFaultsMatch) {
  const int dim = 3;
  auto input = util::random_keys(99, std::size_t{1} << dim);

  SftOptions invert;
  invert.node_faults[3].invert_direction_from = fault::StagePoint{1, 1};
  expect_match(run_sft(dim, input, invert),
               run_sft(dim, input, shm_opts(invert)), input, "invert");

  SftOptions subst;
  subst.node_faults[5].substitute_at = fault::StagePoint{1, 1};
  subst.node_faults[5].substitute_value = 123456;
  expect_match(run_sft(dim, input, subst),
               run_sft(dim, input, shm_opts(subst)), input, "substitute");
}

TEST(ShmSortCrossCheck, CheckpointCertificationMatches) {
  const int dim = 3;
  SftOptions base;
  base.block = 2;
  base.checkpoint = true;
  auto input = util::random_keys(555, (std::size_t{1} << dim) * 2);
  auto sim_run = run_sft(dim, input, base);
  auto shm_run = run_sft(dim, input, shm_opts(base));
  expect_match(sim_run, shm_run, input, "checkpoint");
  ASSERT_EQ(shm_run.checkpoints.size(), sim_run.checkpoints.size());
  for (std::size_t i = 0; i < sim_run.checkpoints.size(); ++i) {
    EXPECT_EQ(shm_run.checkpoints[i].certified,
              sim_run.checkpoints[i].certified)
        << "stage " << sim_run.checkpoints[i].stage;
    EXPECT_EQ(shm_run.checkpoints[i].state, sim_run.checkpoints[i].state);
  }
}

TEST(ShmSortCrossCheck, ResumeFromCertifiedCheckpointMatches) {
  const int dim = 3;
  SftOptions base;
  base.checkpoint = true;
  auto input = util::random_keys(31337, std::size_t{1} << dim);
  auto first = run_sft(dim, input, base);
  auto rs = make_resume_state(first.checkpoints);
  ASSERT_TRUE(rs.has_value());
  SftOptions plain;
  auto sim_run = resume_sft(dim, *rs, plain);
  auto shm_run = resume_sft(dim, *rs, shm_opts(plain));
  expect_match(sim_run, shm_run, input, "resume");
  EXPECT_EQ(classify(shm_run, input), Outcome::kCorrect);
}

TEST(ShmSortCrossCheck, LinkEventMultisetsMatchCanonically) {
  const int dim = 2;
  SftOptions base;
  base.record_link_events = true;
  auto input = util::random_keys(11, std::size_t{1} << dim);
  auto sim_run = run_sft(dim, input, base);
  auto shm_run = run_sft(dim, input, shm_opts(base));

  const auto canon = [](std::vector<sim::LinkEvent> evs) {
    const auto key = [](const sim::LinkEvent& e) {
      return std::make_tuple(e.stage, e.iter, e.from, e.to, e.to_host,
                             e.from_host, static_cast<int>(e.kind), e.words,
                             e.delivered);
    };
    std::sort(evs.begin(), evs.end(),
              [&](const sim::LinkEvent& a, const sim::LinkEvent& b) {
                return key(a) < key(b);
              });
    std::vector<std::tuple<int, int, cube::NodeId, cube::NodeId, bool, bool,
                           int, std::uint32_t, bool>>
        keys;
    for (const auto& e : evs) keys.push_back(key(e));
    return keys;
  };
  ASSERT_FALSE(shm_run.link_events.empty());
  EXPECT_EQ(canon(shm_run.link_events), canon(sim_run.link_events));
}

TEST(ShmSortCrossCheck, SnrBackendMatchesAndStaysUnprotected) {
  const int dim = 3;
  auto input = util::random_keys(77, std::size_t{1} << dim);

  SnrOptions base;
  auto sim_run = run_snr(dim, input, base);
  SnrOptions shm = base;
  shm.backend = transport::Backend::kShm;
  shm.shm.recv_timeout_s = 5.0;
  auto shm_run = run_snr(dim, input, shm);
  EXPECT_EQ(shm_run.output, sim_run.output);
  EXPECT_EQ(classify(shm_run, input), Outcome::kCorrect);

  // Unprotected under a substitution: silent-wrong on both fabrics.
  SnrOptions bad = base;
  bad.node_faults[2].substitute_at = fault::StagePoint{1, 1};
  bad.node_faults[2].substitute_value = 999999;
  auto sim_bad = run_snr(dim, input, bad);
  SnrOptions shm_bad = bad;
  shm_bad.backend = transport::Backend::kShm;
  shm_bad.shm.recv_timeout_s = 5.0;
  auto shm_bad_run = run_snr(dim, input, shm_bad);
  EXPECT_EQ(shm_bad_run.output, sim_bad.output);
  EXPECT_EQ(classify(shm_bad_run, input), classify(sim_bad, input));
}

TEST(ShmSortCrossCheck, ExecModeSnrMatchesTheOracle) {
  const int dim = 3;
  SnrOptions base;
  base.block = 2;
  base.node_faults[2].substitute_at = fault::StagePoint{1, 1};
  base.node_faults[2].substitute_value = 999999;
  auto input = util::random_keys(78, (std::size_t{1} << dim) * 2);
  SnrOptions exec = base;
  exec.backend = transport::Backend::kShm;
  exec.shm.recv_timeout_s = 5.0;
  exec.shm.node_binary = AOFT_NODE_PATH;
  expect_match(run_snr(dim, input, base), run_snr(dim, input, exec), input,
               "exec snr");
}

TEST(ShmSortCrossCheck, RejectsInProcessAffordances) {
  auto input = util::random_keys(1, 4);
  SftOptions with_machine;
  with_machine.backend = transport::Backend::kShm;
  sim::Machine mach(cube::Topology{2}, {});
  with_machine.machine = &mach;
  EXPECT_THROW(run_sft(2, input, with_machine), std::invalid_argument);

  SftOptions with_observer;
  with_observer.backend = transport::Backend::kShm;
  with_observer.observer = [](const StageSnapshot&) {};
  EXPECT_THROW(run_sft(2, input, with_observer), std::invalid_argument);

  // A stopped shm child never exits: the run would wait out its deadline.
  SftOptions wedged = shm_opts({});
  wedged.node_faults[1].halt_at = fault::StagePoint{1, 0};
  wedged.node_faults[1].wedge_process = true;
  EXPECT_THROW(run_sft(2, input, wedged), std::invalid_argument);

  // Exec'd nodes rebuild their options from the segment and cannot see an
  // in-process interceptor: the script would silently run fault-free.
  struct PassThrough : sim::LinkInterceptor {
    bool on_send(cube::NodeId, cube::NodeId, sim::Message&) override {
      return true;
    }
  } pass;
  SftOptions exec_icpt = shm_opts({});
  exec_icpt.interceptor = &pass;
  exec_icpt.shm.node_binary = AOFT_NODE_PATH;
  EXPECT_THROW(run_sft(2, input, exec_icpt), std::invalid_argument);
  SnrOptions snr_icpt;
  snr_icpt.backend = transport::Backend::kShm;
  snr_icpt.interceptor = &pass;
  snr_icpt.shm.node_binary = AOFT_NODE_PATH;
  EXPECT_THROW(run_snr(2, input, snr_icpt), std::invalid_argument);
}

// A forked node keeps its machine's interceptor, so its sends take the
// copying path the simulator takes and the interceptor sees (and mutates)
// the same gossip.  Node 1's stage-1 reply to node 3 carries node 3's own
// block; bumping one of those keys must trip node 3's Φ_C at (1, 1) on
// every fabric.
TEST(ShmSortCrossCheck, InterceptedGossipGivesTheSimsPhiCFailStop) {
  struct BumpCoveredKey : sim::LinkInterceptor {
    std::size_t m = 1;
    bool on_send(cube::NodeId from, cube::NodeId to, sim::Message& msg) override {
      if (from == 1 && to == 3 && msg.stage == 1 && msg.iter == 1 &&
          msg.lbs.size() >= 4 * m)
        msg.lbs[3 * m + m / 2] += 1;
      return true;
    }
  };
  for (const int dim : {2, 3}) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{512}}) {
      BumpCoveredKey bump;
      bump.m = m;
      SftOptions base;
      base.block = m;
      base.interceptor = &bump;
      auto input = util::random_keys(
          9100 + static_cast<std::uint64_t>(dim) * 10 + m,
          (std::size_t{1} << dim) * m);
      const auto sim_run = run_sft(dim, input, base);
      // Node 3's fail-stop; its partners then time out waiting on it.
      const auto phi_c = std::make_tuple(
          cube::NodeId{3}, 1, 1, static_cast<int>(sim::ErrorSource::kPhiC));
      const auto keys = error_keys(sim_run);
      EXPECT_EQ(std::count_if(keys.begin(), keys.end(),
                              [](const auto& k) {
                                return std::get<3>(k) != static_cast<int>(
                                           sim::ErrorSource::kTimeout);
                              }),
                1)
          << "dim=" << dim << " m=" << m;
      EXPECT_NE(std::find(keys.begin(), keys.end(), phi_c), keys.end());
      expect_match(sim_run, run_sft(dim, input, shm_opts(base)), input,
                   "intercepted gossip");
    }
  }
}

}  // namespace
}  // namespace aoft::sort
