// The backend oracle contract over sockets (docs/PROTOCOL.md §11, §13): for
// identical inputs and fault scripts the tcp backend — one OS process per
// node over framed loopback connections — must reproduce the deterministic
// simulator's sorted output and fail-stop verdicts, exactly as the shm
// backend does.  For every scripted fault except process death the *entire*
// output image is bit-identical; kill scripts compare verdicts only (the
// SIGKILLed child dies before publishing its block).

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "sort/sft.h"
#include "sort/snr.h"
#include "util/rng.h"

#ifndef AOFT_NODE_PATH
#error "build must define AOFT_NODE_PATH (see tests/CMakeLists.txt)"
#endif

namespace aoft::sort {
namespace {

SftOptions tcp_opts(const SftOptions& base) {
  SftOptions o = base;
  o.backend = transport::Backend::kTcp;
  o.tcp.recv_timeout_s = 5.0;
  o.tcp.run_deadline_s = 60.0;
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

void expect_match(const SortRun& sim_run, const SortRun& tcp_run,
                  std::span<const Key> input, const char* what) {
  EXPECT_EQ(tcp_run.output, sim_run.output) << what << ": output diverged";
  EXPECT_EQ(error_keys(tcp_run), error_keys(sim_run))
      << what << ": verdicts diverged";
  EXPECT_EQ(classify(tcp_run, input), classify(sim_run, input)) << what;
}

TEST(TcpSortCrossCheck, FaultFreeRunsMatchTheOracle) {
  for (int dim = 1; dim <= 3; ++dim) {
    for (std::size_t m : {std::size_t{1}, std::size_t{4}}) {
      SftOptions base;
      base.block = m;
      auto input = util::random_keys(
          5000 + static_cast<std::uint64_t>(dim) * 10 + m,
          (std::size_t{1} << dim) * m);
      auto sim_run = run_sft(dim, input, base);
      auto tcp_run = run_sft(dim, input, tcp_opts(base));
      ASSERT_TRUE(tcp_run.errors.empty())
          << "dim=" << dim << " m=" << m
          << " first: " << tcp_run.errors.front().detail;
      expect_match(sim_run, tcp_run, input, "fault-free");
    }
  }
}

TEST(TcpSortCrossCheck, Dim0SingleNodeRuns) {
  SftOptions base;
  base.block = 4;
  auto input = util::random_keys(11, 4);
  auto sim_run = run_sft(0, input, base);
  auto tcp_run = run_sft(0, input, tcp_opts(base));
  expect_match(sim_run, tcp_run, input, "dim-0");
}

TEST(TcpSortCrossCheck, HaltFaultYieldsIdenticalFailStop) {
  for (int dim = 2; dim <= 3; ++dim) {
    SftOptions base;
    base.node_faults[1].halt_at = fault::StagePoint{1, 0};
    auto input = util::random_keys(8000 + static_cast<std::uint64_t>(dim),
                                   std::size_t{1} << dim);
    auto sim_run = run_sft(dim, input, base);
    auto tcp_run = run_sft(dim, input, tcp_opts(base));
    ASSERT_FALSE(sim_run.errors.empty());
    expect_match(sim_run, tcp_run, input, "halt");
  }
}

TEST(TcpSortCrossCheck, InvertAndSubstituteFaultsMatch) {
  const int dim = 3;
  auto input = util::random_keys(8099, std::size_t{1} << dim);

  SftOptions invert;
  invert.node_faults[3].invert_direction_from = fault::StagePoint{1, 1};
  expect_match(run_sft(dim, input, invert),
               run_sft(dim, input, tcp_opts(invert)), input, "invert");

  SftOptions subst;
  subst.node_faults[5].substitute_at = fault::StagePoint{1, 1};
  subst.node_faults[5].substitute_value = 123456;
  expect_match(run_sft(dim, input, subst),
               run_sft(dim, input, tcp_opts(subst)), input, "substitute");
}

TEST(TcpSortCrossCheck, SigkilledNodeMatchesTheSimulatorsVerdict) {
  const int dim = 3;
  SftOptions base;
  base.block = 2;
  base.node_faults[1].halt_at = fault::StagePoint{1, 0};
  base.node_faults[1].kill_process = true;
  auto input = util::random_keys(8300, (std::size_t{1} << dim) * 2);
  auto sim_run = run_sft(dim, input, base);
  auto tcp_run = run_sft(dim, input, tcp_opts(base));
  ASSERT_FALSE(sim_run.errors.empty()) << "the kill script must be reached";
  EXPECT_EQ(error_keys(tcp_run), error_keys(sim_run));
  EXPECT_EQ(classify(tcp_run, input), classify(sim_run, input));
  EXPECT_EQ(classify(tcp_run, input), Outcome::kFailStop);
}

TEST(TcpSortCrossCheck, ExecModeMatchesForkMode) {
  const int dim = 2;
  SftOptions base;
  base.block = 2;
  auto input = util::random_keys(8077, (std::size_t{1} << dim) * 2);

  auto exec_opts = tcp_opts(base);
  exec_opts.tcp.node_binary = AOFT_NODE_PATH;

  auto sim_run = run_sft(dim, input, base);
  auto fork_run = run_sft(dim, input, tcp_opts(base));
  auto exec_run = run_sft(dim, input, exec_opts);
  EXPECT_EQ(exec_run.output, sim_run.output);
  EXPECT_EQ(fork_run.output, exec_run.output);
  EXPECT_TRUE(exec_run.errors.empty());
}

TEST(TcpSortCrossCheck, ExecModeHaltVerdictMatches) {
  const int dim = 2;
  SftOptions base;
  base.node_faults[2].halt_at = fault::StagePoint{1, 0};
  auto input = util::random_keys(8555, std::size_t{1} << dim);

  auto exec_opts = tcp_opts(base);
  exec_opts.tcp.node_binary = AOFT_NODE_PATH;

  auto sim_run = run_sft(dim, input, base);
  auto exec_run = run_sft(dim, input, exec_opts);
  ASSERT_FALSE(sim_run.errors.empty());
  expect_match(sim_run, exec_run, input, "exec halt");
}

TEST(TcpSortCrossCheck, CheckpointCertificationMatches) {
  const int dim = 3;
  SftOptions base;
  base.block = 2;
  base.checkpoint = true;
  auto input = util::random_keys(8655, (std::size_t{1} << dim) * 2);
  auto sim_run = run_sft(dim, input, base);
  auto tcp_run = run_sft(dim, input, tcp_opts(base));
  expect_match(sim_run, tcp_run, input, "checkpoint");
  ASSERT_EQ(tcp_run.checkpoints.size(), sim_run.checkpoints.size());
  for (std::size_t i = 0; i < sim_run.checkpoints.size(); ++i) {
    EXPECT_EQ(tcp_run.checkpoints[i].certified,
              sim_run.checkpoints[i].certified)
        << "stage " << sim_run.checkpoints[i].stage;
    EXPECT_EQ(tcp_run.checkpoints[i].state, sim_run.checkpoints[i].state);
  }
}

TEST(TcpSortCrossCheck, SnrMatchesTheOracle) {
  const int dim = 3;
  SnrOptions base;
  base.block = 2;
  auto input = util::random_keys(8777, (std::size_t{1} << dim) * 2);

  SnrOptions tcp = base;
  tcp.backend = transport::Backend::kTcp;
  tcp.tcp.recv_timeout_s = 5.0;
  tcp.tcp.run_deadline_s = 60.0;

  auto sim_run = run_snr(dim, input, base);
  auto tcp_run = run_snr(dim, input, tcp);
  EXPECT_EQ(tcp_run.output, sim_run.output);
  EXPECT_EQ(classify(tcp_run, input), Outcome::kCorrect);
}

TEST(TcpSortCrossCheck, ExecModeSnrMatchesTheOracle) {
  const int dim = 3;
  SnrOptions base;
  base.block = 2;
  base.node_faults[2].substitute_at = fault::StagePoint{1, 1};
  base.node_faults[2].substitute_value = 999999;
  auto input = util::random_keys(8778, (std::size_t{1} << dim) * 2);
  SnrOptions exec = base;
  exec.backend = transport::Backend::kTcp;
  exec.tcp.recv_timeout_s = 5.0;
  exec.tcp.run_deadline_s = 60.0;
  exec.tcp.node_binary = AOFT_NODE_PATH;
  expect_match(run_snr(dim, input, base), run_snr(dim, input, exec), input,
               "exec snr");
}

void expect_same_checkpoints(const SortRun& sim_run, const SortRun& tcp_run) {
  ASSERT_EQ(tcp_run.checkpoints.size(), sim_run.checkpoints.size());
  for (std::size_t i = 0; i < sim_run.checkpoints.size(); ++i) {
    EXPECT_EQ(tcp_run.checkpoints[i].certified,
              sim_run.checkpoints[i].certified)
        << "stage " << sim_run.checkpoints[i].stage;
    EXPECT_EQ(tcp_run.checkpoints[i].state, sim_run.checkpoints[i].state);
  }
}

TEST(TcpSortCrossCheck, ResumeFromCertifiedCheckpointMatches) {
  const int dim = 3;
  SftOptions base;
  base.block = 2;
  base.checkpoint = true;
  auto input = util::random_keys(8999, (std::size_t{1} << dim) * 2);
  auto rs = make_resume_state(run_sft(dim, input, base).checkpoints);
  ASSERT_TRUE(rs.has_value());
  auto sim_run = resume_sft(dim, *rs, base);
  auto tcp_run = resume_sft(dim, *rs, tcp_opts(base));
  expect_match(sim_run, tcp_run, input, "resume");
  expect_same_checkpoints(sim_run, tcp_run);
  EXPECT_EQ(classify(tcp_run, input), Outcome::kCorrect);
}

TEST(TcpSortCrossCheck, ExecModeCheckpointAndResumeMatch) {
  const int dim = 3;
  SftOptions base;
  base.block = 2;
  base.checkpoint = true;
  auto input = util::random_keys(9001, (std::size_t{1} << dim) * 2);
  auto exec_opts = tcp_opts(base);
  exec_opts.tcp.node_binary = AOFT_NODE_PATH;

  auto sim_run = run_sft(dim, input, base);
  auto exec_run = run_sft(dim, input, exec_opts);
  expect_match(sim_run, exec_run, input, "exec checkpoint");
  expect_same_checkpoints(sim_run, exec_run);

  // The resume image rides the CONFIG frame to freshly exec'd nodes.
  auto rs = make_resume_state(sim_run.checkpoints);
  ASSERT_TRUE(rs.has_value());
  auto sim_resume = resume_sft(dim, *rs, base);
  auto exec_resume = resume_sft(dim, *rs, exec_opts);
  expect_match(sim_resume, exec_resume, input, "exec resume");
  expect_same_checkpoints(sim_resume, exec_resume);
}

TEST(TcpSortCrossCheck, RejectsInProcessAffordances) {
  auto input = util::random_keys(2, 4);
  SftOptions with_machine = tcp_opts({});
  sim::Machine mach(cube::Topology{2}, {});
  with_machine.machine = &mach;
  EXPECT_THROW(run_sft(2, input, with_machine), std::invalid_argument);

  SftOptions with_observer = tcp_opts({});
  with_observer.observer = [](const StageSnapshot&) {};
  EXPECT_THROW(run_sft(2, input, with_observer), std::invalid_argument);

  // Exec'd nodes rebuild their options from CONFIG and cannot see an
  // in-process interceptor: the script would silently run fault-free.
  struct PassThrough : sim::LinkInterceptor {
    bool on_send(cube::NodeId, cube::NodeId, sim::Message&) override {
      return true;
    }
  } pass;
  SftOptions exec_icpt = tcp_opts({});
  exec_icpt.interceptor = &pass;
  exec_icpt.tcp.node_binary = AOFT_NODE_PATH;
  EXPECT_THROW(run_sft(2, input, exec_icpt), std::invalid_argument);
  SnrOptions snr_icpt;
  snr_icpt.backend = transport::Backend::kTcp;
  snr_icpt.interceptor = &pass;
  snr_icpt.tcp.node_binary = AOFT_NODE_PATH;
  EXPECT_THROW(run_snr(2, input, snr_icpt), std::invalid_argument);
}

TEST(TcpSortCrossCheck, LinkEventTrafficMatchesTheOracle) {
  const int dim = 2;
  SftOptions base;
  base.record_link_events = true;
  auto input = util::random_keys(8888, std::size_t{1} << dim);
  auto sim_run = run_sft(dim, input, base);
  auto tcp_run = run_sft(dim, input, tcp_opts(base));
  expect_match(sim_run, tcp_run, input, "link events");

  // Both backends record sender-side events; under the shared canonical
  // order the multisets must be identical message for message.
  auto key = [](const sim::LinkEvent& e) {
    return std::tuple(e.stage, e.iter, e.from, e.to, e.to_host, e.from_host,
                      static_cast<int>(e.kind), e.words, e.delivered);
  };
  auto canon = [&](std::vector<sim::LinkEvent> evs) {
    std::sort(evs.begin(), evs.end(),
              [&](const auto& x, const auto& y) { return key(x) < key(y); });
    return evs;
  };
  const auto a = canon(sim_run.link_events);
  const auto b = canon(tcp_run.link_events);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(key(a[i]), key(b[i])) << "event " << i;
}

// A forked node keeps its machine's interceptor, so its sends take the
// copying path the simulator takes and the interceptor sees (and mutates)
// the same gossip.  Node 1's stage-1 reply to node 3 carries node 3's own
// block; bumping one of those keys must trip node 3's Φ_C at (1, 1) on
// every fabric.
TEST(TcpSortCrossCheck, InterceptedGossipGivesTheSimsPhiCFailStop) {
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
      expect_match(sim_run, run_sft(dim, input, tcp_opts(base)), input,
                   "intercepted gossip");
    }
  }
}

}  // namespace
}  // namespace aoft::sort
