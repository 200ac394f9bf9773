// Every JobConfig field a node program reads, exercised on all three
// fabrics.  The simulator, shm and tcp run one node program through one
// driver; these cases turn each predicate toggle off under a fault script
// that predicate would otherwise catch, switch on checkpointing and the
// link-event log, and resume from a certified checkpoint.  All three fabrics
// must agree on the output, the canonical error tuples, the deaths, the
// canonical link events and the certified checkpoints.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <tuple>
#include <vector>

#include "fault/adversary.h"
#include "sort/sft.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

constexpr int kDim = 3;
constexpr std::size_t kBlock = 2;

using ErrorKey = std::tuple<cube::NodeId, int, int, int>;

std::vector<ErrorKey> error_keys(const SortRun& run) {
  std::vector<ErrorKey> keys;
  for (const auto& e : run.errors)
    keys.emplace_back(e.node, e.stage, e.iter, static_cast<int>(e.source));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Process fabrics publish link events in canonical order; sort the sim's
// the same way (docs/PROTOCOL.md §11.2).
using EventKey =
    std::tuple<int, int, cube::NodeId, cube::NodeId, bool, bool, int,
               std::uint32_t, bool>;

std::vector<EventKey> event_keys(const SortRun& run) {
  std::vector<EventKey> keys;
  for (const auto& e : run.link_events)
    keys.emplace_back(e.stage, e.iter, e.from, e.to, e.to_host, e.from_host,
                      static_cast<int>(e.kind), e.words, e.delivered);
  std::sort(keys.begin(), keys.end());
  return keys;
}

SftOptions on_fabric(SftOptions o, transport::Backend backend) {
  o.backend = backend;
  o.shm.recv_timeout_s = o.tcp.recv_timeout_s = 5.0;
  o.shm.run_deadline_s = o.tcp.run_deadline_s = 60.0;
  return o;
}

// Runs `sort` with `base` on the simulator, shm and tcp and checks that the
// process fabrics reproduce the simulator.  Returns the simulator's run.
SortRun expect_fabrics_agree(
    const SftOptions& base, std::span<const Key> input,
    const std::function<SortRun(const SftOptions&)>& sort, const char* what) {
  const SortRun sim_run = sort(base);
  for (auto backend : {transport::Backend::kShm, transport::Backend::kTcp}) {
    const SortRun run = sort(on_fabric(base, backend));
    const char* fabric = transport::to_string(backend);
    EXPECT_EQ(run.output, sim_run.output) << what << " on " << fabric;
    EXPECT_EQ(error_keys(run), error_keys(sim_run)) << what << " on " << fabric;
    EXPECT_EQ(run.deaths, sim_run.deaths) << what << " on " << fabric;
    EXPECT_EQ(event_keys(run), event_keys(sim_run))
        << what << " on " << fabric;
    EXPECT_EQ(classify(run, input), classify(sim_run, input))
        << what << " on " << fabric;
    EXPECT_EQ(run.checkpoints.size(), sim_run.checkpoints.size())
        << what << " on " << fabric;
    const std::size_t both =
        std::min(run.checkpoints.size(), sim_run.checkpoints.size());
    for (std::size_t k = 0; k < both; ++k) {
      EXPECT_EQ(run.checkpoints[k].certified, sim_run.checkpoints[k].certified)
          << what << " on " << fabric << ", checkpoint " << k;
      EXPECT_EQ(run.checkpoints[k].state, sim_run.checkpoints[k].state)
          << what << " on " << fabric << ", checkpoint " << k;
    }
  }
  return sim_run;
}

SftOptions base_options() {
  SftOptions o;
  o.block = kBlock;
  o.record_link_events = true;
  return o;
}

// Runs the script with every predicate on and with `off` cleared.  The
// simulator's first detector with everything on must be `catcher` (so the
// script is one the disabled predicate catches), the verdicts must change
// once it is off, and every fabric must agree on the ablated run.
void expect_ablation_agrees(SftOptions script, bool SftOptions::*off,
                            sim::ErrorSource catcher, const char* what) {
  const auto input = util::random_keys(4242, (std::size_t{1} << kDim) * kBlock);
  const auto sort = [&input](const SftOptions& o) {
    return run_sft(kDim, input, o);
  };
  const SortRun all_on = sort(script);
  ASSERT_FALSE(all_on.errors.empty()) << what;
  EXPECT_EQ(all_on.errors.front().source, catcher) << what;

  script.*off = false;
  const SortRun ablated = expect_fabrics_agree(script, input, sort, what);
  EXPECT_NE(error_keys(ablated), error_keys(all_on))
      << what << ": the toggle changed nothing";
}

TEST(FabricJobConfig, ProgressOffAgrees) {
  // A consistent liar at stage 1: Φ_P convicts first; without it Φ_F does.
  SftOptions o = base_options();
  o.node_faults[0].substitute_at = fault::StagePoint{1, 0};
  o.node_faults[0].substitute_value = 99999;
  expect_ablation_agrees(o, &SftOptions::check_progress,
                         sim::ErrorSource::kPhiP, "check_progress off");
}

TEST(FabricJobConfig, FeasibilityOffAgrees) {
  // Only Φ_F catches this liar: without it the sort ends silently wrong.
  SftOptions o = base_options();
  o.node_faults[3].substitute_at = fault::StagePoint{1, 0};
  o.node_faults[3].substitute_value = 99999;
  expect_ablation_agrees(o, &SftOptions::check_feasibility,
                         sim::ErrorSource::kPhiF, "check_feasibility off");
}

TEST(FabricJobConfig, ConsistencyOffAgrees) {
  // Two-faced gossip, which Φ_C convicts; without it Φ_P does, later.  The
  // interceptor reaches the forked nodes of both process fabrics.
  fault::Adversary adversary;
  adversary.add(fault::two_faced_gossip(
      2, {1, 0}, 3, 777, kBlock,
      [](cube::NodeId dest) { return (dest & 1u) == 1u; }));
  SftOptions o = base_options();
  o.interceptor = &adversary;
  expect_ablation_agrees(o, &SftOptions::check_consistency,
                         sim::ErrorSource::kPhiC, "check_consistency off");
}

TEST(FabricJobConfig, ExchangeOffAgrees) {
  // A corrupted (a, b) reply: the pair check convicts on receipt; without it
  // the stage-boundary Φ_F does.
  fault::Adversary adversary;
  adversary.add(fault::corrupt_data(4, {1, 1}, 999));
  SftOptions o = base_options();
  o.interceptor = &adversary;
  expect_ablation_agrees(o, &SftOptions::check_exchange,
                         sim::ErrorSource::kPhiF, "check_exchange off");
}

TEST(FabricJobConfig, CheckpointAndLinkEventsAgree) {
  const auto input = util::random_keys(4343, (std::size_t{1} << kDim) * kBlock);
  const auto sort = [&input](const SftOptions& o) {
    return run_sft(kDim, input, o);
  };
  SftOptions o = base_options();
  o.checkpoint = true;
  const SortRun clean = expect_fabrics_agree(o, input, sort, "checkpoint");
  EXPECT_EQ(classify(clean, input), Outcome::kCorrect);
  ASSERT_EQ(clean.checkpoints.size(), static_cast<std::size_t>(kDim));
  for (const auto& ck : clean.checkpoints) EXPECT_TRUE(ck.certified);
  EXPECT_TRUE(std::ranges::any_of(clean.link_events, [](const auto& e) {
    return e.to_host && e.kind == sim::MsgKind::kCheckpoint;
  }));

  o.node_faults[6].halt_at = fault::StagePoint{2, 0};
  const SortRun halted =
      expect_fabrics_agree(o, input, sort, "checkpoint with a halt");
  EXPECT_EQ(classify(halted, input), Outcome::kFailStop);
}

TEST(FabricJobConfig, ResumeFromCertifiedCheckpointAgrees) {
  const auto input = util::random_keys(4444, (std::size_t{1} << kDim) * kBlock);
  SftOptions o = base_options();
  o.checkpoint = true;
  const auto rs = make_resume_state(run_sft(kDim, input, o).checkpoints);
  ASSERT_TRUE(rs.has_value());
  ASSERT_EQ(rs->stage, kDim - 1);
  const auto resume = [&rs](const SftOptions& opts) {
    return resume_sft(kDim, *rs, opts);
  };
  const SortRun clean = expect_fabrics_agree(o, input, resume, "resume");
  EXPECT_EQ(classify(clean, input), Outcome::kCorrect);

  o.node_faults[5].invert_direction_from = fault::StagePoint{2, 2};
  const SortRun faulty =
      expect_fabrics_agree(o, input, resume, "resume with an inverter");
  EXPECT_EQ(classify(faulty, input), Outcome::kFailStop);
}

}  // namespace
}  // namespace aoft::sort
