// Probabilistic soak campaigns (InjectionMode::kIndependent / kRunLength).
//
// The contract (fault/campaign.h, docs/PROTOCOL.md §10.3): a soak campaign
// is a pure function of (seed, mode, params) at every job count; the
// Theorem 3 silent-wrong == 0 assertion applies only while the faulty-node
// count stays within the <= n-1 resilience bound, and anything beyond the
// bound is recorded (with the output's dislocation) rather than counted as a
// violation.

#include "fault/campaign.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "fault/campaign_store.h"
#include "util/atomic_file.h"

namespace aoft::fault {
namespace {

CampaignConfig soak_config(InjectionMode mode, int jobs = 1) {
  CampaignConfig cfg;
  cfg.dim = 3;
  cfg.runs_per_class = 8;  // soak: total slots, there is no class axis
  cfg.seed = 0x50a7ULL;
  cfg.jobs = jobs;
  cfg.injection.mode = mode;
  cfg.injection.p = 0.05;
  cfg.injection.k = 2;
  return cfg;
}

std::string fresh_path(const std::string& name) {
  // Per process: ctest -j runs tests that share a name here concurrently.
  const std::string path = ::testing::TempDir() + "aoft_soak_" +
                           std::to_string(::getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

void expect_same_tally(const SoakTally& a, const SoakTally& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.silent_wrong_in_bound, b.silent_wrong_in_bound);
  EXPECT_EQ(a.silent_wrong_beyond, b.silent_wrong_beyond);
  EXPECT_EQ(a.beyond_bound_runs, b.beyond_bound_runs);
  EXPECT_EQ(a.multi_fired, b.multi_fired);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.max_dislocation, b.max_dislocation);
  EXPECT_EQ(a.slots_total, b.slots_total);
  EXPECT_EQ(a.slots_done, b.slots_done);
}

TEST(CampaignSoakTest, SameSeedTwiceIsByteIdentical) {
  for (const auto mode :
       {InjectionMode::kIndependent, InjectionMode::kRunLength}) {
    const auto cfg = soak_config(mode);
    expect_same_tally(run_soak_campaign(cfg), run_soak_campaign(cfg));
  }
}

TEST(CampaignSoakTest, ParallelEqualsSerialExactly) {
  for (const auto mode :
       {InjectionMode::kIndependent, InjectionMode::kRunLength}) {
    expect_same_tally(run_soak_campaign(soak_config(mode, 1)),
                      run_soak_campaign(soak_config(mode, 4)));
  }
}

TEST(CampaignSoakTest, DifferentSeedsDrawDifferentArrivals) {
  auto a_cfg = soak_config(InjectionMode::kIndependent);
  auto b_cfg = a_cfg;
  b_cfg.seed += 1;
  const auto a = run_soak_campaign(a_cfg);
  const auto b = run_soak_campaign(b_cfg);
  EXPECT_TRUE(a.faults_fired != b.faults_fired ||
              a.detected != b.detected || a.attempts != b.attempts)
      << "seed change never reached the arrival draws";
}

TEST(CampaignSoakTest, OutcomeAccountingIsComplete) {
  for (const auto mode :
       {InjectionMode::kIndependent, InjectionMode::kRunLength}) {
    const auto cfg = soak_config(mode);
    const auto t = run_soak_campaign(cfg);
    EXPECT_EQ(t.slots_total, static_cast<std::size_t>(cfg.runs_per_class));
    EXPECT_EQ(t.slots_done, t.slots_total);
    EXPECT_EQ(t.runs + t.dropped, cfg.runs_per_class);
    EXPECT_EQ(t.runs, t.detected + t.masked + t.silent_wrong_in_bound +
                          t.silent_wrong_beyond);
    EXPECT_GE(t.attempts, t.runs);
    EXPECT_GE(t.faults_fired, static_cast<long long>(t.runs));
  }
}

TEST(CampaignSoakTest, RunLengthStaysWithinTheResilienceBound) {
  // kRunLength crashes exactly one drawn node, so no run can exceed the
  // <= n-1 bound and the Theorem 3 gate applies to every slot.
  const auto t = run_soak_campaign(soak_config(InjectionMode::kRunLength));
  EXPECT_GT(t.runs, 0);
  EXPECT_EQ(t.beyond_bound_runs, 0);
  EXPECT_EQ(t.silent_wrong_beyond, 0);
  EXPECT_EQ(t.silent_wrong_in_bound, 0) << "Theorem 3 violated under soak";
  EXPECT_EQ(t.max_dislocation, 0u);
}

TEST(CampaignSoakTest, DenseIndependentArrivalsFireMultipleTimes) {
  auto cfg = soak_config(InjectionMode::kIndependent);
  cfg.injection.p = 0.3;  // dense enough that some run corrupts > 1 message
  const auto t = run_soak_campaign(cfg);
  EXPECT_GT(t.runs, 0);
  EXPECT_GT(t.multi_fired, 0) << "p=0.3 never fired twice in one run";
  EXPECT_GT(t.faults_fired, static_cast<long long>(t.runs));
}

TEST(CampaignSoakTest, InBoundSilentWrongIsAlwaysZero) {
  for (const double p : {0.01, 0.05, 0.2}) {
    auto cfg = soak_config(InjectionMode::kIndependent);
    cfg.injection.p = p;
    const auto t = run_soak_campaign(cfg);
    EXPECT_EQ(t.silent_wrong_in_bound, 0) << "p=" << p;
    // Beyond-bound runs are the only place a dislocation may be recorded.
    if (t.silent_wrong_beyond == 0) EXPECT_EQ(t.max_dislocation, 0u);
  }
}

TEST(CampaignSoakTest, SoakResumeIsBitIdentical) {
  const auto oracle = run_soak_campaign(soak_config(InjectionMode::kIndependent));

  auto oracle_stream_cfg = soak_config(InjectionMode::kIndependent);
  oracle_stream_cfg.checkpoint_path = fresh_path("oracle.ckp");
  oracle_stream_cfg.stream_path = fresh_path("oracle.jsonl");
  run_soak_campaign(oracle_stream_cfg);
  std::string oracle_stream, err;
  ASSERT_TRUE(
      util::read_file(oracle_stream_cfg.stream_path, &oracle_stream, &err))
      << err;

  auto cfg = soak_config(InjectionMode::kIndependent);
  cfg.checkpoint_path = fresh_path("resume.ckp");
  cfg.stream_path = fresh_path("resume.jsonl");
  cfg.resume = true;
  cfg.stop_after_slots = 3;
  const auto partial = run_soak_campaign(cfg);
  EXPECT_EQ(partial.slots_done, 3u);

  cfg.stop_after_slots = 0;
  expect_same_tally(oracle, run_soak_campaign(cfg));
  std::string resumed_stream;
  ASSERT_TRUE(util::read_file(cfg.stream_path, &resumed_stream, &err)) << err;
  EXPECT_EQ(resumed_stream, oracle_stream);
}

TEST(CampaignSoakTest, SoakShardsMergeToTheUnshardedTally) {
  const auto oracle_cfg = soak_config(InjectionMode::kRunLength);
  const auto oracle = run_soak_campaign(oracle_cfg);

  std::vector<CheckpointData> parts(2);
  for (int i = 0; i < 2; ++i) {
    auto cfg = oracle_cfg;
    cfg.shard_index = i;
    cfg.shard_count = 2;
    cfg.checkpoint_path = fresh_path("shard" + std::to_string(i) + ".ckp");
    run_soak_campaign(cfg);
    std::string err;
    ASSERT_EQ(load_checkpoint(cfg.checkpoint_path, &parts[i], &err),
              StoreStatus::kOk)
        << err;
  }
  CheckpointData merged;
  std::string err;
  ASSERT_EQ(merge_checkpoints(parts, &merged, &err), StoreStatus::kOk) << err;
  expect_same_tally(oracle, summarize_soak(oracle_cfg, merged));
}

// ---- max_dislocation --------------------------------------------------------

TEST(MaxDislocationTest, SortedInputIsZero) {
  const std::vector<sim::Key> sorted = {1, 2, 3, 4, 5};
  EXPECT_EQ(max_dislocation(sorted), 0u);
  EXPECT_EQ(max_dislocation(std::span<const sim::Key>{}), 0u);
}

TEST(MaxDislocationTest, AdjacentSwapIsOne) {
  const std::vector<sim::Key> keys = {1, 3, 2, 4};
  EXPECT_EQ(max_dislocation(keys), 1u);
}

TEST(MaxDislocationTest, ReversedInputIsLengthMinusOne) {
  const std::vector<sim::Key> keys = {5, 4, 3, 2, 1};
  EXPECT_EQ(max_dislocation(keys), 4u);
}

TEST(MaxDislocationTest, OneFarElementDominates) {
  // 9 belongs at the end: displaced by 4; everyone else shifts by 1.
  const std::vector<sim::Key> keys = {9, 1, 2, 3, 4};
  EXPECT_EQ(max_dislocation(keys), 4u);
}

}  // namespace
}  // namespace aoft::fault
