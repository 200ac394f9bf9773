// Determinism suite for the parallel campaign engine.
//
// The contract (fault/campaign.h, docs/PROTOCOL.md §8): a CampaignSummary is
// a pure function of CampaignConfig — same seed twice gives byte-identical
// results, and the job count changes wall-clock only, never a single field.
// These tests compare every field of every tally and every recorded run, so
// any nondeterminism (shared RNG, out-of-order aggregation, data race on a
// tally) fails loudly rather than shifting a percentage point in a bench.

#include "fault/campaign.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace_io.h"

namespace aoft::fault {
namespace {

void expect_same_tally(const ClassTally& a, const ClassTally& b) {
  EXPECT_EQ(a.fclass, b.fclass);
  EXPECT_EQ(a.runs, b.runs) << to_string(a.fclass);
  EXPECT_EQ(a.detected, b.detected) << to_string(a.fclass);
  EXPECT_EQ(a.masked, b.masked) << to_string(a.fclass);
  EXPECT_EQ(a.silent_wrong, b.silent_wrong) << to_string(a.fclass);
  EXPECT_EQ(a.attempts, b.attempts) << to_string(a.fclass);
  EXPECT_EQ(a.dropped, b.dropped) << to_string(a.fclass);
}

void expect_same_run(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.scenario.fclass, b.scenario.fclass);
  EXPECT_EQ(a.scenario.dim, b.scenario.dim);
  EXPECT_EQ(a.scenario.block, b.scenario.block);
  EXPECT_EQ(a.scenario.faulty, b.scenario.faulty);
  EXPECT_EQ(a.scenario.point, b.scenario.point);
  EXPECT_EQ(a.scenario.delta, b.scenario.delta);
  EXPECT_EQ(a.scenario.input_seed, b.scenario.input_seed);
  EXPECT_EQ(a.scenario.aux_node, b.scenario.aux_node);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.fault_exercised, b.fault_exercised);
  EXPECT_EQ(a.first_detector, b.first_detector);
  EXPECT_EQ(a.detection_stage, b.detection_stage);
}

void expect_same_summary(const CampaignSummary& a, const CampaignSummary& b) {
  ASSERT_EQ(a.sft.size(), b.sft.size());
  ASSERT_EQ(a.snr.size(), b.snr.size());
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.sft.size(); ++i) {
    expect_same_tally(a.sft[i], b.sft[i]);
    expect_same_tally(a.snr[i], b.snr[i]);
  }
  for (std::size_t i = 0; i < a.runs.size(); ++i)
    expect_same_run(a.runs[i], b.runs[i]);
}

void expect_same_multi(const std::vector<MultiTally>& a,
                       const std::vector<MultiTally>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].k, b[i].k);
    EXPECT_EQ(a[i].runs, b[i].runs) << "k=" << a[i].k;
    EXPECT_EQ(a[i].detected, b[i].detected) << "k=" << a[i].k;
    EXPECT_EQ(a[i].masked, b[i].masked) << "k=" << a[i].k;
    EXPECT_EQ(a[i].silent_wrong, b[i].silent_wrong) << "k=" << a[i].k;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "k=" << a[i].k;
    EXPECT_EQ(a[i].dropped, b[i].dropped) << "k=" << a[i].k;
  }
}

CampaignConfig small_config(int jobs) {
  CampaignConfig cfg;
  cfg.dim = 3;
  cfg.runs_per_class = 4;
  cfg.seed = 0xfeedULL;
  cfg.jobs = jobs;
  return cfg;
}

TEST(CampaignDeterminismTest, SameSeedTwiceIsByteIdentical) {
  const auto cfg = small_config(1);
  expect_same_summary(run_campaign(cfg), run_campaign(cfg));
}

TEST(CampaignDeterminismTest, ParallelEqualsSerialExactly) {
  const auto serial = run_campaign(small_config(1));
  const auto parallel = run_campaign(small_config(4));
  expect_same_summary(serial, parallel);
}

TEST(CampaignDeterminismTest, HardwareConcurrencyEqualsSerial) {
  const auto serial = run_campaign(small_config(1));
  const auto parallel = run_campaign(small_config(0));  // 0 = one per CPU
  expect_same_summary(serial, parallel);
}

TEST(CampaignDeterminismTest, DifferentSeedsDiffer) {
  auto a_cfg = small_config(1);
  auto b_cfg = small_config(1);
  b_cfg.seed = a_cfg.seed + 1;
  const auto a = run_campaign(a_cfg);
  const auto b = run_campaign(b_cfg);
  ASSERT_FALSE(a.runs.empty());
  ASSERT_FALSE(b.runs.empty());
  bool any_difference = false;
  for (std::size_t i = 0; i < std::min(a.runs.size(), b.runs.size()); ++i)
    any_difference |= a.runs[i].scenario.input_seed != b.runs[i].scenario.input_seed;
  EXPECT_TRUE(any_difference) << "seed change did not reach the scenarios";
}

TEST(CampaignDeterminismTest, MultiCampaignParallelEqualsSerial) {
  auto serial_cfg = small_config(1);
  serial_cfg.dim = 4;  // room for k = 3 distinct faulty nodes
  auto parallel_cfg = serial_cfg;
  parallel_cfg.jobs = 4;
  expect_same_multi(run_multi_campaign(serial_cfg, 3),
                    run_multi_campaign(parallel_cfg, 3));
}

TEST(CampaignDeterminismTest, MultiCampaignSameSeedTwiceIdentical) {
  auto cfg = small_config(2);
  cfg.dim = 4;
  expect_same_multi(run_multi_campaign(cfg, 3), run_multi_campaign(cfg, 3));
}

// The observability layer must not weaken the determinism contract: per-slot
// tracers/registries are merged in slot order after the pool drains, so the
// serialized trace and the merged metrics are byte-identical for every job
// count.  All three campaign kinds share the slot engine; each is pinned.
TEST(CampaignDeterminismTest, TraceAndMetricsAreJobCountInvariant) {
  enum class Kind { kScripted, kMulti, kIndependent, kRunLength };
  auto traced = [](Kind kind, int jobs) {
    struct Out {
      std::string trace;
      obs::MetricsRegistry metrics;
    } out;
    obs::Tracer tracer;
    auto cfg = small_config(jobs);
    cfg.tracer = &tracer;
    cfg.metrics = &out.metrics;
    switch (kind) {
      case Kind::kScripted:
        run_campaign(cfg);
        break;
      case Kind::kMulti:
        cfg.dim = 4;  // room for k = 3 distinct faulty nodes
        run_multi_campaign(cfg, 3);
        break;
      case Kind::kIndependent:
        cfg.injection.mode = InjectionMode::kIndependent;
        cfg.injection.p = 0.05;
        run_soak_campaign(cfg);
        break;
      case Kind::kRunLength:
        cfg.injection.mode = InjectionMode::kRunLength;
        cfg.injection.k = 3;
        run_soak_campaign(cfg);
        break;
    }
    obs::TraceMeta meta;
    meta.dim = cfg.dim;
    meta.seed = cfg.seed;
    meta.mode = "campaign";
    std::stringstream ss;
    obs::write_jsonl(ss, meta, tracer);
    out.trace = ss.str();
    return out;
  };
  for (Kind kind : {Kind::kScripted, Kind::kMulti, Kind::kIndependent,
                    Kind::kRunLength}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const auto serial = traced(kind, 1);
    const auto parallel = traced(kind, 4);
    ASSERT_FALSE(serial.trace.empty());
    EXPECT_EQ(serial.trace, parallel.trace);
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
      const auto c = static_cast<obs::Counter>(i);
      EXPECT_EQ(serial.metrics.get(c), parallel.metrics.get(c))
          << obs::to_string(c);
    }
    EXPECT_GT(serial.metrics.get(obs::Counter::kScenarios), 0u);

    // The merged trace is schema-valid as written.
    std::stringstream ss(serial.trace);
    std::string error;
    EXPECT_TRUE(obs::read_jsonl(ss, &error)) << error;
  }
}

// Attaching a tracer must not perturb the campaign itself.
TEST(CampaignDeterminismTest, TracingDoesNotChangeTheSummary) {
  const auto plain = run_campaign(small_config(2));
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  auto cfg = small_config(2);
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  const auto traced = run_campaign(cfg);
  expect_same_summary(plain, traced);
  EXPECT_FALSE(tracer.empty());
}

TEST(CampaignDeterminismTest, JobCountDoesNotLeakIntoTheorem3Verdict) {
  for (int jobs : {1, 2, 0}) {
    auto cfg = small_config(jobs);
    const auto summary = run_campaign(cfg);
    for (const auto& tally : summary.sft)
      EXPECT_EQ(tally.silent_wrong, 0)
          << to_string(tally.fclass) << " jobs=" << jobs;
  }
}

}  // namespace
}  // namespace aoft::fault
