// Machine reuse contract at the protocol level: running S_FT on a reset()
// machine must be *observably identical* to running it on a fresh one —
// output, error reports, cost summary, link-event log, and the serialized
// observability trace, byte for byte.  The campaign engine leans on this to
// keep one machine per worker thread.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "fault/adversary.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "obs/trace_io.h"
#include "sim/machine.h"
#include "sort/sft.h"
#include "sort/snr.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

// Run S_FT with the observability sink bound; return the run plus the trace
// serialized to JSONL (byte-comparable).
struct TracedRun {
  SortRun run;
  std::string trace;
};

TracedRun traced_sft(int dim, std::span<const Key> input, SftOptions opts) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  TracedRun out;
  {
    obs::ScopedSink sink(&tracer, &metrics);
    opts.record_link_events = true;
    out.run = run_sft(dim, input, opts);
  }
  std::ostringstream os;
  obs::TraceMeta meta;
  meta.dim = dim;
  meta.block = opts.block;
  meta.seed = 0;
  meta.mode = "test";
  obs::write_jsonl(os, meta, tracer);
  out.trace = os.str();
  return out;
}

void expect_same_run(const TracedRun& a, const TracedRun& b) {
  EXPECT_EQ(a.run.output, b.run.output);
  ASSERT_EQ(a.run.errors.size(), b.run.errors.size());
  for (std::size_t i = 0; i < a.run.errors.size(); ++i) {
    EXPECT_EQ(a.run.errors[i].node, b.run.errors[i].node);
    EXPECT_EQ(a.run.errors[i].stage, b.run.errors[i].stage);
    EXPECT_EQ(a.run.errors[i].iter, b.run.errors[i].iter);
    EXPECT_EQ(a.run.errors[i].source, b.run.errors[i].source);
    EXPECT_EQ(a.run.errors[i].detail, b.run.errors[i].detail);
  }
  EXPECT_DOUBLE_EQ(a.run.summary.elapsed, b.run.summary.elapsed);
  EXPECT_DOUBLE_EQ(a.run.summary.max_comm, b.run.summary.max_comm);
  EXPECT_DOUBLE_EQ(a.run.summary.max_comp, b.run.summary.max_comp);
  EXPECT_EQ(a.run.summary.total_msgs, b.run.summary.total_msgs);
  EXPECT_EQ(a.run.summary.total_words, b.run.summary.total_words);
  ASSERT_EQ(a.run.link_events.size(), b.run.link_events.size());
  for (std::size_t i = 0; i < a.run.link_events.size(); ++i) {
    EXPECT_EQ(a.run.link_events[i].from, b.run.link_events[i].from);
    EXPECT_EQ(a.run.link_events[i].to, b.run.link_events[i].to);
    EXPECT_EQ(a.run.link_events[i].words, b.run.link_events[i].words);
    EXPECT_EQ(a.run.link_events[i].stage, b.run.link_events[i].stage);
  }
  EXPECT_EQ(a.trace, b.trace);  // serialized bytes, the strictest equality
}

TEST(SftReuseTest, CleanRunOnResetMachineIsBitIdentical) {
  const int dim = 4;
  auto input = util::random_keys(2026, std::size_t{1} << dim);
  const auto fresh = traced_sft(dim, input, {});

  sim::Machine machine(cube::Topology{dim}, sim::CostModel{});
  SftOptions reuse;
  reuse.machine = &machine;
  // Dirty the machine with a different run first: the comparison must hold
  // from *any* prior state, not just from construction.
  auto other = util::random_keys(7, std::size_t{1} << dim);
  (void)run_sft(dim, other, reuse);

  const auto reused = traced_sft(dim, input, reuse);
  expect_same_run(fresh, reused);
}

TEST(SftReuseTest, FaultyRunOnResetMachineIsBitIdentical) {
  const int dim = 4;
  auto input = util::random_keys(1989, std::size_t{1} << dim);

  auto make_opts = [](fault::Adversary& adv) {
    adv.add(fault::corrupt_data(5, {2, 1}, 17));
    SftOptions opts;
    opts.interceptor = &adv;
    return opts;
  };

  fault::Adversary adv_fresh;
  const auto fresh = traced_sft(dim, input, make_opts(adv_fresh));
  EXPECT_TRUE(fresh.run.fail_stop());

  sim::Machine machine(cube::Topology{dim}, sim::CostModel{});
  (void)run_sft(dim, input, [&] {
    SftOptions warm;
    warm.machine = &machine;
    return warm;
  }());  // clean warm-up run, then the faulty one on the same machine
  fault::Adversary adv_reuse;
  auto opts = make_opts(adv_reuse);
  opts.machine = &machine;
  const auto reused = traced_sft(dim, input, opts);
  expect_same_run(fresh, reused);
}

TEST(SftReuseTest, BlockRunsWithDifferentSizesShareAMachine) {
  // Block size changes between leases (same dim): pooled buffers sized for
  // one block must not leak into the next run's behavior.
  const int dim = 3;
  sim::Machine machine(cube::Topology{dim}, sim::CostModel{});
  for (std::size_t block : {4u, 1u, 8u}) {
    auto input = util::random_keys(31 + block, (std::size_t{1} << dim) * block);
    SftOptions fresh_opts;
    fresh_opts.block = block;
    const auto fresh = traced_sft(dim, input, fresh_opts);
    SftOptions reuse = fresh_opts;
    reuse.machine = &machine;
    const auto reused = traced_sft(dim, input, reuse);
    expect_same_run(fresh, reused);
  }
}

TEST(SftReuseTest, DimensionMismatchThrows) {
  sim::Machine machine(cube::Topology{3}, sim::CostModel{});
  auto input = util::random_keys(1, 16);
  SftOptions opts;
  opts.machine = &machine;
  EXPECT_THROW((void)run_sft(4, input, opts), std::invalid_argument);

  SnrOptions snr_opts;
  snr_opts.machine = &machine;
  EXPECT_THROW((void)run_snr(4, input, snr_opts), std::invalid_argument);
}

TEST(SftReuseTest, SnrReuseMatchesFresh) {
  const int dim = 4;
  auto input = util::random_keys(55, std::size_t{1} << dim);
  const auto fresh = run_snr(dim, input);

  sim::Machine machine(cube::Topology{dim}, sim::CostModel{});
  SnrOptions opts;
  opts.machine = &machine;
  (void)run_snr(dim, util::random_keys(56, std::size_t{1} << dim), opts);
  const auto reused = run_snr(dim, input, opts);
  EXPECT_EQ(reused.output, fresh.output);
  EXPECT_DOUBLE_EQ(reused.summary.elapsed, fresh.summary.elapsed);
  EXPECT_EQ(reused.summary.total_msgs, fresh.summary.total_msgs);
  EXPECT_EQ(reused.summary.total_words, fresh.summary.total_words);
}

}  // namespace
}  // namespace aoft::sort
