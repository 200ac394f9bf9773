// Allocation regression guard for the pooled messaging hot path.
//
// After one warm-up run on a reused machine, every pooled structure (key
// buffers, channel rings, scheduler queues) has reached its steady-state
// capacity, so subsequent runs hit the heap only for their coroutine frames
// (one per node task, from the global allocator) and a few fixed pieces of
// per-run bookkeeping.  This binary links the counting ::operator new
// replacement (util/alloc_hook.h) and measures per-run deltas; under
// sanitizers the stub is linked instead (ASan owns the allocator) and the
// suite skips.
//
// Bounds are deliberately loose multiples of the measured values — the test
// exists to catch a reintroduced per-message or per-key allocation, which
// shows up as hundreds of allocations per run, not to freeze exact counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/machine.h"
#include "sim/pool.h"
#include "sort/blockops.h"
#include "sort/kernels.h"
#include "sort/predicates.h"
#include "sort/sft.h"
#include "util/alloc_hook.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

#define SKIP_WITHOUT_HOOK()                                             \
  if (!util::alloc_hook_active())                                       \
  GTEST_SKIP() << "counting allocator not linked (sanitizer build?)"

// Allocations during fn(), total across the calling thread's process — the
// simulation is single-threaded, so the delta is exact.
template <typename Fn>
std::uint64_t allocs_during(Fn&& fn) {
  const std::uint64_t before = util::alloc_count();
  fn();
  return util::alloc_count() - before;
}

// Pure messaging ping-pong on a warm machine: the distilled hot path with no
// sort logic on top.  A run allocates exactly one coroutine frame per node
// task and nothing else, so doubling the rounds must add zero allocations.
TEST(AllocRegressionTest, WarmPingPongAllocatesOneFramePerTask) {
  SKIP_WITHOUT_HOOK();
  const cube::Topology topo{3};
  sim::Machine machine(topo, sim::CostModel{});
  int rounds = 64;
  auto program = [&rounds](sim::Ctx& ctx) -> sim::SimTask {
    const cube::NodeId peer = ctx.topo().neighbor(ctx.id(), 0);
    for (int round = 0; round < rounds; ++round) {
      sim::Message m(ctx.pool());
      m.kind = sim::MsgKind::kApp;
      m.data.resize(16, static_cast<sim::Key>(round));
      ctx.send(peer, std::move(m));
      auto r = co_await ctx.recv(peer);
      EXPECT_TRUE(r.ok);
      ctx.account_recv(r.msg);
    }
  };
  const std::uint64_t frames = topo.num_nodes();

  // The pool's inventory grows toward the peak working set over the first few
  // runs (LIFO reuse can hand a warm buffer to a holder that idles it, so one
  // run's demand is not yet the peak).  It must converge quickly; assert the
  // fixed point, not the trajectory.
  machine.run(program);
  std::uint64_t steady = ~std::uint64_t{0};
  for (int cycle = 0; cycle < 8 && steady != frames; ++cycle) {
    machine.reset();
    steady = allocs_during([&] { machine.run(program); });
  }
  EXPECT_EQ(steady, frames) << "a warm run allocates one frame per task";

  rounds = 128;
  machine.reset();
  EXPECT_EQ(allocs_during([&] { machine.run(program); }), steady)
      << "warm messaging round-trips must not allocate";
}

// Full S_FT on a warm reused machine: a handful of per-run allocations remain
// by design (the result's output vector, shared-state bookkeeping) but
// nothing proportional to messages or keys may survive.
TEST(AllocRegressionTest, WarmSftRunStaysNearZero) {
  SKIP_WITHOUT_HOOK();
  const int dim = 3;
  auto input = util::random_keys(404, std::size_t{1} << dim);

  sim::Machine machine(cube::Topology{dim}, sim::CostModel{});
  SftOptions opts;
  opts.machine = &machine;
  (void)run_sft(dim, input, opts);  // warm-up

  const std::uint64_t steady = allocs_during([&] {
    auto run = run_sft(dim, input, opts);
    ASSERT_TRUE(run.errors.empty());
  });
  // dim 3 exchanges ~100 messages; per-message allocation would blow far
  // past this bound.
  EXPECT_LE(steady, 32u) << "steady-state S_FT run allocates per message";
}

// The residual per-run count must not scale with the block size: block keys
// ride exclusively in pooled buffers, the radix sort's scratch included once
// the block reaches blockops::kRadixCutoff.
TEST(AllocRegressionTest, SteadyStateCountIsBlockSizeIndependent) {
  SKIP_WITHOUT_HOOK();
  const int dim = 3;
  auto measure = [&](std::size_t block) {
    auto input =
        util::random_keys(11 + block, (std::size_t{1} << dim) * block);
    sim::Machine machine(cube::Topology{dim}, sim::CostModel{});
    SftOptions opts;
    opts.block = block;
    opts.machine = &machine;
    (void)run_sft(dim, input, opts);  // warm-up
    return allocs_during([&] { (void)run_sft(dim, input, opts); });
  };
  const std::uint64_t small = measure(1);
  const std::uint64_t large = measure(16);
  const std::uint64_t radix = measure(2 * blockops::kRadixCutoff);
  // 16x the keys per message must not mean more allocations — the counts are
  // equal up to noise (both are a handful of fixed bookkeeping allocations).
  EXPECT_LE(large, small + 4);
  EXPECT_LE(radix, small + 4) << "small=" << small << " radix=" << radix;
}

// The whole point, quantified: with pooling and machine reuse a warm dim-4
// run makes a few dozen bookkeeping allocations (41 with GCC 12).  Before
// pooling, a dim-4 campaign scenario made ~460 (EXPERIMENTS §11); the
// ceiling sits far below that.
TEST(AllocRegressionTest, PoolingRemovesAlmostAllAllocations) {
  SKIP_WITHOUT_HOOK();
  const int dim = 4;
  auto input = util::random_keys(77, std::size_t{1} << dim);

  sim::Machine machine(cube::Topology{dim}, sim::CostModel{});
  SftOptions opts;
  opts.machine = &machine;
  (void)run_sft(dim, input, opts);  // warm-up
  const std::uint64_t pooled =
      allocs_during([&] { (void)run_sft(dim, input, opts); });

  EXPECT_LE(pooled, 60u) << "pooled=" << pooled;
}

// Every kernel on every executable dispatch path is steady-state
// allocation-free: the SIMD layer works in registers and caller storage, and
// a merge that fell back to an allocating path would silently reintroduce the
// heap traffic PR 4 removed.
TEST(AllocRegressionTest, KernelsAllocateNothingOnAnyPath) {
  SKIP_WITHOUT_HOOK();
  const std::size_t n = 256;
  std::vector<Key> asc = util::random_keys(5150, n);
  std::sort(asc.begin(), asc.end());
  std::vector<Key> bitonic = asc;
  std::sort(bitonic.begin() + static_cast<std::ptrdiff_t>(n / 2),
            bitonic.end(), std::greater<Key>{});
  std::vector<Key> other = util::random_keys(5151, n);
  std::sort(other.begin(), other.end());
  std::vector<Key> out(2 * n);

  for (const auto path : {util::simd::Path::kScalar, util::simd::Path::kAvx2,
                          util::simd::Path::kNeon}) {
    if (!util::simd::supported(path)) continue;
    const auto& t = kernels::table_for(path);
    const std::uint64_t allocs = allocs_during([&] {
      for (int round = 0; round < 16; ++round) {
        (void)t.run_break(bitonic.data(), n, true);
        (void)t.mismatch(asc.data(), other.data(), n);
        (void)t.phi_f_scan(bitonic.data(), asc.data(), n, true);
        t.merge(asc.data(), n, other.data(), n, true, out.data(), {});
        (void)t.pair_check(out.data(), 2 * n, asc.data(), n, true);
      }
    });
    EXPECT_EQ(allocs, 0u) << "path " << util::simd::to_string(path);
  }
}

// The predicate wrappers above the kernels stay allocation-free on the pass
// path too (a Violation allocates its message string, but passing verdicts —
// the steady state — must not touch the heap).
TEST(AllocRegressionTest, PassingPredicatesAllocateNothing) {
  SKIP_WITHOUT_HOOK();
  const std::size_t n = 128;
  std::vector<Key> window = util::random_keys(6060, n);
  std::sort(window.begin(), window.begin() + static_cast<std::ptrdiff_t>(n / 2));
  std::sort(window.begin() + static_cast<std::ptrdiff_t>(n / 2), window.end(),
            std::greater<Key>{});
  std::vector<Key> sorted = window;
  std::sort(sorted.begin(), sorted.end());

  // Φ_C fixture: sender covers the whole window, half the nodes already held.
  cube::Subcube sc;
  sc.start = 0;
  sc.end = 7;
  sc.dim = 3;
  const std::size_t m = 16;
  std::vector<Key> local(8 * m, 0);
  std::vector<Key> recv(8 * m);
  util::BitVec local_cover(8), sender_cover(8);
  for (std::size_t p = 0; p < 8; ++p) {
    sender_cover.set(p);
    for (std::size_t w = 0; w < m; ++w) recv[p * m + w] = sorted[p * m + w];
    if (p % 2 == 0) {
      local_cover.set(p);
      for (std::size_t w = 0; w < m; ++w) local[p * m + w] = sorted[p * m + w];
    }
  }

  // Warm-up absorbs the uncovered half so the measured pass is pure verify.
  MergeStats stats;
  ASSERT_FALSE(phi_c_merge(local, local_cover, recv, sender_cover, sc, m,
                           &stats)
                   .has_value());
  const std::uint64_t allocs = allocs_during([&] {
    for (int round = 0; round < 16; ++round) {
      EXPECT_FALSE(phi_p(window, false).has_value());
      EXPECT_FALSE(phi_f(window, sorted, true).has_value());
      EXPECT_FALSE(phi_c_merge(local, local_cover, recv, sender_cover, sc, m,
                               &stats)
                       .has_value());
    }
  });
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace aoft::sort
