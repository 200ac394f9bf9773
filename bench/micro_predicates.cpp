// Lemmas 7-9 — asymptotic costs of the checking machinery, measured — plus
// the SIMD kernel sweep.
//
//   Lemma 7: vect_mask(i, j) runs in O(2^{i-j})           (the recursion)
//   Lemma 8: bit_compare runs in O(2^i) at stage i        (Φ_P + Φ_F scans)
//   Lemma 9: Φ_C runs in O(2^{j+1} + 2^{i-j}) per message (merge + mask)
//
// google-benchmark over the (i, j) grid; the per-item complexities are
// visible in how time scales with the reported window/coverage sizes.
//
// After the lemma benchmarks, a per-kernel size sweep times each of the five
// sort/kernels.h entry points through the scalar reference table and through
// the dispatched table, on identical pass-shaped inputs (worst case: the
// whole array is scanned).  Results land in BENCH_kernels.json
// (--out=PATH to redirect) for the tools/bench_check --kernels gate.  When
// the dispatched path *is* scalar (no SIMD compiled in, or AOFT_SIMD=scalar)
// the speedup is reported as null with a stated reason — scalar-vs-scalar
// timing is noise, never a measurement.
//
//   micro_predicates [--out=BENCH_kernels.json] [google-benchmark flags]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "hypercube/masks.h"
#include "sort/blockops.h"
#include "sort/kernels.h"
#include "sort/predicates.h"
#include "util/atomic_file.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace aoft;

void BM_VectMaskRecursive(benchmark::State& state) {
  const int i = static_cast<int>(state.range(0));
  const int j = static_cast<int>(state.range(1));
  cube::Topology topo(12);
  for (auto _ : state) {
    auto m = cube::vect_mask_recursive(topo, i, j, 1234 & (topo.num_nodes() - 1));
    benchmark::DoNotOptimize(m);
  }
  state.SetComplexityN(1 << (i - j));
}

void BM_VectMaskClosedForm(benchmark::State& state) {
  const int i = static_cast<int>(state.range(0));
  const int j = static_cast<int>(state.range(1));
  cube::Topology topo(12);
  for (auto _ : state) {
    auto m = cube::vect_mask(topo, i, j, 1234 & (topo.num_nodes() - 1));
    benchmark::DoNotOptimize(m);
  }
}

// Lemma 7 grid: fixed i = 11, j sweeping down — work doubles per step.
BENCHMARK(BM_VectMaskRecursive)
    ->Args({11, 11})->Args({11, 9})->Args({11, 7})->Args({11, 5})
    ->Args({11, 3})->Args({11, 1})->Args({11, 0})
    ->Complexity(benchmark::oN);
BENCHMARK(BM_VectMaskClosedForm)
    ->Args({11, 7})->Args({11, 3})->Args({11, 0});

void BM_BitCompare(benchmark::State& state) {
  const int i = static_cast<int>(state.range(0));
  // Build a valid stage-i check instance: full-cube arrays for dim i+1.
  // lbs: lower dim-i window sorted ascending, upper sorted descending
  // (what stage i-1 produced); llbs over the lower window: the bitonic
  // sequence stage i-1 started from (evens ascending, then odds descending).
  const std::size_t n = std::size_t{1} << (i + 1);
  auto keys = util::random_keys(1, n);
  std::vector<sort::Key> sorted(keys);
  std::sort(sorted.begin(), sorted.end());
  std::vector<sort::Key> lbs(n), llbs(n);
  for (std::size_t k = 0; k < n / 2; ++k) lbs[k] = sorted[k];
  for (std::size_t k = 0; k < n / 2; ++k) lbs[n / 2 + k] = sorted[n - 1 - k];
  const std::size_t half = n / 2;
  for (std::size_t k = 0; k < half / 2; ++k) llbs[k] = sorted[2 * k];
  for (std::size_t k = 0; k < half / 2; ++k)
    llbs[half / 2 + k] = sorted[half - 1 - 2 * k];
  for (std::size_t k = half; k < n; ++k) llbs[k] = sorted[k];
  const cube::Subcube outer{0, static_cast<cube::NodeId>(n - 1), i + 1};
  const cube::Subcube inner{0, static_cast<cube::NodeId>(n / 2 - 1), i};
  for (auto _ : state) {
    auto v = sort::bit_compare(llbs, lbs, outer, inner, true, false, 1);
    if (v.has_value()) state.SkipWithError("unexpected violation");
    benchmark::DoNotOptimize(v);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitCompare)->DenseRange(3, 12, 3)->Complexity(benchmark::oN);

void BM_PhiCMerge(benchmark::State& state) {
  const int i = static_cast<int>(state.range(0));
  const int j = static_cast<int>(state.range(1));
  cube::Topology topo(12);
  const cube::NodeId me = 0;
  const cube::NodeId partner = cube::NodeId{1} << j;
  const auto window = cube::home_subcube(i + 1, me);
  const auto sender_cover = cube::pre_mask(topo, i, j, partner);
  const auto my_cover = cube::pre_mask(topo, i, j, me);
  auto keys = util::random_keys(2, topo.num_nodes());
  std::vector<sort::Key> slice(window.size());
  for (cube::NodeId p = window.start; p <= window.end; ++p)
    slice[p - window.start] = keys[p];
  std::vector<sort::Key> local = keys;
  for (auto _ : state) {
    state.PauseTiming();  // reset the coverage outside the measured region
    util::BitVec cover = my_cover;
    state.ResumeTiming();
    auto v = sort::phi_c_merge(local, cover, slice, sender_cover, window, 1);
    if (v.has_value()) state.SkipWithError("unexpected violation");
    benchmark::DoNotOptimize(local);
  }
  state.SetComplexityN(1 << (i - j));
}
// Lemma 9 grid: i fixed, j sweeping — sender coverage 2^{i-j} dominates.
BENCHMARK(BM_PhiCMerge)
    ->Args({11, 11})->Args({11, 8})->Args({11, 5})->Args({11, 2})->Args({11, 0})
    ->Complexity(benchmark::oN);

// Local sort before/after, from one binary: std::sort (radix:0) against
// blockops::sort_dir (radix:1) on the same random 32-bit-range keys.  Each
// iteration copies the next of a rotating set of distinct inputs (~1M keys
// in all) and sorts it; the copy is timed on both sides alike.  Rotating
// matters: re-sorting one small input lets the branch predictor learn
// std::sort's comparisons (at 256 keys, ~5x faster than on fresh input).
// sort_dir draws its scratch from one pool across iterations, as a node
// program does from its machine's.
void BM_SortDir(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool radix = state.range(1) != 0;
  const std::size_t sets = std::max<std::size_t>(4, (std::size_t{1} << 20) / n);
  const auto keys = util::random_keys(7, sets * n);
  std::vector<sort::Key> block(n);
  sim::KeyPool pool;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto from = keys.begin() + static_cast<std::ptrdiff_t>(next * n);
    next = (next + 1) % sets;
    std::copy(from, from + static_cast<std::ptrdiff_t>(n), block.begin());
    if (radix)
      sort::blockops::sort_dir(block, true, pool);
    else
      std::sort(block.begin(), block.end());
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SortDir)
    ->ArgNames({"n", "radix"})
    ->ArgsProduct({{64, 1024, 4096, 65536, 262144}, {0, 1}});

// Reference loop vs merge-path kernel (sort/kernels.h) on rotating fresh
// inputs, like BM_SortDir: a fixture the branch predictor has already
// learned would flatter the reference's data-dependent branches.
// BM_Merge merges two sorted `run`-key runs; BM_PhiF scans an `n`-key window
// that passes (a random two-run split of a sorted sequence, as a clean
// stage boundary produces).
void BM_Merge(benchmark::State& state) {
  const auto run = static_cast<std::size_t>(state.range(0));
  const bool kernel = state.range(1) != 0;
  const std::size_t sets = std::max<std::size_t>(4, (std::size_t{1} << 20) / run);
  auto keys = util::random_keys(11, sets * 2 * run);
  for (std::size_t k = 0; k < 2 * sets; ++k)
    std::sort(keys.begin() + static_cast<std::ptrdiff_t>(k * run),
              keys.begin() + static_cast<std::ptrdiff_t>((k + 1) * run));
  std::vector<sort::Key> out(2 * run);
  std::size_t next = 0;
  for (auto _ : state) {
    const sort::Key* a = keys.data() + next * 2 * run;
    next = (next + 1) % sets;
    if (kernel)
      sort::kernels::merge({a, run}, {a + run, run}, true, out);
    else
      sort::kernels::detail::merge_reference(a, run, a + run, run, true,
                                             out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * run));
}
BENCHMARK(BM_Merge)
    ->ArgNames({"run", "kernel"})
    ->ArgsProduct({{1024, 65536, 262144}, {0, 1}});

void BM_PhiF(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool kernel = state.range(1) != 0;
  const std::size_t sets = std::max<std::size_t>(4, (std::size_t{1} << 20) / n);
  std::vector<sort::Key> lbs = util::random_keys(13, sets * n);
  std::vector<sort::Key> llbs(sets * n);
  util::Rng rng(17);
  for (std::size_t k = 0; k < sets; ++k) {
    sort::Key* sorted = lbs.data() + k * n;
    sort::Key* runs = llbs.data() + k * n;
    std::sort(sorted, sorted + n);
    // Each key joins the lower (ascending) or upper (descending) run by a
    // fair coin, both runs filled up to n/2 and n - n/2.
    std::size_t lo = 0, hi = n;
    for (std::size_t t = 0; t < n; ++t) {
      const bool lower = lo < n / 2 && (hi == n / 2 || (rng.next_u64() & 1));
      if (lower)
        runs[lo++] = sorted[t];
      else
        runs[--hi] = sorted[t];
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const sort::Key* l = llbs.data() + next * n;
    const sort::Key* v = lbs.data() + next * n;
    next = (next + 1) % sets;
    const std::int64_t idx =
        kernel ? sort::kernels::phi_f_scan({l, n}, {v, n}, true)
               : sort::kernels::detail::phi_f_scan_reference(l, v, n, true);
    if (idx != -1) state.SkipWithError("Phi_F fixture must pass");
    benchmark::DoNotOptimize(idx);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PhiF)
    ->ArgNames({"n", "kernel"})
    ->ArgsProduct({{1024, 65536, 262144}, {0, 1}});

// ---- SIMD kernel sweep -----------------------------------------------------

// Minimum measured time per (kernel, size, table) sample; three samples are
// taken and the fastest kept, so a descheduled trial cannot fake a slowdown.
constexpr double kSampleNs = 2e6;

// ns/call of op(), minimum of three timed samples, each at least kSampleNs
// long (iteration count auto-scales up from 1).
template <typename Fn>
double time_ns_per_call(Fn&& op) {
  op();  // warm caches and the dispatch table
  double best = -1.0;
  for (int trial = 0; trial < 3; ++trial) {
    long long iters = 1;
    for (;;) {
      const auto t0 = std::chrono::steady_clock::now();
      for (long long k = 0; k < iters; ++k) op();
      const auto t1 = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      if (ns >= kSampleNs) {
        const double per = ns / static_cast<double>(iters);
        if (best < 0 || per < best) best = per;
        break;
      }
      iters *= 4;
    }
  }
  return best;
}

struct SweepEntry {
  const char* kernel;
  std::size_t size;
  double scalar_ns;
  double dispatched_ns;
  double speedup;   // scalar_ns / dispatched_ns
  bool delegated;   // dispatched entry IS the scalar function pointer
};

// True when table `t` delegates kernel `which` to the same function as `s`
// (SIMD tables keep the scalar pointer for kernels that measured slower
// vectorized — see kernels_avx2.cpp).
bool same_fn(const sort::kernels::KernelTable& t,
             const sort::kernels::KernelTable& s, int which) {
  switch (which) {
    case 0: return t.run_break == s.run_break;
    case 1: return t.mismatch == s.mismatch;
    case 2: return t.phi_f_scan == s.phi_f_scan;
    case 3: return t.merge == s.merge;
    default: return t.pair_check == s.pair_check;
  }
}

// Pass-shaped inputs sized n: every kernel scans (or writes) everything, the
// worst case Φ predicates pay on every clean stage.  Interleavings are
// *random*, as in a real exchange — a regular pattern (strict alternation,
// one run first) would hand the scalar code perfectly predicted branches and
// misstate both sides of the comparison.
struct SweepFixture {
  std::vector<sort::Key> asc;        // sorted ascending, n
  std::vector<sort::Key> asc_copy;   // byte-identical to asc (mismatch)
  std::vector<sort::Key> llbs;       // random 2-run partition of asc (Φ_F)
  std::vector<sort::Key> merge_a;    // independent sorted run, n
  std::vector<sort::Key> merge_b;    // independent sorted run, n
  std::vector<sort::Key> super;      // merge of merge_a and merge_b, 2n
  std::vector<sort::Key> out;        // merge destination, 2n

  explicit SweepFixture(std::size_t n) {
    util::Rng rng(0x5eedULL + n);
    merge_a.resize(n);
    merge_b.resize(n);
    for (auto& k : merge_a) k = static_cast<sort::Key>(rng.next_u64() >> 8);
    for (auto& k : merge_b) k = static_cast<sort::Key>(rng.next_u64() >> 8);
    std::sort(merge_a.begin(), merge_a.end());
    std::sort(merge_b.begin(), merge_b.end());
    super.resize(2 * n);
    std::merge(merge_a.begin(), merge_a.end(), merge_b.begin(), merge_b.end(),
               super.begin());
    asc = merge_a;  // pair_check: asc is a sub-multiset of super by construction
    asc_copy = asc;
    // Φ_F instance: split asc into a random half-half partition — lower run =
    // the picked keys ascending, upper run = the rest descending.  Any such
    // partition scans to completion (the next key in visit order is the
    // minimum of both run heads), and the head alternation is irregular.
    const std::size_t half = n / 2;
    std::vector<int> pick(n, 0);
    std::fill(pick.begin(), pick.begin() + static_cast<std::ptrdiff_t>(half),
              1);
    for (std::size_t k = n - 1; k > 0; --k)
      std::swap(pick[k], pick[rng.next_u64() % (k + 1)]);
    llbs.resize(n);
    std::size_t lo = 0, hi = n;
    for (std::size_t k = 0; k < n; ++k)
      if (pick[k])
        llbs[lo++] = asc[k];
      else
        llbs[--hi] = asc[k];
    out.resize(2 * n);
  }
};

// Time one kernel through `t` on the fixture; `which` indexes the five
// KernelTable members in declaration order.
double time_kernel(const sort::kernels::KernelTable& t, int which,
                   const SweepFixture& f) {
  const std::size_t n = f.asc.size();
  switch (which) {
    case 0:
      return time_ns_per_call([&] {
        benchmark::DoNotOptimize(t.run_break(f.asc.data(), n, true));
      });
    case 1:
      return time_ns_per_call([&] {
        benchmark::DoNotOptimize(
            t.mismatch(f.asc.data(), f.asc_copy.data(), n));
      });
    case 2:
      return time_ns_per_call([&] {
        benchmark::DoNotOptimize(
            t.phi_f_scan(f.llbs.data(), f.asc.data(), n, true));
      });
    case 3:
      return time_ns_per_call([&] {
        t.merge(f.merge_a.data(), n, f.merge_b.data(), n, true,
                const_cast<sort::Key*>(f.out.data()), {});
        benchmark::DoNotOptimize(f.out.data());
      });
    default:
      return time_ns_per_call([&] {
        benchmark::DoNotOptimize(
            t.pair_check(f.super.data(), 2 * n, f.asc.data(), n, true));
      });
  }
}

void appendf(std::string& s, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[512];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) s.append(buf, static_cast<std::size_t>(n));
}

int run_kernel_sweep(const std::string& out_path) {
  namespace kernels = sort::kernels;
  const auto dispatch = kernels::active_path();
  const auto& scalar = kernels::table_for(util::simd::Path::kScalar);
  const auto& dispatched = kernels::table();

  // Window sizes 2^3..2^6 are the dim 3-6 stage windows EXPERIMENTS.md §15
  // tabulates; 512/4096 are block-scaled payloads where vector width, not
  // call overhead, dominates.
  const std::size_t sizes[] = {8, 16, 32, 64, 512, 4096};
  const char* names[] = {"run_break", "mismatch", "phi_f_scan", "merge",
                         "pair_check"};

  std::vector<SweepEntry> entries;
  const SweepEntry* best = nullptr;
  std::printf("\nkernel sweep (dispatch=%s):\n",
              util::simd::to_string(dispatch));
  for (const std::size_t n : sizes) {
    const SweepFixture fix(n);
    for (int which = 0; which < 5; ++which) {
      SweepEntry e;
      e.kernel = names[which];
      e.size = n;
      e.delegated = same_fn(dispatched, scalar, which);
      e.scalar_ns = time_kernel(scalar, which, fix);
      // Timing the identical function twice and quoting the ratio as a
      // "speedup" would be pure noise; a delegated entry is 1.0 by identity.
      e.dispatched_ns = e.delegated ? e.scalar_ns : time_kernel(dispatched, which, fix);
      e.speedup = e.dispatched_ns > 0 ? e.scalar_ns / e.dispatched_ns : 0.0;
      entries.push_back(e);
      if (e.delegated)
        std::printf("  %-10s n=%-5zu scalar %9.1f ns   (delegated to scalar)\n",
                    e.kernel, e.size, e.scalar_ns);
      else
        std::printf("  %-10s n=%-5zu scalar %9.1f ns   %s %9.1f ns   %.2fx\n",
                    e.kernel, e.size, e.scalar_ns,
                    util::simd::to_string(dispatch), e.dispatched_ns,
                    e.speedup);
    }
  }
  for (const auto& e : entries)
    if (!e.delegated && (!best || e.speedup > best->speedup)) best = &e;

  const bool simd_active = dispatch != util::simd::Path::kScalar;
  std::string json;
  appendf(json,
          "{\n"
          "  \"schema\": \"aoft-kernels-v1\",\n"
          "  \"dispatch\": \"%s\",\n"
          "  \"entries\": [\n",
          util::simd::to_string(dispatch));
  for (std::size_t i = 0; i < entries.size(); ++i)
    appendf(json,
            "    {\"kernel\": \"%s\", \"size\": %zu, \"scalar_ns\": %.1f, "
            "\"dispatched_ns\": %.1f, \"speedup\": %.3f, "
            "\"delegated\": %s}%s\n",
            entries[i].kernel, entries[i].size, entries[i].scalar_ns,
            entries[i].dispatched_ns, entries[i].speedup,
            entries[i].delegated ? "true" : "false",
            i + 1 < entries.size() ? "," : "");
  appendf(json, "  ],\n");
  if (simd_active && best) {
    appendf(json,
            "  \"best_speedup\": %.3f,\n"
            "  \"best_kernel\": \"%s\",\n"
            "  \"best_size\": %zu\n",
            best->speedup, best->kernel, best->size);
    std::printf("best: %s n=%zu at %.2fx\n", best->kernel, best->size,
                best->speedup);
  } else {
    // Same honesty rule as BENCH_campaign.json's parallel speedup on 1-CPU
    // hosts: a scalar-vs-scalar ratio is timing noise, not a speedup.
    appendf(json,
            "  \"best_speedup\": null,\n"
            "  \"speedup_null_reason\": \"dispatched path is scalar "
            "(no SIMD compiled in or AOFT_SIMD=scalar); scalar-vs-scalar "
            "timing is noise, not a speedup\"\n");
    std::printf("best: withheld (dispatched path is scalar)\n");
  }
  appendf(json, "}\n");

  std::string err;
  if (!util::write_file_atomic(out_path, json, &err)) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 err.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

// Custom main (instead of benchmark_main): peel off --out= before handing
// the rest to google-benchmark, run the lemma benchmarks, then the kernel
// sweep.
int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
    else
      bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_kernel_sweep(out_path);
}
