// Differential fuzzing of the one-pass checks against the reference
// sequences they replace.
//
//   * pair_check (sort/kernels.h) must return the verdict of
//     is_sorted_dir(merged) && std::includes(merged, mine) on every input,
//     on every dispatch path: sorted, unsorted, duplicate-heavy and
//     off-by-one pairs, `mine` sorted or not, at sizes that take each of its
//     one- and two-chain loops.
//   * merge with a Proven certificate must write the reference's bytes on
//     the sorted runs the certificate vouches for.
//   * bit_compare with a certificate must return the violation, and record
//     the trace events and counters, of phi_p followed by phi_f, whatever
//     the checks it is asked to run.
//
// Sizes straddle detail::kMergePathCutoff, below which the one-pass paths
// hand over to the reference loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/sink.h"
#include "sort/kernels.h"
#include "sort/predicates.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

using util::simd::Path;

std::vector<Path> testable_paths() {
  std::vector<Path> paths{Path::kScalar};
  for (const Path p : {Path::kAvx2, Path::kNeon})
    if (util::simd::supported(p)) paths.push_back(p);
  return paths;
}

constexpr std::size_t kCut = kernels::detail::kMergePathCutoff;

const std::size_t kBlockSizes[] = {0,        1,        2,    3,    7,
                                   kCut / 2, kCut - 1, kCut, kCut + 1,
                                   63,       64,       65,   100,  257,
                                   1000};

std::vector<Key> random_keys(util::Rng& rng, std::size_t n,
                             std::uint64_t alphabet) {
  std::vector<Key> v(n);
  for (auto& k : v) k = static_cast<Key>(rng.next_u64() % alphabet);
  return v;
}

void sort_dir(std::vector<Key>& v, bool ascending) {
  if (ascending)
    std::sort(v.begin(), v.end());
  else
    std::sort(v.begin(), v.end(), std::greater<Key>{});
}

bool reference_pair_check(const std::vector<Key>& merged,
                          const std::vector<Key>& mine, bool ascending) {
  if (ascending)
    return std::is_sorted(merged.begin(), merged.end()) &&
           std::includes(merged.begin(), merged.end(), mine.begin(), mine.end());
  return std::is_sorted(merged.begin(), merged.end(), std::greater<Key>{}) &&
         std::includes(merged.begin(), merged.end(), mine.begin(), mine.end(),
                       std::greater<Key>{});
}

// One pair, shaped like what a passive node receives, then bent by `shape`.
struct Pair {
  std::vector<Key> merged;
  std::vector<Key> mine;
};

Pair make_pair(util::Rng& rng, std::size_t lb, std::size_t lm, bool ascending,
               int shape) {
  const std::uint64_t alphabet = shape % 3 == 0 ? 3 : 1u << 20;
  Pair p;
  p.mine = random_keys(rng, lb, alphabet);
  if (shape == 7) {
    // Skewed: every key of `mine` below every other key, so the chains meet
    // at an edge of `merged`.
    for (auto& k : p.mine) k %= 8;
  }
  std::vector<Key> other =
      random_keys(rng, lm > lb ? lm - lb : 0, alphabet);
  if (shape == 7)
    for (auto& k : other) k = 8 + k % 8;
  sort_dir(p.mine, ascending);
  sort_dir(other, ascending);
  p.merged.resize(p.mine.size() + other.size());
  if (ascending)
    std::merge(p.mine.begin(), p.mine.end(), other.begin(), other.end(),
               p.merged.begin());
  else
    std::merge(p.mine.begin(), p.mine.end(), other.begin(), other.end(),
               p.merged.begin(), std::greater<Key>{});
  if (lm < p.merged.size()) p.merged.resize(lm);  // too short to hold mine
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  switch (shape) {
    case 1:  // one key of the pair off by one
    case 4:
      if (!p.merged.empty()) p.merged[pick(p.merged.size())] += shape == 1 ? 1 : -1;
      break;
    case 2:  // one key of the block off by one, block still sorted
      if (!p.mine.empty()) {
        p.mine[pick(p.mine.size())] += 1;
        sort_dir(p.mine, ascending);
      }
      break;
    case 5:  // the pair out of order at one place
      if (p.merged.size() >= 2) {
        const std::size_t at = pick(p.merged.size() - 1);
        std::swap(p.merged[at], p.merged[at + 1]);
      }
      break;
    case 6:  // the block unsorted
      if (p.mine.size() >= 2) {
        const std::size_t at = pick(p.mine.size() - 1);
        std::swap(p.mine[at], p.mine[at + 1]);
      }
      break;
    case 8:  // a key of the block repeated past its multiplicity
      if (p.mine.size() >= 2) {
        p.mine[pick(p.mine.size())] = p.mine[pick(p.mine.size())];
        sort_dir(p.mine, ascending);
      }
      break;
    default:
      break;
  }
  return p;
}

TEST(KernelsFuzzPairCheckTest, MatchesSortedAndIncludesEverywhere) {
  const auto paths = testable_paths();
  util::Rng rng(0x9a1c0de);
  std::size_t accepted = 0, rejected = 0;
  for (const std::size_t lb : kBlockSizes) {
    // 2·lb is the protocol's shape; the others reach the one-chain loop
    // (longer pairs) and pairs too short to hold the block.
    for (const std::size_t lm :
         {2 * lb, 2 * lb + 1, lb + lb / 2, lb, 3 * lb + 2}) {
      if (lm < lb && lm + 1 < lb) continue;
      for (const bool ascending : {true, false}) {
        for (int round = 0; round < 36; ++round) {
          const int shape = round % 9;
          const Pair p = make_pair(rng, lb, lm, ascending, shape);
          const bool want = reference_pair_check(p.merged, p.mine, ascending);
          (want ? accepted : rejected)++;
          for (const Path path : paths)
            ASSERT_EQ(kernels::table_for(path).pair_check(
                          p.merged.data(), p.merged.size(), p.mine.data(),
                          p.mine.size(), ascending),
                      want)
                << util::simd::to_string(path) << " lb=" << lb
                << " lm=" << p.merged.size() << " asc=" << ascending
                << " shape=" << shape;
        }
      }
    }
  }
  // Both verdicts are exercised, not just one.
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(rejected, 500u);
}

TEST(KernelsFuzzMergeProvenTest, CertifiedRunsMergeToTheReferenceBytes) {
  const auto paths = testable_paths();
  util::Rng rng(0x3e7);
  for (const std::size_t la : kBlockSizes) {
    for (const std::size_t lb : {std::size_t{0}, std::size_t{5}, kCut, la}) {
      for (const bool ascending : {true, false}) {
        for (int round = 0; round < 8; ++round) {
          std::vector<Key> a = random_keys(rng, la, round % 2 ? 4 : 1000);
          std::vector<Key> b = random_keys(rng, lb, round % 2 ? 4 : 1000);
          sort_dir(a, ascending);
          sort_dir(b, ascending);
          std::vector<Key> want(la + lb);
          kernels::detail::merge_reference(a.data(), la, b.data(), lb,
                                           ascending, want.data());
          for (const Path path : paths) {
            for (const kernels::Proven proven :
                 {kernels::Proven{true, true}, kernels::Proven{true, false},
                  kernels::Proven{false, true}}) {
              std::vector<Key> got(la + lb, Key{-777});
              kernels::table_for(path).merge(a.data(), la, b.data(), lb,
                                             ascending, got.data(), proven);
              ASSERT_EQ(got, want)
                  << util::simd::to_string(path) << " la=" << la
                  << " lb=" << lb << " asc=" << ascending;
            }
          }
        }
      }
    }
  }
}

// ---- bit_compare -------------------------------------------------------------

// A stage-boundary instance over a window of 2^(i+1) nodes with m keys each:
// lbs bitonic over the window, llbs over the inner half a bitonic
// rearrangement of that half's lbs (a random subset ascending, the rest
// descending), or, at the final stage, the whole window.
struct Window {
  std::vector<Key> llbs;
  std::vector<Key> lbs;
  cube::Subcube outer;
  cube::Subcube inner;
  bool inner_ascending = true;
  bool final_stage = false;
  std::size_t m = 1;
};

void make_bitonic(util::Rng& rng, std::span<Key> out, std::vector<Key> vals) {
  std::sort(vals.begin(), vals.end());
  std::vector<Key> up, down;
  for (const Key k : vals) (rng.next_u64() % 2 ? up : down).push_back(k);
  // Φ_F reads the lower run over the first half, so the split is even.
  while (up.size() > vals.size() / 2) {
    down.push_back(up.back());
    up.pop_back();
  }
  while (up.size() < vals.size() / 2) {
    up.push_back(down.back());
    down.pop_back();
  }
  std::sort(up.begin(), up.end());
  std::sort(down.begin(), down.end(), std::greater<Key>{});
  std::copy(up.begin(), up.end(), out.begin());
  std::copy(down.begin(), down.end(), out.begin() + static_cast<std::ptrdiff_t>(up.size()));
}

Window make_window(util::Rng& rng, int i, std::size_t m, bool lower,
                   bool final_stage, std::uint64_t alphabet) {
  Window w;
  w.m = m;
  w.final_stage = final_stage;
  const cube::NodeId nodes = cube::NodeId{1} << (i + 1);
  w.outer = cube::Subcube{0, nodes - 1, i + 1};
  w.inner = final_stage ? w.outer : lower ? w.outer.lower_half() : w.outer.upper_half();
  w.inner_ascending = final_stage || lower;
  const std::size_t n = static_cast<std::size_t>(nodes) * m;
  const std::size_t half = n / 2;
  std::vector<Key> keys = random_keys(rng, n, alphabet);
  std::sort(keys.begin(), keys.end());
  w.lbs.resize(n);
  if (final_stage) {
    w.lbs = keys;
  } else {
    // Which keys land in which half is arbitrary; each half is sorted in
    // its direction.
    std::vector<Key> lo(keys.begin(), keys.end()), hi;
    for (std::size_t k = 0; k < half; ++k) {
      const std::size_t at = rng.next_u64() % lo.size();
      hi.push_back(lo[at]);
      lo.erase(lo.begin() + static_cast<std::ptrdiff_t>(at));
    }
    std::sort(lo.begin(), lo.end());
    std::sort(hi.begin(), hi.end(), std::greater<Key>{});
    std::copy(lo.begin(), lo.end(), w.lbs.begin());
    std::copy(hi.begin(), hi.end(), w.lbs.begin() + static_cast<std::ptrdiff_t>(half));
  }
  w.llbs.assign(n, Key{0});
  const std::size_t lo = static_cast<std::size_t>(w.inner.start) * m;
  const std::size_t sz = static_cast<std::size_t>(w.inner.size()) * m;
  make_bitonic(rng, std::span<Key>(w.llbs).subspan(lo, sz),
               std::vector<Key>(w.lbs.begin() + static_cast<std::ptrdiff_t>(lo),
                                w.lbs.begin() + static_cast<std::ptrdiff_t>(lo + sz)));
  return w;
}

// Bend a valid window: the kinds of damage Φ_P, Φ_F and the certificate's
// preconditions each catch.
void damage(util::Rng& rng, Window& w, int kind) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  const std::size_t n = w.lbs.size();
  const std::size_t lo = static_cast<std::size_t>(w.inner.start) * w.m;
  const std::size_t sz = static_cast<std::size_t>(w.inner.size()) * w.m;
  switch (kind) {
    case 1:  // a key of lbs off by one anywhere in the window
      w.lbs[pick(n)] += 1;
      break;
    case 2:  // lbs out of order inside the inner half
      if (sz >= 2) {
        const std::size_t at = lo + pick(sz - 1);
        std::swap(w.lbs[at], w.lbs[at + 1]);
      }
      break;
    case 3:  // lbs out of order in the other half
      if (!w.final_stage) {
        const std::size_t other = w.inner.start == w.outer.start ? lo + sz : 0;
        const std::size_t at = other + pick(sz - 1);
        std::swap(w.lbs[at], w.lbs[at + 1]);
      }
      break;
    case 4:  // a key of llbs off by one (no longer a permutation)
      w.llbs[lo + pick(sz)] -= 1;
      break;
    case 5:  // an llbs run out of order (its certificate is then withheld)
      if (sz >= 4) {
        const std::size_t at = lo + pick(sz - 1);
        std::swap(w.llbs[at], w.llbs[at + 1]);
      }
      break;
    case 6:  // lbs a different sorted permutation of the window
      if (sz >= 2) w.lbs[lo + pick(sz)] = w.lbs[lo + pick(sz)];
      break;
    case 7: {
      // Two keys of one llbs run out of order, and lbs' inner half out of
      // order in the same way: exactly what a merge of the runs that
      // trusted them sorted would produce.  Φ_F's greedy scan passes it;
      // Φ_P must not.  Only keys adjacent in the merge qualify, so no key
      // of the other run lies between them.
      if (sz < 4) break;
      const std::size_t half = sz / 2;
      const bool upper = rng.next_u64() % 2;
      // Position of run key t in ascending order (the upper run backward).
      const auto run_at = [&](std::size_t t) {
        return upper ? lo + sz - 1 - t : lo + t;
      };
      const auto visit_at = [&](std::size_t v) {
        return w.inner_ascending ? lo + v : lo + sz - 1 - v;
      };
      for (std::size_t tries = 0; tries < 16; ++tries) {
        const std::size_t t = pick((upper ? sz - half : half) - 1);
        const Key x = w.llbs[run_at(t)], y = w.llbs[run_at(t + 1)];
        std::size_t v = 0;
        while (v + 1 < sz && w.lbs[visit_at(v)] != x) ++v;
        if (x == y || v + 1 >= sz || w.lbs[visit_at(v + 1)] != y) continue;
        std::swap(w.llbs[run_at(t)], w.llbs[run_at(t + 1)]);
        std::swap(w.lbs[visit_at(v)], w.lbs[visit_at(v + 1)]);
        break;
      }
      break;
    }
    default:
      break;
  }
}

// What one evaluation returned and recorded.
struct Recorded {
  std::optional<Violation> v;
  std::vector<obs::TraceEvent> events;
  std::uint64_t counters[4] = {};
};

template <typename Fn>
Recorded record(Fn&& fn) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  Recorded r;
  {
    obs::ScopedSink sink(&tracer, &metrics);
    obs::ScopedPredContext at(3, 2, -1, 17.0);
    r.v = fn();
  }
  r.events = tracer.events();
  r.counters[0] = metrics.get(obs::Counter::kPhiPPass);
  r.counters[1] = metrics.get(obs::Counter::kPhiPFail);
  r.counters[2] = metrics.get(obs::Counter::kPhiFPass);
  r.counters[3] = metrics.get(obs::Counter::kPhiFFail);
  return r;
}

TEST(BitCompareFuzzTest, CertifiedCheckEqualsPhiPThenPhiF) {
  util::Rng rng(0xb17c0);
  std::size_t fast_shaped = 0;
  for (const std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
    for (int i = 1; i <= 6; ++i) {
      for (const bool final_stage : {false, true}) {
        for (int round = 0; round < 48; ++round) {
          const bool lower = round % 2 == 0;
          Window w = make_window(rng, i, m, lower, final_stage,
                                 round % 3 == 0 ? 4 : 1u << 24);
          damage(rng, w, round % 8);
          const std::span<const Key> llbs_inner =
              std::span<const Key>(w.llbs).subspan(
                  static_cast<std::size_t>(w.inner.start) * m,
                  static_cast<std::size_t>(w.inner.size()) * m);
          const std::size_t half = llbs_inner.size() / 2;
          if (llbs_inner.size() >= kCut) ++fast_shaped;
          // A certificate is only ever issued for a run that is sorted;
          // some are withheld so both the skipped and the scanned scans run.
          const kernels::Proven runs{
              round % 5 != 1 && kernels::is_sorted_run(llbs_inner.first(half), true),
              round % 5 != 2 && kernels::is_sorted_run(llbs_inner.subspan(half), false)};
          for (const bool progress : {true, false}) {
            for (const bool feasibility : {true, false}) {
              for (const bool past_violation : {false, true}) {
                const StageChecks checks{progress, feasibility, past_violation, runs};
                const Recorded got = record([&] {
                  return bit_compare(w.llbs, w.lbs, w.outer, w.inner,
                                     w.inner_ascending, w.final_stage, m, checks);
                });
                const Recorded want = record([&]() -> std::optional<Violation> {
                  const auto lbs_outer = std::span<const Key>(w.lbs).subspan(
                      static_cast<std::size_t>(w.outer.start) * m,
                      static_cast<std::size_t>(w.outer.size()) * m);
                  const auto lbs_inner = std::span<const Key>(w.lbs).subspan(
                      static_cast<std::size_t>(w.inner.start) * m,
                      static_cast<std::size_t>(w.inner.size()) * m);
                  std::optional<Violation> first;
                  if (progress) first = phi_p(lbs_outer, w.final_stage);
                  if (first && !past_violation) return first;
                  if (feasibility) {
                    auto v = phi_f(llbs_inner, lbs_inner, w.inner_ascending);
                    if (!first) first = v;
                  }
                  return first;
                });
                const auto where = [&] {
                  return ::testing::Message()
                         << "m=" << m << " i=" << i << " final=" << final_stage
                         << " lower=" << lower << " damage=" << round % 8
                         << " runs=" << runs.first << runs.second
                         << " checks=" << progress << feasibility << past_violation;
                };
                ASSERT_EQ(got.v.has_value(), want.v.has_value()) << where();
                if (want.v) {
                  EXPECT_EQ(got.v->what, want.v->what) << where();
                  EXPECT_EQ(got.v->position, want.v->position) << where();
                }
                ASSERT_EQ(got.events, want.events) << where();
                for (int c = 0; c < 4; ++c)
                  EXPECT_EQ(got.counters[c], want.counters[c]) << where();
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(fast_shaped, 100u);
}

}  // namespace
}  // namespace aoft::sort
