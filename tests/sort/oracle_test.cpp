// The exact oracle (sort/keys.h): is_sort_of(claimed, input) must equal
// "std::sort a copy of input, compare with ==" on every input, at every part
// count, whether or not its threads start.  Its sort, sorted_ascending, must
// equal std::sort's output.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sort/driver.h"
#include "sort/keys.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aoft::sort {
namespace {

constexpr Key kMin = std::numeric_limits<Key>::min();
constexpr Key kMax = std::numeric_limits<Key>::max();
constexpr std::size_t kCutoff = kOracleParallelCutoff;

std::vector<Key> reference_sorted(std::vector<Key> v) {
  std::sort(v.begin(), v.end());
  return v;
}

bool reference_verdict(std::span<const Key> claimed,
                       std::span<const Key> input) {
  const auto sorted = reference_sorted({input.begin(), input.end()});
  return std::equal(sorted.begin(), sorted.end(), claimed.begin(),
                    claimed.end());
}

std::vector<Key> keys_in(std::span<const Key> v) { return {v.begin(), v.end()}; }

// Input shapes, each of n keys.
std::vector<std::pair<std::string, std::vector<Key>>> shapes(std::size_t n,
                                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<std::string, std::vector<Key>>> out;
  out.emplace_back("random32", util::random_keys(seed, n));
  std::vector<Key> full(n);
  for (auto& k : full) k = static_cast<Key>(rng.next_u64());
  out.emplace_back("random64", full);
  out.emplace_back("all_equal", std::vector<Key>(n, 7));
  std::vector<Key> extremes(n);
  for (auto& k : extremes) {
    const auto r = rng.next_u64() % 3;
    k = r == 0 ? kMin : r == 1 ? kMax : static_cast<Key>(rng.next_u64());
  }
  out.emplace_back("int64_extremes", extremes);
  // Few distinct values: equal keys in every part and across every part
  // boundary.
  out.emplace_back("duplicates", util::random_keys_small_alphabet(seed + 1, n, 3));
  auto sorted = reference_sorted(util::random_keys(seed + 2, n));
  out.emplace_back("sorted", sorted);
  std::reverse(sorted.begin(), sorted.end());
  out.emplace_back("reversed", sorted);
  return out;
}

// Every part count, sizes around the cutoff and odd ones.
const std::vector<std::size_t> kParts = {1, 2, 4, 8, 16};
const std::vector<std::size_t> kSizes = {0,   1,    2,          3,
                                         5,   31,   33,         257,
                                         513, 1001, kCutoff - 1, kCutoff,
                                         kCutoff + 1, 2 * kCutoff + 3};

TEST(OracleTest, EveryPartCountSortsAndAcceptsLikeTheReference) {
  for (const std::size_t n : kSizes) {
    for (const auto& [name, input] : shapes(n, 100 + n)) {
      const auto want = reference_sorted(input);
      for (const std::size_t p : kParts) {
        EXPECT_TRUE(detail::is_sort_of(want, input, p))
            << name << " n=" << n << " parts=" << p;
        EXPECT_EQ(keys_in(detail::sorted_ascending(input, p)), want)
            << name << " n=" << n << " parts=" << p;
      }
    }
  }
}

// One changed key, or one swap of adjacent unequal keys, inside each of the
// claim's P segments and on each boundary between them.
TEST(OracleTest, OneChangedKeyOrAdjacentSwapInEachPartIsRejected) {
  for (const std::size_t n : {std::size_t{1001}, kCutoff + 1}) {
    for (const auto& [name, input] : shapes(n, 200 + n)) {
      const auto want = reference_sorted(input);
      for (const std::size_t p : kParts) {
        std::vector<std::size_t> at;
        for (std::size_t k = 0; k < p; ++k) {
          at.push_back(k * n / p);                  // a segment's first key
          at.push_back(k * n / p + n / (2 * p));    // its middle
        }
        at.push_back(n - 1);
        for (const std::size_t i : at) {
          auto changed = want;
          changed[i] = changed[i] == kMax ? kMax - 1 : changed[i] + 1;
          EXPECT_FALSE(detail::is_sort_of(changed, input, p))
              << name << " n=" << n << " parts=" << p << " changed " << i;
          if (i + 1 < n && want[i] != want[i + 1]) {
            auto swapped = want;
            std::swap(swapped[i], swapped[i + 1]);
            EXPECT_FALSE(detail::is_sort_of(swapped, input, p))
                << name << " n=" << n << " parts=" << p << " swapped " << i;
          }
        }
      }
    }
  }
}

// Sorted, the same size, the same minimum and maximum, and still wrong.
TEST(OracleTest, SortedOutputOfAnotherMultisetIsRejected) {
  for (const std::size_t n : {std::size_t{513}, kCutoff, 2 * kCutoff + 3}) {
    for (const auto& [name, input] : shapes(n, 300 + n)) {
      auto other = input;
      const auto lo = std::min_element(other.begin(), other.end());
      const auto hi = std::max_element(other.begin(), other.end());
      if (*lo == *hi) {
        other[n / 2] = *lo == kMax ? kMin : *lo + 1;
      } else {
        // Duplicate the maximum over one key that is not an extreme.
        auto victim = std::find_if(other.begin(), other.end(),
                                   [&](Key k) { return k != *lo && k != *hi; });
        if (victim == other.end()) victim = lo;
        *victim = *hi;
      }
      const auto claim = reference_sorted(other);
      for (const std::size_t p : kParts)
        EXPECT_FALSE(detail::is_sort_of(claim, input, p))
            << name << " n=" << n << " parts=" << p;
    }
  }
}

TEST(OracleTest, SizeMismatchIsRejectedAtEveryPartCount) {
  const auto input = util::random_keys(5, 2 * kCutoff);
  auto claim = reference_sorted(input);
  claim.pop_back();
  for (const std::size_t p : kParts)
    EXPECT_FALSE(detail::is_sort_of(claim, input, p)) << "parts=" << p;
  EXPECT_FALSE(is_sort_of(claim, input));
}

// Random sizes, shapes and claims: the verdict is the reference's.
TEST(OracleTest, FuzzedVerdictsEqualTheReference) {
  util::Rng rng(29);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = round % 10 == 0 ? kCutoff + rng.next_u64() % kCutoff
                                          : rng.next_u64() % 3000;
    const auto all = shapes(n, 400 + static_cast<std::uint64_t>(round));
    const auto& input = all[rng.next_u64() % all.size()].second;
    auto claim = reference_sorted(input);
    switch (rng.next_u64() % 4) {
      case 0:
        break;
      case 1:
        if (n > 0) claim[rng.next_u64() % n] = static_cast<Key>(rng.next_u64());
        break;
      case 2:
        if (n > 1) {
          const std::size_t i = rng.next_u64() % (n - 1);
          std::swap(claim[i], claim[i + 1]);
        }
        break;
      default:
        if (n > 0) claim[rng.next_u64() % n] = input[rng.next_u64() % n];
        std::sort(claim.begin(), claim.end());
        break;
    }
    const std::size_t p = kParts[rng.next_u64() % kParts.size()];
    EXPECT_EQ(detail::is_sort_of(claim, input, p),
              reference_verdict(claim, input))
        << "round " << round << " n=" << n << " parts=" << p;
  }
}

std::atomic<int> g_refused{0};

std::thread refuse_to_start(std::function<void()>) {
  ++g_refused;
  throw std::system_error(EAGAIN, std::generic_category(), "no thread");
}

// Every part runs on the calling thread, and the verdicts stay exact.
TEST(OracleTest, ThreadsThatFailToStartRunTheirPartsOnTheCaller) {
  const std::size_t n = 2 * kCutoff + 3;
  const auto input = util::random_keys(6, n);
  const auto want = reference_sorted(input);
  auto wrong = want;
  wrong[n / 3] += 1;
  for (const std::size_t p : {std::size_t{2}, std::size_t{8}}) {
    g_refused = 0;
    EXPECT_TRUE(detail::is_sort_of(want, input, p, refuse_to_start));
    EXPECT_EQ(g_refused.load(), static_cast<int>(p) - 1) << "parts=" << p;
    EXPECT_FALSE(detail::is_sort_of(wrong, input, p, refuse_to_start));
    EXPECT_EQ(keys_in(detail::sorted_ascending(input, p, refuse_to_start)),
              want);
  }
}

std::size_t task_count() {
  std::size_t tasks = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++tasks;
  return tasks;
}

// A later fork must see one thread: every part thread is joined on return.
TEST(OracleTest, EveryThreadIsJoinedBeforeReturn) {
  const auto input = util::random_keys(7, 4 * kCutoff);
  const auto want = reference_sorted(input);
  // A first call lets a runtime start any helper thread it keeps (TSan
  // starts one on the first thread creation).
  EXPECT_TRUE(detail::is_sort_of(want, input, 2));
  const std::size_t before = task_count();
  EXPECT_TRUE(detail::is_sort_of(want, input, 8));
  EXPECT_EQ(task_count(), before);
}

TEST(OracleTest, PartCountFollowsSizeAndCpus) {
  EXPECT_EQ(detail::oracle_parts(kCutoff - 1, 64), 1u);
  EXPECT_EQ(detail::oracle_parts(1 << 20, 1), 1u);
  EXPECT_EQ(detail::oracle_parts(kCutoff, 64), 2u);
  EXPECT_EQ(detail::oracle_parts(2 * kCutoff - 1, 64), 2u);
  EXPECT_EQ(detail::oracle_parts(2 * kCutoff, 64), 4u);
  EXPECT_EQ(detail::oracle_parts(1 << 20, 3), 2u);
  EXPECT_EQ(detail::oracle_parts(1 << 20, 4), 4u);
  EXPECT_EQ(detail::oracle_parts(1 << 20, 6), 4u);
}

// On a one-CPU affinity mask the oracle takes the serial path: the child
// confirms one CPU, one part and an exact verdict both ways.
TEST(OracleTest, OneCpuAffinityChildStaysSerialAndExact) {
  const auto input = util::random_keys(8, 4 * kCutoff);
  const auto want = reference_sorted(input);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0) _exit(10);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &set)) ++cpu;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0) _exit(11);
    if (util::ThreadPool::resolve(0) != 1) _exit(12);
    if (detail::oracle_parts(input.size(), util::ThreadPool::resolve(0)) != 1)
      _exit(13);
    if (!is_sort_of(want, input)) _exit(14);
    auto wrong = want;
    std::swap(wrong[5], wrong[input.size() - 5]);
    if (is_sort_of(wrong, input)) _exit(15);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// On a pool worker the oracle stays serial, and exact.
TEST(OracleTest, PoolWorkersRunTheOracleSerially) {
  const auto input = util::random_keys(9, 4 * kCutoff);
  const auto want = reference_sorted(input);
  EXPECT_FALSE(util::ThreadPool::on_worker());
  util::ThreadPool pool(2);
  std::atomic<bool> on_worker{false}, verdict{false};
  pool.submit([&] {
    on_worker = util::ThreadPool::on_worker();
    verdict = is_sort_of(want, input);
  });
  pool.wait_idle();
  EXPECT_TRUE(on_worker.load());
  EXPECT_TRUE(verdict.load());
}

TEST(OracleTest, PublicEntryPointsAboveTheCutoff) {
  const auto a = util::random_keys(10, 3 * kCutoff + 1);
  auto b = a;
  std::reverse(b.begin(), b.end());
  EXPECT_TRUE(is_permutation_of(a, b));
  EXPECT_EQ(keys_in(sorted_ascending(a)), reference_sorted(a));
  b[b.size() / 2] ^= 1;
  EXPECT_FALSE(is_permutation_of(a, b));

  SortRun run;
  run.output = reference_sorted(a);
  EXPECT_EQ(classify(run, a), Outcome::kCorrect);
  ASSERT_NE(run.output[kCutoff], run.output[kCutoff + 1]);
  std::swap(run.output[kCutoff], run.output[kCutoff + 1]);
  EXPECT_EQ(classify(run, a), Outcome::kSilentWrong);
}

}  // namespace
}  // namespace aoft::sort
