#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace aoft::util {
namespace {

TEST(ThreadPoolTest, ResolveMapsZeroToAvailableCpus) {
  EXPECT_GE(ThreadPool::resolve(0), 1);
  EXPECT_EQ(ThreadPool::resolve(3), 3);
  EXPECT_GE(ThreadPool::resolve(-2), 1);
}

#if defined(__linux__)
// resolve(0) counts the affinity mask, not the host: a child narrowed to one
// CPU (as under `taskset -c 0`) must get one worker, not one per host CPU.
TEST(ThreadPoolTest, ResolveZeroHonoursTheAffinityMask) {
  cpu_set_t mine;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mine), &mine), 0);
  int first = 0;
  while (!CPU_ISSET(first, &mine)) ++first;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) _exit(100);
    _exit(ThreadPool::resolve(0));
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == 100) GTEST_SKIP() << "sched_setaffinity refused";
  EXPECT_EQ(WEXITSTATUS(status), 1);
}
#endif

TEST(ThreadPoolTest, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForHandlesMoreThreadsThanWork) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<int>(i) + 1);
  });
  EXPECT_EQ(sum.load(), 6);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "empty range ran a body"; });
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> out(50, 0);
  pool.parallel_for(out.size(), [&out](std::size_t i) {
    out[i] = static_cast<int>(i);
  });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 49 * 50 / 2);
}

TEST(ThreadPoolTest, FirstJobExceptionRethrownOnWait) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable after an exception was drained.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, PoolReusableAcrossParallelForCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round)
    pool.parallel_for(20, [&total](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
}

}  // namespace
}  // namespace aoft::util
