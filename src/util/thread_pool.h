// A small fixed-size thread pool for embarrassingly parallel simulation work.
//
// The fault campaigns run hundreds of independent single-OS-thread
// `sim::Machine` simulations; the pool fans those out across worker threads
// while the campaign layer keeps aggregation strictly in slot order, so
// results are bit-identical to a serial run (see fault/campaign.h).
//
// Design constraints:
//   * fixed size, created per campaign — no global singleton, no work
//     stealing, no dynamic resizing; predictability over cleverness,
//   * jobs must be independent — the pool provides no ordering guarantee
//     between jobs, only that wait_idle() returns after every submitted job
//     finished,
//   * the first exception thrown by a job is captured and rethrown from
//     wait_idle() / parallel_for() on the calling thread.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aoft::util {

class ThreadPool {
 public:
  // threads <= 0 selects one worker per CPU this process may run on.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueue one job.  Never blocks.
  void submit(std::function<void()> job);

  // Block until the queue is drained and every worker is idle, then rethrow
  // the first job exception, if any.
  void wait_idle();

  // Run body(i) for every i in [0, count) across the pool and block until
  // all complete.  Indices are claimed one at a time from a shared counter,
  // so bodies run in a nondeterministic order — callers write into index i
  // of a pre-sized output and aggregate serially afterwards.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  // Map a --jobs style argument to a worker count: <= 0 means "one per CPU
  // in this process's affinity mask" (sched_getaffinity, falling back to
  // the hardware concurrency), anything else is taken verbatim.
  static int resolve(int jobs);

  // True on a thread some pool runs its jobs on.  Work that would start
  // threads of its own (the exact oracle, sort/keys.h) stays serial there:
  // the pool already keeps every CPU busy.
  static bool on_worker();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_work_;   // signalled when a job is enqueued
  std::condition_variable cv_idle_;   // signalled when a job finishes
  std::size_t active_ = 0;            // jobs currently executing
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace aoft::util
