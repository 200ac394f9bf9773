#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#if defined(__linux__)
#include <sched.h>
#endif

namespace aoft::util {

namespace {
thread_local bool t_on_worker = false;
}  // namespace

bool ThreadPool::on_worker() { return t_on_worker; }

int ThreadPool::resolve(int jobs) {
  if (jobs > 0) return jobs;
  // hardware_concurrency() counts every CPU on the host, including those a
  // taskset or cgroup cpuset keeps this process off.
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  const int n = resolve(threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_work_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      job();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    cv_idle_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    auto e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // One claiming job per worker; indices come off a shared counter one at a
  // time so a slow item does not stall the others.  `body` outlives the jobs
  // because wait_idle() below returns only after every job finished.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  const std::size_t lanes =
      std::min(count, static_cast<std::size_t>(workers_.size()));
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    submit([next, count, &body] {
      for (;;) {
        const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        body(i);
      }
    });
  }
  wait_idle();
}

}  // namespace aoft::util
