// Deterministic cooperative scheduler for the simulated multicomputer.
//
// All node tasks and the host task run on one OS thread.  The ready queue is
// FIFO and tasks are spawned in node order, so every simulation of the same
// (input, fault plan) pair replays identically — a property the fault
// campaigns and the resume-style tests rely on.
//
// Watchdog model: when no task is runnable but some tasks are suspended on
// channel receives, a real machine would eventually trip a timeout (the
// paper's Environmental Assumption 4: "the absence of a message can be
// detected and constitutes an error").  The scheduler models the watchdog by
// failing every pending receive at global quiescence; receivers observe
// RecvResult::ok == false and fail-stop.

#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

#include "sim/task.h"
#include "util/ring.h"

namespace aoft::sim {

class Channel;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  // Take ownership of a task and queue it for its first resume.
  void spawn(SimTask task);

  void ready(std::coroutine_handle<> h) { ready_.push_back(h); }

  // Channels report receivers blocking/unblocking so the watchdog can find
  // them at quiescence.  Both operations are O(1).
  void add_blocked(Channel* ch);
  void remove_blocked(Channel* ch);

  // Remote-transport hook (sim/remote.h): invoked at global quiescence
  // *before* the watchdog.  Returning true means external progress was made
  // (messages were pumped into channels), so the scheduler re-enters its
  // ready loop instead of failing the blocked receivers.
  void set_idle_handler(std::function<bool()> handler) {
    idle_handler_ = std::move(handler);
  }

  // Called with the spawn index (0-based, in spawn order) of a task that
  // ended by throwing, and the exception.  Returning true contains the
  // failure: the run goes on without that task.  Returning false, or no
  // handler, rethrows the exception from run().
  void set_failure_handler(
      std::function<bool(std::size_t, std::exception_ptr)> handler) {
    failure_handler_ = std::move(handler);
  }

  // Channels currently holding a suspended receiver; idle handlers map these
  // back to the peers being waited on.
  const std::vector<Channel*>& blocked() const { return blocked_; }

  // Drive everything to completion.  Returns the number of watchdog rounds
  // that were needed (0 for a fault-free run of a deadlock-free protocol).
  // Rethrows the first exception escaping a task (programming error) unless
  // the failure handler contains it.
  int run();

  // Destroy all owned frames and empty the queues, keeping their capacity
  // (Machine::reset).  Safe after run() completed or threw.
  void reset();

 private:
  std::vector<SimTask::Handle> tasks_;  // owned frames
  util::Ring<std::coroutine_handle<>> ready_;
  std::vector<Channel*> blocked_;
  // A task ended by throwing: hand it to failure_handler_ or rethrow.
  void task_failed(std::coroutine_handle<> h, std::exception_ptr e);

  std::function<bool()> idle_handler_;
  std::function<bool(std::size_t, std::exception_ptr)> failure_handler_;
  // Scratch for the watchdog sweep: swapped with blocked_ at quiescence so
  // neither vector's capacity is lost across rounds (std::move would discard
  // the allocation every round).
  std::vector<Channel*> quiesce_scratch_;
};

}  // namespace aoft::sim
