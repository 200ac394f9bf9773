#include "sim/scheduler.h"

#include <algorithm>

#include "obs/sink.h"
#include "sim/channel.h"

namespace aoft::sim {

Scheduler::~Scheduler() {
  for (auto h : tasks_)
    if (h) h.destroy();
}

void Scheduler::reset() {
  for (auto h : tasks_)
    if (h) h.destroy();
  tasks_.clear();
  ready_.clear();
  blocked_.clear();
  quiesce_scratch_.clear();
  idle_handler_ = {};
  failure_handler_ = {};
}

void Scheduler::spawn(SimTask task) {
  auto h = task.release();
  tasks_.push_back(h);
  ready_.push_back(h);
}

void Scheduler::add_blocked(Channel* ch) {
  ch->blocked_index_ = static_cast<std::ptrdiff_t>(blocked_.size());
  blocked_.push_back(ch);
}

void Scheduler::remove_blocked(Channel* ch) {
  const auto i = ch->blocked_index_;
  if (i < 0) return;
  blocked_[static_cast<std::size_t>(i)] = blocked_.back();
  blocked_[static_cast<std::size_t>(i)]->blocked_index_ = i;
  blocked_.pop_back();
  ch->blocked_index_ = -1;
}

void Scheduler::task_failed(std::coroutine_handle<> h, std::exception_ptr e) {
  const auto it = std::ranges::find_if(
      tasks_, [&](SimTask::Handle t) { return t.address() == h.address(); });
  const auto index = static_cast<std::size_t>(it - tasks_.begin());
  if (!failure_handler_ || !failure_handler_(index, e))
    std::rethrow_exception(e);
}

int Scheduler::run() {
  int watchdog_rounds = 0;
  for (;;) {
    while (!ready_.empty()) {
      auto h = ready_.front();
      ready_.pop_front();
      h.resume();
      if (h.done()) {
        auto& promise =
            SimTask::Handle::from_address(h.address()).promise();
        if (promise.exception) task_failed(h, promise.exception);
      }
    }
    if (blocked_.empty()) break;
    // Remote transport attached: pump it before declaring message absence —
    // on a real transport, quiescence of the *local* tasks proves nothing.
    if (idle_handler_ && idle_handler_()) continue;
    // Global quiescence with suspended receivers: the watchdog fires and
    // every pending receive fails (message absence detected).
    ++watchdog_rounds;
    if (auto* me = obs::metrics()) me->inc(obs::Counter::kWatchdogRounds);
    if (auto* tr = obs::tracer())
      tr->instant(obs::Ev::kWatchdogRound, obs::kGlobal, -1, -1, 0.0,
                  watchdog_rounds,
                  static_cast<std::int64_t>(blocked_.size()));
    quiesce_scratch_.swap(blocked_);  // keep both capacities across rounds
    blocked_.clear();
    for (Channel* ch : quiesce_scratch_) {
      ch->blocked_index_ = -1;
      ch->fail_waiter();
    }
    quiesce_scratch_.clear();
  }
  return watchdog_rounds;
}

}  // namespace aoft::sim
