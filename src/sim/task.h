// Coroutine task type for simulated processors.
//
// Every node of the simulated multicomputer (and the host) runs as one C++20
// coroutine.  Tasks are eagerly created, lazily started: `initial_suspend` is
// `suspend_always`, so nothing executes until the scheduler first resumes the
// handle.  Tasks never co_await each other; the only suspension points are
// channel receives, so the scheduler wholly owns interleaving and execution
// is deterministic.
//
// SimTask is a move-only owner of the coroutine frame.  The scheduler takes
// ownership on spawn and destroys frames after completion.  Frames come from
// the global allocator: one per node task per run, the only allocation a
// warm machine's messaging makes (tests/sort/alloc_regression_test.cpp).

#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace aoft::sim {

class [[nodiscard]] SimTask {
 public:
  struct promise_type {
    std::exception_ptr exception;

    SimTask get_return_object() {
      return SimTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  SimTask() = default;
  explicit SimTask(Handle h) : handle_(h) {}
  SimTask(SimTask&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  SimTask& operator=(SimTask&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  SimTask(const SimTask&) = delete;
  SimTask& operator=(const SimTask&) = delete;
  ~SimTask() { destroy(); }

  Handle handle() const { return handle_; }
  Handle release() { return std::exchange(handle_, nullptr); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_ = nullptr;
};

}  // namespace aoft::sim
