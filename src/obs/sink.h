// Thread-local observability sink: how instrumentation points find the
// current run's Tracer and MetricsRegistry without threading pointers through
// every signature.
//
// A sim::Machine run is single-threaded (one cooperative scheduler per OS
// thread), so binding the sink to the executing thread is exact: campaign
// workers bind one (tracer, registry) pair per slot around the scenario they
// execute, and nested runs (the supervisor re-entering run_sft) share the
// outer binding.
//
// Cost model: with nothing bound, an instrumentation point is one
// thread-local load and a branch — no virtual dispatch, no allocation.
// perfbench's obs.trace_overhead_ratio records what binding a sink costs.

#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace aoft::obs {

struct RunSink {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

namespace detail {
inline thread_local RunSink tls_sink;
}  // namespace detail

inline Tracer* tracer() { return detail::tls_sink.tracer; }
inline MetricsRegistry* metrics() { return detail::tls_sink.metrics; }
inline bool active() {
  return detail::tls_sink.tracer != nullptr ||
         detail::tls_sink.metrics != nullptr;
}

// RAII binder; restores the previous binding on destruction so nested scopes
// (supervisor attempts inside a CLI-level scope) compose.
class ScopedSink {
 public:
  ScopedSink(Tracer* t, MetricsRegistry* m) : prev_(detail::tls_sink) {
    detail::tls_sink = RunSink{t, m};
  }
  ~ScopedSink() { detail::tls_sink = prev_; }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  RunSink prev_;
};

// Where a predicate evaluation is happening.  The predicates
// (sort/predicates.cpp) are pure functions with no node identity; the caller
// (sort/sft.cpp) binds the protocol position around the call so the emitted
// verdict event carries (node, stage, iter, clock).
struct PredContext {
  std::int32_t node = kGlobal;
  std::int32_t stage = -1;
  std::int32_t iter = -1;
  double clock = 0.0;
};

namespace detail {
inline thread_local PredContext tls_pred;
}  // namespace detail

inline const PredContext& pred_context() { return detail::tls_pred; }

class ScopedPredContext {
 public:
  ScopedPredContext(std::int32_t node, std::int32_t stage, std::int32_t iter,
                    double clock) {
    if (active()) {
      set_ = true;
      prev_ = detail::tls_pred;
      detail::tls_pred = PredContext{node, stage, iter, clock};
    }
  }
  ~ScopedPredContext() {
    if (set_) detail::tls_pred = prev_;
  }
  ScopedPredContext(const ScopedPredContext&) = delete;
  ScopedPredContext& operator=(const ScopedPredContext&) = delete;

 private:
  bool set_ = false;
  PredContext prev_;
};

}  // namespace aoft::obs
