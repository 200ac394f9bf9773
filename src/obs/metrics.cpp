#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <iterator>

namespace aoft::obs {

namespace {

constexpr const char* kCounterNames[] = {
    "link_msgs",    "link_words",   "dropped_msgs", "host_msgs",
    "host_words",   "phi_p_pass",   "phi_p_fail",   "phi_f_pass",
    "phi_f_fail",   "phi_c_pass",   "phi_c_fail",   "pair_pass",
    "pair_fail",    "timeouts",     "watchdog_rounds", "errors",
    "ckpt_uploads", "rollbacks",    "restarts",     "reconfigures",
    "host_fallbacks", "scenarios",
};
static_assert(std::size(kCounterNames) == kNumCounters);

}  // namespace

const char* to_string(Counter c) {
  const auto i = static_cast<std::size_t>(c);
  return i < kNumCounters ? kCounterNames[i] : "?";
}

void Histogram::observe(std::uint64_t v) {
  const auto w = static_cast<std::size_t>(std::bit_width(v));
  buckets_[std::min(w, kBuckets - 1)] += 1;
  max_ = std::max(max_, v);
}

std::uint64_t Histogram::total() const {
  std::uint64_t t = 0;
  for (auto b : buckets_) t += b;
  return t;
}

void Histogram::merge(const Histogram& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  max_ = std::max(max_, o.max_);
}

void MetricsRegistry::phi_verdict(int stage, bool pass) {
  if (stage < 0) return;
  const auto s = static_cast<std::size_t>(stage);
  if (per_stage_.size() <= s) per_stage_.resize(s + 1);
  if (pass)
    per_stage_[s].pass += 1;
  else
    per_stage_[s].fail += 1;
}

void MetricsRegistry::merge(const MetricsRegistry& o) {
  for (std::size_t i = 0; i < kNumCounters; ++i) counters_[i] += o.counters_[i];
  msg_words_.merge(o.msg_words_);
  queue_depth_.merge(o.queue_depth_);
  if (per_stage_.size() < o.per_stage_.size())
    per_stage_.resize(o.per_stage_.size());
  for (std::size_t s = 0; s < o.per_stage_.size(); ++s) {
    per_stage_[s].pass += o.per_stage_[s].pass;
    per_stage_[s].fail += o.per_stage_[s].fail;
  }
}

}  // namespace aoft::obs
