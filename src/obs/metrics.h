// Lightweight counters and histograms for simulation runs.
//
// A MetricsRegistry is a fixed array of counters plus a few power-of-two
// bucketed histograms — no maps, no strings, no locks.  A registry is only
// ever written by one thread: campaigns keep one registry per slot and merge
// them in (class, slot) order after the pool drains, exactly like
// CampaignSummary aggregation, so the merged totals are bit-identical for
// every job count.  Reads go through the same thread-local sink as tracing
// (obs/sink.h); with no registry bound a counter bump is a null check.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace aoft::obs {

enum class Counter : std::uint8_t {
  kLinkMsgs,        // node-node messages offered to the network
  kLinkWords,       // key words across node-node messages
  kDroppedMsgs,     // messages the interceptor dropped
  kHostMsgs,        // messages on the reliable host links (both directions)
  kHostWords,       // key words across host-link messages
  kPhiPPass, kPhiPFail,
  kPhiFPass, kPhiFFail,
  kPhiCPass, kPhiCFail,
  kPairPass, kPairFail,  // the (a, b) exchange-pair check
  kTimeouts,        // receives failed by the watchdog
  kWatchdogRounds,
  kErrors,          // fail-stop reports
  kCkptUploads,
  kRollbacks, kRestarts, kReconfigures, kHostFallbacks,
  kScenarios,       // campaign scenario executions
  kCount_,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount_);

const char* to_string(Counter c);

// Log2-bucketed histogram: bucket k counts values v with bit_width(v) == k,
// i.e. bucket 0 holds zeros and bucket k >= 1 holds [2^(k-1), 2^k).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 24;

  void observe(std::uint64_t v);
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }
  std::uint64_t total() const;
  std::uint64_t max() const { return max_; }
  void merge(const Histogram& o);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t max_ = 0;
};

// Predicate verdicts pooled per stage (all of Φ_P/Φ_F/Φ_C), for the
// per-stage summary table of tools/trace_inspect.
struct StagePhi {
  std::uint64_t pass = 0;
  std::uint64_t fail = 0;
};

class MetricsRegistry {
 public:
  void inc(Counter c, std::uint64_t v = 1) {
    counters_[static_cast<std::size_t>(c)] += v;
  }
  std::uint64_t get(Counter c) const {
    return counters_[static_cast<std::size_t>(c)];
  }

  void observe_msg_words(std::uint64_t words) { msg_words_.observe(words); }
  void observe_queue_depth(std::uint64_t depth) { queue_depth_.observe(depth); }
  void phi_verdict(int stage, bool pass);

  const Histogram& msg_words() const { return msg_words_; }
  const Histogram& queue_depth() const { return queue_depth_; }
  const std::vector<StagePhi>& per_stage() const { return per_stage_; }

  void merge(const MetricsRegistry& o);

 private:
  std::array<std::uint64_t, kNumCounters> counters_{};
  Histogram msg_words_;
  Histogram queue_depth_;
  std::vector<StagePhi> per_stage_;  // indexed by stage; grown on demand
};

}  // namespace aoft::obs
