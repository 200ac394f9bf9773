// Structured run traces: the machine-readable execution record the paper's
// argument needs (Thm 3 is a claim about *what the system observed when it
// halted* — which Φ component fired, at which stage, on which node).
//
// A Tracer is a per-run append-only event log.  Instrumentation points across
// the stack emit into it:
//
//   sort/sft.cpp         — run begin/end, per-node stage spans, iteration
//                          marks, checkpoint uploads and certifications,
//   sort/predicates.cpp  — every Φ_P/Φ_F/Φ_C evaluation with its verdict,
//   sim/machine.cpp      — fail-stop error reports, dropped link messages,
//   sim/channel.cpp      — receive timeouts (watchdog fail-overs),
//   sim/scheduler.cpp    — watchdog rounds,
//   fault/supervisor.cpp — attempts, rollback/restart/reconfigure decisions,
//   fault/campaign.cpp   — per-slot scenario marks (merged in slot order).
//
// Timestamps are the simulation's *logical* clocks, so a trace is a pure
// function of (input, fault plan, seed): the determinism tests compare traces
// byte-for-byte across thread counts.  Tracing is disabled by default and
// must stay off the hot path: emission goes through a thread-local sink
// pointer (obs/sink.h) — a null check, no virtual dispatch, no allocation
// when no tracer is bound.
//
// Serialization (JSONL and Chrome trace_event) lives in obs/trace_io.h.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aoft::obs {

// Event kinds.  The JSONL schema (docs/PROTOCOL.md §9) encodes these by
// name, so renames are schema changes; additions are backward-compatible.
enum class Ev : std::uint8_t {
  kRunBegin,       // a=dim, b=block; stage=start stage (resume > 0)
  kRunEnd,         // t=elapsed ticks; a=#errors, b=watchdog rounds
  kStage,          // span: one node's stage [t0, t1]; stage=dim means the
                   // final pure-exchange verification round
  kIter,           // instant: compare-exchange iteration finished
  kPhiP,           // verdict: a=1 pass / 0 fail, b=position, detail=cause
  kPhiF,           // verdict, as kPhiP
  kPhiC,           // verdict, as kPhiP (one per merged message)
  kPairCheck,      // verdict: the passive partner's (a, b) exchange check
  kTimeout,        // a channel receive failed at quiescence (fail-over)
  kWatchdogRound,  // a=round number, b=receivers failed this round
  kError,          // fail-stop report: a=ErrorSource, detail=diagnostic
  kDrop,           // interceptor dropped a link message; a=dest, b=words
  kCkptUpload,     // a=1 representative slice / 0 digest, b=words
  kCkptCertify,    // host verdict on a stage checkpoint: a=certified,
                   //   b=windows agreed
  kAttempt,        // span: one supervised attempt; a=attempt, b=Rung,
                   //   detail=outcome
  kRollback,       // supervisor resumes from a checkpoint; a=resume stage
  kRestart,        // supervisor restarts from scratch
  kReconfigure,    // a=new dim, b=new block, detail=retired physical nodes
  kHostFallback,   // terminal host-sort rung entered
  kScenario,       // campaign slot attempt; a=slot, b=attempt, detail=class
  kLink,           // one link message (transport cross-checks): node=sender
                   //   (kHostNode when from the host), a=receiver (kHostNode
                   //   when to the host), b packs
                   //   words<<16 | kind<<8 | delivered<<2 | to_host<<1
                   //   | from_host.  Emitted canonically sorted by the CLI's
                   //   --trace-links writer, not on the sim hot path.
};

const char* to_string(Ev e);
bool ev_from_string(std::string_view s, Ev& out);

// `node` values outside the cube's label space.
inline constexpr std::int32_t kHostNode = -1;  // the reliable host processor
inline constexpr std::int32_t kGlobal = -2;    // machine/supervisor scope

struct TraceEvent {
  Ev kind = Ev::kRunBegin;
  std::int32_t node = kGlobal;
  std::int32_t stage = -1;
  std::int32_t iter = -1;
  double t0 = 0.0;  // logical ticks
  double t1 = 0.0;  // == t0 for instants, >= t0 for spans
  std::int64_t a = 0;  // kind-specific payload (see enum comments)
  std::int64_t b = 0;
  std::string detail;

  bool is_span() const { return kind == Ev::kStage || kind == Ev::kAttempt; }
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(Tracer&&) = default;
  Tracer& operator=(Tracer&&) = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void emit(TraceEvent ev) { events_.push_back(std::move(ev)); }

  void instant(Ev kind, std::int32_t node, std::int32_t stage,
               std::int32_t iter, double t, std::int64_t a = 0,
               std::int64_t b = 0, std::string detail = {}) {
    emit(TraceEvent{kind, node, stage, iter, t, t, a, b, std::move(detail)});
  }

  void span(Ev kind, std::int32_t node, std::int32_t stage, double t0,
            double t1, std::int64_t a = 0, std::int64_t b = 0,
            std::string detail = {}) {
    emit(TraceEvent{kind, node, stage, -1, t0, t1, a, b, std::move(detail)});
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  // Steal `other`'s events onto the end of this log.  Campaigns keep one
  // Tracer per slot and append them in (class, slot) order, so the merged
  // trace is identical for every job count.
  void append(Tracer&& other);

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace aoft::obs
