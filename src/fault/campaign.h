// Fault-injection campaigns: the engine behind the paper's §4 claims.
//
// Theorem 3 states S_FT "produces either a correct bitonic sort or stops with
// an error in the presence of at most n-1 faulty nodes".  A campaign
// generates many randomized-but-reproducible fault scenarios per adversary
// class, runs S_FT (and S_NR, for contrast) under each, and classifies the
// outcome:
//
//   detected      — fail-stop: some node signalled ERROR (the fault may also
//                   have been harmless; detection still counts: the paper's
//                   algorithm halts whenever *behaviour* deviates),
//   masked        — the run terminated silently with a correct sort (the
//                   deviation never altered observable behaviour, e.g. a
//                   compare-exchange corrupted into the value it already had),
//   silent-wrong  — terminated silently with a WRONG sort.  Must be zero for
//                   S_FT within the resilience bound; S_NR exists to show a
//                   non-zero column here.
//
// Scenarios whose injection point is never reached (the mutator fired zero
// times and the node fault is inactive) are re-drawn, so every counted run
// really contains a fault.
//
// Execution engine (docs/PROTOCOL.md §8): campaigns are slot-based.  Class c
// owns runs_per_class slots; attempt a of slot i draws its scenario from a
// fresh Rng seeded with util::derive_seed(cfg.seed, stream(c), i, a) — a pure
// function of the campaign seed, never a shared generator.  A slot redraws
// (next attempt) while its injection goes unexercised, up to kMaxSlotAttempts;
// a slot that never lands is *dropped* and surfaced in the tally, not
// silently backfilled.  Because slots are independent they execute across a
// util::ThreadPool when cfg.jobs > 1, and aggregation always walks slots in
// (class, index) order, so the CampaignSummary is bit-identical for any job
// count, including the serial jobs == 1 path.  Multi-fault and soak
// campaigns run on the same slot engine with their own seed streams.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/adversary.h"
#include "sort/driver.h"
#include "transport/backend.h"
#include "util/rng.h"

namespace aoft::obs {
class Tracer;
class MetricsRegistry;
}  // namespace aoft::obs

namespace aoft::fault {

enum class FaultClass : std::uint8_t {
  kCorruptData,       // link: operand corrupted at one exchange
  kCorruptGossip,     // link: own gossiped entry uniformly corrupted
  kTwoFacedGossip,    // link: gossiped entry corrupted to half the peers only
  kRelayTamper,       // link: a *relayed* third-party entry corrupted
  kDropMessage,       // link: one message dropped
  kDeadLink,          // link: one directed link dead from a point onward
  kGarbleLbs,         // link: whole piggybacked slice randomized
  kReplayStale,       // link: later gossip replaced by a recorded stale copy
  kHaltNode,          // processor: fail-silent from a point onward
  kInvertDirection,   // processor: compare-exchange direction inverted
  kSubstituteValue,   // processor: consistent liar (fabricated element)
};

const char* to_string(FaultClass c);

// Smallest cube dimension on which the class is injectable.  Value
// substitution needs a validated previous stage and a stale replay needs an
// earlier same-window message, so both require stage >= 1, i.e. dim >= 2;
// every other class fits any cube with at least one link (dim >= 1).
// Campaigns skip classes with cfg.dim < min_dim(c) (their tally reports every
// slot dropped); draw_scenario additionally clamps out-of-range stage draws
// so a direct call on a tiny cube is safe rather than undefined.
int min_dim(FaultClass c);

inline constexpr FaultClass kAllFaultClasses[] = {
    FaultClass::kCorruptData,   FaultClass::kCorruptGossip,
    FaultClass::kTwoFacedGossip, FaultClass::kRelayTamper,
    FaultClass::kDropMessage,   FaultClass::kDeadLink,
    FaultClass::kGarbleLbs,     FaultClass::kReplayStale,
    FaultClass::kHaltNode,      FaultClass::kInvertDirection,
    FaultClass::kSubstituteValue,
};

// One concrete, reproducible scenario.
struct Scenario {
  FaultClass fclass{};
  int dim = 3;
  std::size_t block = 1;
  cube::NodeId faulty = 0;
  StagePoint point{};
  sim::Key delta = 1;
  std::uint64_t input_seed = 0;
  cube::NodeId aux_node = 0;  // relay victim / dead-link destination

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

// Outcome of one scenario under one algorithm.
struct ScenarioResult {
  Scenario scenario;
  sort::Outcome outcome{};
  bool fault_exercised = false;       // the injection actually fired
  sim::ErrorSource first_detector{};  // valid when outcome == kFailStop
  int detection_stage = -1;           // stage of the first error report
  // Injections that actually fired during the run: interceptor touches for
  // link classes (a from-point-onward mutator can fire many times), 1 for
  // processor faults.
  std::uint64_t faults_fired = 0;
};

struct ClassTally {
  FaultClass fclass{};
  int runs = 0;
  int detected = 0;
  int masked = 0;
  int silent_wrong = 0;
  // Redraw accounting: `attempts` counts every scenario execution consumed by
  // this class (exercised or not); `dropped` counts slots that exhausted
  // their redraw budget without exercising a fault, so runs == requested
  // slots - dropped.  Benches must surface dropped instead of quietly
  // reporting percentages over a smaller denominator.
  int attempts = 0;
  int dropped = 0;
  // Runs in which the injection fired more than once (a from-point-onward
  // mutator touching several messages).
  int multi_fired = 0;
};

struct CampaignConfig {
  int dim = 4;
  std::size_t block = 1;
  int runs_per_class = 25;
  std::uint64_t seed = 1;
  // Ablation: forwarded to SftOptions so benches can measure which predicate
  // catches which class.
  bool check_progress = true;
  bool check_feasibility = true;
  bool check_consistency = true;
  bool check_exchange = true;
  // Worker threads for scenario execution: 1 = serial (default), 0 = one per
  // CPU this process may run on (util::ThreadPool::resolve), N > 1 = fixed
  // pool of N.  The summary, stream, checkpoint and trace are bit-identical
  // for every value — jobs trades wall-clock only, never results, and is
  // not part of the checkpoint identity (campaign_store.h).
  int jobs = 1;
  // Optional observability sinks (obs/).  Each slot collects into a private
  // per-slot tracer/registry bound to the executing worker thread; after the
  // pool drains, the engine appends/merges them into these in (class, slot)
  // order — so the combined trace and metrics are bit-identical for every
  // `jobs` value, exactly like the CampaignSummary.  Null = no collection.
  // On a resumed campaign only the slots executed by *this* process
  // contribute trace events (completed slots are replayed from their
  // checkpoint records, not re-simulated).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // How injections arrive (fault_spec.h).  kScripted sweeps the FaultClass
  // scenario space; kIndependent/kRunLength run probabilistic soak slots
  // instead (run_soak_campaign).
  InjectionPolicy injection;
  // ---- durability (campaign_store.h, docs/PROTOCOL.md §10) ----
  // Non-empty: persist a slots-completed checkpoint here, written
  // crash-safely after every `checkpoint_every` newly completed slots.
  std::string checkpoint_path;
  // With `resume`, a checkpoint at checkpoint_path is loaded and its
  // completed slots are skipped; the final summary is bit-identical to an
  // uninterrupted run.  A missing file starts fresh; a corrupted or
  // mismatched one throws StoreError — unless `force_restart`, which
  // discards it loudly and starts clean.
  bool resume = false;
  bool force_restart = false;
  // Non-empty: stream one canonical JSONL record per slot (in global slot
  // order) here while the campaign runs.
  std::string stream_path;
  // Shard i of N sweeps the global slots g with g % shard_count ==
  // shard_index; tools/campaign_merge folds shard checkpoints back into the
  // canonical whole.
  int shard_index = 0;
  int shard_count = 1;
  // Checkpoint save cadence, in newly completed slots (>= 1).
  int checkpoint_every = 1;
  // Testing hook (kill-point simulation): when > 0, execute at most this
  // many pending slots, checkpoint, and return the partial summary.
  int stop_after_slots = 0;
  // Which transport executes the scenarios.  Campaigns currently require the
  // in-process simulator: the redraw loop reads adversary.touched() after
  // each attempt, and under the shm backend the interceptor fires inside a
  // forked child whose counters never reach this process.  run_campaign /
  // run_soak_campaign / run_multi_campaign throw std::invalid_argument on
  // any other value — a loud refusal, never a silently-sim campaign wearing
  // an shm label.  The field still participates in CampaignIdentity so a
  // future shm campaign's checkpoints can never be resumed against sim ones.
  transport::Backend backend = transport::Backend::kSim;
};

struct CampaignSummary {
  std::vector<ClassTally> sft;       // per class, algorithm S_FT
  std::vector<ClassTally> snr;       // per class, unprotected S_NR
  std::vector<ScenarioResult> runs;  // every S_FT run, for drill-down
  // Coverage: a full uninterrupted run has slots_done == slots_total; a
  // sharded or stopped-early run reports the records actually present.
  std::size_t slots_total = 0;
  std::size_t slots_done = 0;
};

// Redraw budget per slot: a slot whose injection is never exercised is
// re-drawn with the next attempt sub-seed at most this many times before it
// is counted as dropped.  Matches the old serial engine's global
// runs_per_class * 10 attempt cap, applied per slot.
inline constexpr int kMaxSlotAttempts = 10;

// Fault classes injectable at this dimension, in kAllFaultClasses order —
// the class axis of the scripted campaign's global slot space.
std::vector<FaultClass> active_classes(int dim);

// Draw a concrete scenario of the given class.
Scenario draw_scenario(FaultClass fclass, const CampaignConfig& cfg,
                       util::Rng& rng);

// Run one scenario under S_FT (protected) or S_NR (baseline).
ScenarioResult run_scenario_sft(const Scenario& s, const CampaignConfig& cfg);
ScenarioResult run_scenario_snr(const Scenario& s, const CampaignConfig& cfg);

// Full campaign: every class, cfg.runs_per_class exercised scenarios each,
// under both algorithms.
CampaignSummary run_campaign(const CampaignConfig& cfg);

// ---- multi-fault campaigns (Theorem 3's actual bound) -----------------------

// k simultaneous faults on k distinct nodes, classes drawn independently.
struct MultiScenario {
  int dim = 4;
  std::size_t block = 1;
  std::uint64_t input_seed = 0;
  std::vector<Scenario> faults;  // one per faulty node, aligned fields
};

struct MultiResult {
  sort::Outcome outcome{};
  bool fault_exercised = false;
  int detection_stage = -1;
};

MultiScenario draw_multi_scenario(int k, const CampaignConfig& cfg,
                                  util::Rng& rng);
MultiResult run_multi_scenario_sft(const MultiScenario& s,
                                   const CampaignConfig& cfg);

struct MultiTally {
  int k = 0;  // simultaneous faults
  int runs = 0;
  int detected = 0;
  int masked = 0;
  int silent_wrong = 0;
  int attempts = 0;  // multi-scenario executions consumed (see ClassTally)
  int dropped = 0;   // slots that never exercised a fault
};

// For k = 1 .. max_k: cfg.runs_per_class exercised multi-fault runs each.
// Theorem 3 promises silent_wrong == 0 for every k <= dim-1.
std::vector<MultiTally> run_multi_campaign(const CampaignConfig& cfg, int max_k);

// ---- probabilistic soak campaigns (InjectionMode != kScripted) --------------

// One soak run = one S_FT sort under probabilistic fault arrival
// (fault_spec.h): kIndependent corrupts each node-node message with
// probability p, kRunLength crashes one drawn node on its k-th send.  A
// slot redraws (fresh sub-seed) while no injection fires, exactly like the
// scripted engine, and the whole campaign is a pure function of
// (seed, mode, params) at every job count.
//
// Theorem 3's silent-wrong == 0 contract is asserted only while the
// faulty-node count stays within the <= n-1 resilience bound.  A run whose
// arrival pattern exceeds the bound is outside the theorem's hypothesis:
// a silent-wrong there is *recorded* — outcome plus the observed
// dislocation of the output — never counted as a violation.
struct SoakTally {
  int runs = 0;
  int detected = 0;
  int masked = 0;
  int silent_wrong_in_bound = 0;   // the gated column: must be 0
  int silent_wrong_beyond = 0;     // observed outside the theorem's bound
  int beyond_bound_runs = 0;       // runs with faulty_nodes > dim-1
  int multi_fired = 0;             // runs where > 1 injection fired
  long long faults_fired = 0;      // total injections across all runs
  int attempts = 0;
  int dropped = 0;
  std::uint64_t max_dislocation = 0;  // worst silent-wrong-beyond output
  std::size_t slots_total = 0;
  std::size_t slots_done = 0;
};

// Full soak campaign: cfg.runs_per_class slots under cfg.injection, with the
// same checkpoint/stream/shard surface as run_campaign.
SoakTally run_soak_campaign(const CampaignConfig& cfg);

// Max displacement of any element from its position in the stable-sorted
// copy of `output` — 0 iff sorted.  The honesty metric recorded for
// silent-wrong outcomes beyond the resilience bound (cf. the dislocation
// measure of the randomized-persistent-faults literature).
std::uint64_t max_dislocation(std::span<const sim::Key> output);

}  // namespace aoft::fault
