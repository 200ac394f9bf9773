#include "fault/campaign.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>

#include "fault/campaign_store.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "sim/machine.h"
#include "sort/sft.h"
#include "sort/snr.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aoft::fault {

namespace {

// Campaigns read adversary.touched() after every attempt to drive the redraw
// loop; under the shm backend the interceptor fires inside a forked child, so
// the counter this process reads would always be zero and every slot would be
// "unexercised".  Refuse loudly instead of sweeping nothing.
void require_sim_backend(const CampaignConfig& cfg) {
  if (cfg.backend != transport::Backend::kSim)
    throw std::invalid_argument(
        "fault campaigns require the in-process sim backend (got \"" +
        std::string(transport::to_string(cfg.backend)) +
        "\"): injection-exercised accounting lives in the worker's address "
        "space");
}

}  // namespace

const char* to_string(FaultClass c) {
  switch (c) {
    case FaultClass::kCorruptData: return "corrupt-data";
    case FaultClass::kCorruptGossip: return "corrupt-gossip";
    case FaultClass::kTwoFacedGossip: return "two-faced-gossip";
    case FaultClass::kRelayTamper: return "relay-tamper";
    case FaultClass::kDropMessage: return "drop-message";
    case FaultClass::kDeadLink: return "dead-link";
    case FaultClass::kGarbleLbs: return "garble-lbs";
    case FaultClass::kReplayStale: return "replay-stale";
    case FaultClass::kHaltNode: return "halt-node";
    case FaultClass::kInvertDirection: return "invert-direction";
    case FaultClass::kSubstituteValue: return "substitute-value";
  }
  return "?";
}

int min_dim(FaultClass c) {
  switch (c) {
    case FaultClass::kSubstituteValue:
    case FaultClass::kReplayStale:
      return 2;  // both need an injection stage >= 1, i.e. at least 2 stages
    default:
      return 1;  // every link/processor fault needs at least one link
  }
}

std::vector<FaultClass> active_classes(int dim) {
  std::vector<FaultClass> active;
  for (FaultClass fclass : kAllFaultClasses)
    if (dim >= min_dim(fclass)) active.push_back(fclass);
  return active;
}

Scenario draw_scenario(FaultClass fclass, const CampaignConfig& cfg,
                       util::Rng& rng) {
  const int n = cfg.dim;
  const auto num_nodes = cube::NodeId{1} << n;
  Scenario s;
  s.fclass = fclass;
  s.dim = n;
  s.block = cfg.block;
  s.faulty = static_cast<cube::NodeId>(rng.next_below(num_nodes));
  // Environmental assumption 5: nodes are sane through the first message
  // exchange, so the earliest injection point is after stage 0 begins; value
  // substitution additionally requires a *validated* previous stage, and a
  // stale replay needs at least two same-window messages after its point.
  // On cubes below min_dim(fclass) those constraints are unsatisfiable;
  // clamp the stage window to [0, max(n-1, 0)] so the draw stays defined
  // (next_below requires a nonzero bound) instead of dividing by zero.
  int min_stage = fclass == FaultClass::kSubstituteValue ||
                          fclass == FaultClass::kReplayStale
                      ? 1
                      : 0;
  min_stage = std::min(min_stage, std::max(n - 1, 0));
  s.point.stage =
      min_stage +
      static_cast<int>(rng.next_below(
          std::max<std::uint64_t>(static_cast<std::uint64_t>(n - min_stage), 1)));
  if (fclass == FaultClass::kReplayStale && s.point.stage > 0)
    s.point.iter = 1 + static_cast<int>(
                           rng.next_below(static_cast<std::uint64_t>(s.point.stage)));
  else
    s.point.iter = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(s.point.stage + 1)));
  s.delta = rng.next_in(1, 1 << 20) * (rng.next_bool() ? 1 : -1);
  s.input_seed = rng.next_u64();
  // Auxiliary node: a member of the stage window other than the faulty node
  // (relay victim), or an arbitrary neighbor (dead link destination).
  if (fclass == FaultClass::kRelayTamper) {
    const cube::NodeId flip = static_cast<cube::NodeId>(
        1 + rng.next_below((cube::NodeId{1} << (s.point.stage + 1)) - 1));
    s.aux_node = s.faulty ^ flip;
  } else {
    s.aux_node =
        s.faulty ^ (cube::NodeId{1} << rng.next_below(
                        std::max<std::uint64_t>(static_cast<std::uint64_t>(n), 1)));
  }
  return s;
}

namespace {

// Build (adversary, node-fault map) realizing the scenario.
void instantiate(const Scenario& s, Adversary& adversary, NodeFaultMap& nf) {
  switch (s.fclass) {
    case FaultClass::kCorruptData:
      adversary.add(corrupt_data(s.faulty, s.point, s.delta));
      break;
    case FaultClass::kCorruptGossip:
      adversary.add(
          corrupt_gossip_entry(s.faulty, s.point, s.faulty, s.delta, s.block));
      break;
    case FaultClass::kTwoFacedGossip:
      adversary.add(two_faced_gossip(
          s.faulty, s.point, s.faulty, s.delta, s.block,
          [](cube::NodeId dest) { return (dest & 1u) == 1u; }));
      break;
    case FaultClass::kRelayTamper:
      adversary.add(
          corrupt_gossip_entry(s.faulty, s.point, s.aux_node, s.delta, s.block));
      break;
    case FaultClass::kDropMessage:
      adversary.add(drop_message(s.faulty, s.point));
      break;
    case FaultClass::kDeadLink:
      adversary.add(dead_link(s.faulty, s.aux_node, s.point));
      break;
    case FaultClass::kGarbleLbs:
      adversary.add(garble_lbs(s.faulty, s.point, s.input_seed ^ 0xabcdefULL));
      break;
    case FaultClass::kReplayStale:
      adversary.add(replay_stale_lbs(s.faulty, s.point));
      break;
    case FaultClass::kHaltNode:
      nf[s.faulty].halt_at = s.point;
      break;
    case FaultClass::kInvertDirection:
      nf[s.faulty].invert_direction_from = s.point;
      break;
    case FaultClass::kSubstituteValue:
      nf[s.faulty].substitute_at = s.point;
      nf[s.faulty].substitute_value = 3000000000LL + s.delta;
      break;
  }
}

bool is_link_class(FaultClass c) {
  switch (c) {
    case FaultClass::kCorruptData:
    case FaultClass::kCorruptGossip:
    case FaultClass::kTwoFacedGossip:
    case FaultClass::kRelayTamper:
    case FaultClass::kDropMessage:
    case FaultClass::kDeadLink:
    case FaultClass::kGarbleLbs:
    case FaultClass::kReplayStale:
      return true;
    default:
      return false;
  }
}

// Gossip-targeting classes touch fields S_NR does not transmit.
bool applies_to_snr(FaultClass c) {
  switch (c) {
    case FaultClass::kCorruptGossip:
    case FaultClass::kTwoFacedGossip:
    case FaultClass::kRelayTamper:
    case FaultClass::kGarbleLbs:
    case FaultClass::kReplayStale:
      return false;
    default:
      return true;
  }
}

// A single-fault scenario's result.  A link-class fault was exercised when
// the adversary touched a message, and fired once per touch; a node-class
// fault was exercised, and fired once, when it instantiated a script.
ScenarioResult finish_result(const Scenario& s, const sort::SortRun& run,
                             std::span<const sim::Key> input,
                             const Adversary& adversary,
                             const NodeFaultMap& node_faults) {
  const bool link = is_link_class(s.fclass);
  ScenarioResult r;
  r.scenario = s;
  r.outcome = sort::classify(run, input);
  r.fault_exercised = link ? adversary.touched() > 0 : !node_faults.empty();
  r.faults_fired = link ? adversary.touched() : (r.fault_exercised ? 1 : 0);
  if (!run.errors.empty()) {
    r.first_detector = run.errors.front().source;
    r.detection_stage = run.errors.front().stage;
  }
  return r;
}

// ---- slot engine ------------------------------------------------------------
//
// One slot = one requested exercised run.  All randomness for (stream, slot,
// attempt) comes from util::derive_seed, so slots are independent pure
// functions of the campaign seed: phase 1 pre-draws attempt-0 scenarios
// serially (cheap, and keeps draw_scenario's contract single-threaded),
// phase 2 executes slots across the pool (redraws derive later attempt
// sub-seeds in-worker), and aggregation walks slots in order.

// Seed streams: single-fault classes use their enum value, multi-fault
// campaigns use a disjoint range keyed by k.
std::uint64_t class_stream(FaultClass c) {
  return static_cast<std::uint64_t>(c);
}
std::uint64_t multi_stream(int k) {
  return 0x100u + static_cast<std::uint64_t>(k);
}

struct SlotOutcome {
  std::optional<ScenarioResult> sft;  // engaged iff some attempt exercised
  int attempts = 0;                   // scenario executions consumed
  bool snr_counted = false;
  sort::Outcome snr_outcome{};
  // Per-slot observability collection (merged in slot order by phase 3).
  obs::Tracer trace;
  obs::MetricsRegistry metrics;
};

Scenario draw_slot_attempt(FaultClass fclass, const CampaignConfig& cfg,
                           std::size_t slot, int attempt) {
  util::Rng rng(
      util::derive_seed(cfg.seed, class_stream(fclass), slot,
                        static_cast<std::uint64_t>(attempt)));
  return draw_scenario(fclass, cfg, rng);
}

SlotOutcome run_slot(FaultClass fclass, const CampaignConfig& cfg,
                     std::size_t slot, const Scenario& first_draw) {
  SlotOutcome out;
  // Bind this slot's private sinks to the executing worker thread (and shadow
  // any ambient sink, so inline jobs == 1 runs collect identically).
  obs::ScopedSink bind(cfg.tracer != nullptr ? &out.trace : nullptr,
                       cfg.metrics != nullptr ? &out.metrics : nullptr);
  for (int attempt = 0; attempt < kMaxSlotAttempts; ++attempt) {
    const Scenario s = attempt == 0
                           ? first_draw
                           : draw_slot_attempt(fclass, cfg, slot, attempt);
    ++out.attempts;
    if (auto* tr = obs::tracer())
      tr->instant(obs::Ev::kScenario, obs::kGlobal, -1, -1, 0.0,
                  static_cast<std::int64_t>(slot), attempt,
                  to_string(fclass));
    if (auto* me = obs::metrics()) me->inc(obs::Counter::kScenarios);
    auto r = run_scenario_sft(s, cfg);
    if (!r.fault_exercised) continue;  // injection point never reached
    out.sft = std::move(r);
    if (applies_to_snr(fclass)) {
      const auto b = run_scenario_snr(s, cfg);
      if (b.fault_exercised) {
        out.snr_counted = true;
        out.snr_outcome = b.outcome;
      }
    }
    break;
  }
  return out;
}

// One simulated Machine per worker thread, rebuilt only when the cube
// dimension changes and reset() between scenarios (the sort resets it with
// the run's own cost model).  Machine::reset makes the machine observably
// identical to a fresh one, so leasing never shows in results or traces —
// it only removes the per-scenario construction and teardown of 2^dim
// channel/context sets from the hot path.
sim::Machine* lease_machine(int dim) {
  thread_local std::unique_ptr<sim::Machine> machine;
  thread_local int machine_dim = -1;
  if (machine_dim != dim) {
    machine = std::make_unique<sim::Machine>(cube::Topology{dim},
                                             sim::CostModel{});
    machine_dim = dim;
  }
  return machine.get();
}

// CampaignConfig -> SftOptions: the block, the predicate toggles and this
// worker's leased machine.  Faults and the interceptor are the caller's.
sort::SftOptions sft_options(const CampaignConfig& cfg, int dim,
                             std::size_t block) {
  sort::SftOptions opts;
  opts.block = block;
  opts.check_progress = cfg.check_progress;
  opts.check_feasibility = cfg.check_feasibility;
  opts.check_consistency = cfg.check_consistency;
  opts.check_exchange = cfg.check_exchange;
  opts.machine = lease_machine(dim);
  return opts;
}

// Run body(i) for i in [0, count): inline when jobs == 1, across a pool
// otherwise.  Bodies write into disjoint slots of pre-sized vectors, so the
// execution order never shows in the output.
void for_each_slot(const CampaignConfig& cfg, std::size_t count,
                   const std::function<void(std::size_t)>& body) {
  const int n = util::ThreadPool::resolve(cfg.jobs);
  if (n <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  util::ThreadPool pool(n);
  pool.parallel_for(count, body);
}

// ---- durable-session plumbing (campaign_store.h) ----------------------------
//
// Shared by the scripted and soak engines.  A session owns the in-memory
// CheckpointData, the ordered slot stream, and the list of slots this process
// still has to execute.  Workers commit completed slots through one mutex;
// the checkpoint is re-saved crash-safely every cfg.checkpoint_every commits,
// and the stream cursor advances over every done-in-order slot.  Nothing here
// affects results: records are keyed by global slot, so the final artifacts
// are pure functions of the campaign identity regardless of jobs,
// shard layout or how many times the process was killed and resumed.

struct StoreSession {
  CampaignIdentity id;
  CheckpointData data;
  SlotStream stream;
  std::vector<std::uint64_t> shard;    // ascending slots owned by this shard
  std::vector<std::uint64_t> pending;  // shard slots left to execute
  std::size_t cursor = 0;              // next shard index to stream
  std::size_t since_save = 0;
  std::mutex mu;
};

void open_session(const CampaignConfig& cfg, StoreSession& ss) {
  ss.id = identity_of(cfg);
  ss.data.identity = ss.id;
  ss.data.done = util::BitVec(identity_total_slots(ss.id));
  ss.shard = shard_slots(ss.id);

  if (cfg.resume && !cfg.force_restart && !cfg.checkpoint_path.empty()) {
    CheckpointData loaded;
    std::string err;
    const StoreStatus status =
        load_checkpoint(cfg.checkpoint_path, &loaded, &err);
    if (status == StoreStatus::kOk) {
      if (!(loaded.identity == ss.id))
        throw StoreError(
            StoreStatus::kIdentityMismatch,
            "checkpoint " + cfg.checkpoint_path +
                ": belongs to a different campaign (dim/seed/mode/checks/"
                "shard differ); use --resume=force-restart to discard it");
      ss.data = std::move(loaded);
    } else if (status != StoreStatus::kMissing) {
      // A missing checkpoint is a fresh start; anything else is loud.
      throw StoreError(status,
                       err + " [" + std::string(to_string(status)) +
                           "]; use --resume=force-restart to discard it");
    }
  }

  // Split the shard into the already-completed in-order prefix (re-emitted
  // into the stream from checkpoint records) and the pending remainder.
  std::vector<std::string> prefix;
  bool in_prefix = true;
  for (std::uint64_t g : ss.shard) {
    if (ss.data.done.test(g)) {
      if (in_prefix) {
        prefix.push_back(stream_line(ss.id, *find_record(ss.data, g)));
        ++ss.cursor;
      }
    } else {
      in_prefix = false;
      ss.pending.push_back(g);
    }
  }

  if (!cfg.stream_path.empty()) {
    std::string err;
    if (!ss.stream.open(cfg.stream_path, stream_header(ss.id), prefix,
                        cfg.resume && !cfg.force_restart, &err))
      throw StoreError(StoreStatus::kIdentityMismatch, err);
  }

  // Kill-point simulation: execute only the first pending slots, in order,
  // so the stream prefix stays gap-free.
  if (cfg.stop_after_slots > 0 &&
      ss.pending.size() > static_cast<std::size_t>(cfg.stop_after_slots))
    ss.pending.resize(static_cast<std::size_t>(cfg.stop_after_slots));
}

// Record one completed slot: insert its record, maybe checkpoint, advance
// the stream cursor over every newly in-order done slot.
void commit_slot(const CampaignConfig& cfg, StoreSession& ss, SlotRecord rec) {
  std::lock_guard<std::mutex> lock(ss.mu);
  const std::uint64_t g = rec.gslot;
  auto it = std::lower_bound(
      ss.data.records.begin(), ss.data.records.end(), g,
      [](const SlotRecord& r, std::uint64_t key) { return r.gslot < key; });
  ss.data.records.insert(it, std::move(rec));
  ss.data.done.set(g);
  ++ss.since_save;
  if (!cfg.checkpoint_path.empty() &&
      ss.since_save >= static_cast<std::size_t>(std::max(1, cfg.checkpoint_every))) {
    std::string err;
    if (!save_checkpoint(cfg.checkpoint_path, ss.data, &err))
      throw StoreError(StoreStatus::kMalformed, err);
    ss.since_save = 0;
  }
  if (ss.stream.active()) {
    while (ss.cursor < ss.shard.size() &&
           ss.data.done.test(ss.shard[ss.cursor])) {
      std::string err;
      if (!ss.stream.append(
              stream_line(ss.id, *find_record(ss.data, ss.shard[ss.cursor])),
              &err))
        throw StoreError(StoreStatus::kMalformed, err);
      ++ss.cursor;
    }
  }
}

// Final save after the pool drains, so a clean exit never leaves the
// checkpoint a cadence behind the stream.
void close_session(const CampaignConfig& cfg, StoreSession& ss) {
  if (cfg.checkpoint_path.empty() || ss.since_save == 0) return;
  std::string err;
  if (!save_checkpoint(cfg.checkpoint_path, ss.data, &err))
    throw StoreError(StoreStatus::kMalformed, err);
  ss.since_save = 0;
}

}  // namespace

ScenarioResult run_scenario_sft(const Scenario& s, const CampaignConfig& cfg) {
  auto input = util::random_keys(
      s.input_seed, (std::size_t{1} << s.dim) * s.block);
  Adversary adversary;
  sort::SftOptions opts = sft_options(cfg, s.dim, s.block);
  instantiate(s, adversary, opts.node_faults);
  if (is_link_class(s.fclass)) opts.interceptor = &adversary;
  auto run = sort::run_sft(s.dim, input, opts);
  return finish_result(s, run, input, adversary, opts.node_faults);
}

ScenarioResult run_scenario_snr(const Scenario& s, const CampaignConfig&) {
  auto input = util::random_keys(
      s.input_seed, (std::size_t{1} << s.dim) * s.block);
  Adversary adversary;
  sort::SnrOptions opts;
  opts.block = s.block;
  instantiate(s, adversary, opts.node_faults);
  if (is_link_class(s.fclass)) opts.interceptor = &adversary;
  opts.machine = lease_machine(s.dim);
  auto run = sort::run_snr(s.dim, input, opts);
  return finish_result(s, run, input, adversary, opts.node_faults);
}

MultiScenario draw_multi_scenario(int k, const CampaignConfig& cfg,
                                  util::Rng& rng) {
  MultiScenario ms;
  ms.dim = cfg.dim;
  ms.block = cfg.block;
  ms.input_seed = rng.next_u64();
  std::vector<bool> used(std::size_t{1} << cfg.dim, false);
  while (static_cast<int>(ms.faults.size()) < k) {
    const auto fclass =
        kAllFaultClasses[rng.next_below(std::size(kAllFaultClasses))];
    Scenario s = draw_scenario(fclass, cfg, rng);
    if (used[s.faulty]) continue;  // distinct faulty nodes
    used[s.faulty] = true;
    s.input_seed = ms.input_seed;  // one shared input per multi-run
    ms.faults.push_back(std::move(s));
  }
  return ms;
}

MultiResult run_multi_scenario_sft(const MultiScenario& ms,
                                   const CampaignConfig& cfg) {
  auto input = util::random_keys(ms.input_seed,
                                 (std::size_t{1} << ms.dim) * ms.block);
  Adversary adversary;
  sort::SftOptions opts = sft_options(cfg, ms.dim, ms.block);
  bool any_node_fault = false;
  bool any_link_fault = false;
  for (const auto& s : ms.faults) {
    instantiate(s, adversary, opts.node_faults);
    any_node_fault |= !is_link_class(s.fclass);
    any_link_fault |= is_link_class(s.fclass);
  }
  if (any_link_fault) opts.interceptor = &adversary;
  auto run = sort::run_sft(ms.dim, input, opts);

  MultiResult r;
  r.outcome = sort::classify(run, input);
  r.fault_exercised = any_node_fault || adversary.touched() > 0;
  if (!run.errors.empty()) r.detection_stage = run.errors.front().stage;
  return r;
}

std::vector<MultiTally> run_multi_campaign(const CampaignConfig& cfg, int max_k) {
  require_sim_backend(cfg);
  const auto slots_per_k = static_cast<std::size_t>(cfg.runs_per_class);

  struct MultiSlotOutcome {
    std::optional<MultiResult> result;  // engaged iff exercised
    int attempts = 0;
    obs::Tracer trace;
    obs::MetricsRegistry metrics;
  };

  // Phase 1: pre-draw attempt-0 multi-scenarios serially.
  std::vector<MultiScenario> first_draws(static_cast<std::size_t>(max_k) *
                                         slots_per_k);
  for (int k = 1; k <= max_k; ++k)
    for (std::size_t slot = 0; slot < slots_per_k; ++slot) {
      util::Rng rng(util::derive_seed(cfg.seed, multi_stream(k), slot, 0));
      first_draws[static_cast<std::size_t>(k - 1) * slots_per_k + slot] =
          draw_multi_scenario(k, cfg, rng);
    }

  // Phase 2: execute every (k, slot) across the pool.
  std::vector<MultiSlotOutcome> outcomes(first_draws.size());
  for_each_slot(cfg, outcomes.size(), [&](std::size_t i) {
    const int k = static_cast<int>(i / slots_per_k) + 1;
    const std::size_t slot = i % slots_per_k;
    auto& out = outcomes[i];
    obs::ScopedSink bind(cfg.tracer != nullptr ? &out.trace : nullptr,
                         cfg.metrics != nullptr ? &out.metrics : nullptr);
    for (int attempt = 0; attempt < kMaxSlotAttempts; ++attempt) {
      MultiScenario ms;
      if (attempt == 0) {
        ms = first_draws[i];
      } else {
        util::Rng rng(util::derive_seed(
            cfg.seed, multi_stream(k), slot, static_cast<std::uint64_t>(attempt)));
        ms = draw_multi_scenario(k, cfg, rng);
      }
      ++out.attempts;
      if (auto* tr = obs::tracer())
        tr->instant(obs::Ev::kScenario, obs::kGlobal, -1, -1, 0.0,
                    static_cast<std::int64_t>(slot), attempt,
                    "multi-k" + std::to_string(k));
      if (auto* me = obs::metrics()) me->inc(obs::Counter::kScenarios);
      const auto r = run_multi_scenario_sft(ms, cfg);
      if (!r.fault_exercised) continue;
      out.result = r;
      break;
    }
  });

  // Phase 3: aggregate in (k, slot) order — identical for every job count.
  std::vector<MultiTally> tallies;
  for (int k = 1; k <= max_k; ++k) {
    MultiTally tally;
    tally.k = k;
    for (std::size_t slot = 0; slot < slots_per_k; ++slot) {
      auto& out =
          outcomes[static_cast<std::size_t>(k - 1) * slots_per_k + slot];
      if (cfg.tracer != nullptr) cfg.tracer->append(std::move(out.trace));
      if (cfg.metrics != nullptr) cfg.metrics->merge(out.metrics);
      tally.attempts += out.attempts;
      if (!out.result) {
        ++tally.dropped;
        continue;
      }
      ++tally.runs;
      switch (out.result->outcome) {
        case sort::Outcome::kFailStop: ++tally.detected; break;
        case sort::Outcome::kCorrect: ++tally.masked; break;
        case sort::Outcome::kSilentWrong: ++tally.silent_wrong; break;
      }
    }
    tallies.push_back(tally);
  }
  return tallies;
}

CampaignSummary run_campaign(const CampaignConfig& cfg) {
  require_sim_backend(cfg);
  const auto slots_per_class = static_cast<std::uint64_t>(cfg.runs_per_class);

  // Supported classes at this dimension; unsupported ones keep a zeroed
  // tally with every slot reported dropped rather than crashing the draw.
  const std::vector<FaultClass> active = active_classes(cfg.dim);

  // Phase 0: open the durable session — load/validate any checkpoint,
  // rebuild the stream prefix, compute the pending slot list.  A fresh
  // non-durable campaign degenerates to "every shard slot is pending".
  StoreSession ss;
  open_session(cfg, ss);

  // Phase 1: pre-draw attempt-0 scenarios for pending slots serially.
  std::vector<Scenario> first_draws(ss.pending.size());
  for (std::size_t i = 0; i < ss.pending.size(); ++i) {
    const std::uint64_t g = ss.pending[i];
    first_draws[i] = draw_slot_attempt(active[g / slots_per_class], cfg,
                                       g % slots_per_class, 0);
  }

  // Phase 2: execute every pending slot, possibly across the pool, and
  // commit each to the checkpoint/stream as it completes.
  std::vector<SlotOutcome> outcomes(ss.pending.size());
  for_each_slot(cfg, outcomes.size(), [&](std::size_t i) {
    const std::uint64_t g = ss.pending[i];
    const FaultClass fclass = active[g / slots_per_class];
    auto& out = outcomes[i];
    out = run_slot(fclass, cfg, g % slots_per_class, first_draws[i]);
    SlotRecord rec;
    rec.gslot = g;
    rec.attempts = out.attempts;
    rec.exercised = out.sft.has_value();
    if (out.sft) {
      rec.scenario = out.sft->scenario;
      rec.outcome = out.sft->outcome;
      rec.first_detector = out.sft->first_detector;
      rec.detection_stage = out.sft->detection_stage;
      rec.snr_counted = out.snr_counted;
      rec.snr_outcome = out.snr_outcome;
      rec.faults_fired = out.sft->faults_fired;
      rec.faulty_nodes = 1;  // scripted scenarios have one faulty node
    }
    commit_slot(cfg, ss, std::move(rec));
  });
  close_session(cfg, ss);

  // Merge per-slot observability in ascending global-slot order (pending is
  // ascending, so this matches the old (class, slot) walk exactly).
  for (auto& out : outcomes) {
    if (cfg.tracer != nullptr) cfg.tracer->append(std::move(out.trace));
    if (cfg.metrics != nullptr) cfg.metrics->merge(out.metrics);
  }

  // Phase 3: aggregate from the records in (class, slot) order — identical
  // for every job count, shard layout and resume history.
  return summarize_slots(cfg, ss.data);
}

// ---- probabilistic soak campaigns -------------------------------------------

std::uint64_t max_dislocation(std::span<const sim::Key> output) {
  std::vector<std::size_t> idx(output.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return output[a] < output[b];
  });
  std::uint64_t worst = 0;
  for (std::size_t rank = 0; rank < idx.size(); ++rank) {
    const std::size_t from = idx[rank];
    worst = std::max(worst,
                     static_cast<std::uint64_t>(rank > from ? rank - from
                                                            : from - rank));
  }
  return worst;
}

namespace {

// Seed stream for soak slots: disjoint from the per-class and multi-fault
// ranges.
std::uint64_t soak_stream(InjectionMode mode) {
  return 0x200u + static_cast<std::uint64_t>(mode);
}

// One soak slot: redraw (input, delta, gate seed, victim) until an injection
// actually fires, up to the shared redraw budget.  Everything consumed comes
// from derive_seed(seed, soak_stream, slot, attempt) — pure per attempt.
SlotRecord run_soak_slot(const CampaignConfig& cfg, std::uint64_t g) {
  const auto num_nodes = std::size_t{1} << cfg.dim;
  SlotRecord rec;
  rec.gslot = g;
  for (int attempt = 0; attempt < kMaxSlotAttempts; ++attempt) {
    util::Rng rng(util::derive_seed(cfg.seed, soak_stream(cfg.injection.mode),
                                    g, static_cast<std::uint64_t>(attempt)));
    const std::uint64_t input_seed = rng.next_u64();
    const sim::Key delta = rng.next_in(1, 1 << 20) * (rng.next_bool() ? 1 : -1);
    const std::uint64_t gate_seed = rng.next_u64();
    const auto faulty = static_cast<cube::NodeId>(rng.next_below(num_nodes));
    ++rec.attempts;
    if (auto* tr = obs::tracer())
      tr->instant(obs::Ev::kScenario, obs::kGlobal, -1, -1, 0.0,
                  static_cast<std::int64_t>(g), attempt,
                  to_string(cfg.injection.mode));
    if (auto* me = obs::metrics()) me->inc(obs::Counter::kScenarios);

    ArrivalStats stats;
    stats.fired_nodes = util::BitVec(num_nodes);
    Adversary adversary;
    if (cfg.injection.mode == InjectionMode::kIndependent)
      adversary.add(
          independent_corrupt(cfg.injection.p, delta, gate_seed, &stats));
    else
      adversary.add(run_length_crash(faulty, cfg.injection.k, &stats));

    auto input = util::random_keys(input_seed, num_nodes * cfg.block);
    sort::SftOptions opts = sft_options(cfg, cfg.dim, cfg.block);
    opts.interceptor = &adversary;
    auto run = sort::run_sft(cfg.dim, input, opts);
    if (stats.fired == 0) continue;  // no arrival this attempt; redraw

    rec.exercised = true;
    rec.outcome = sort::classify(run, input);
    if (!run.errors.empty()) {
      rec.first_detector = run.errors.front().source;
      rec.detection_stage = run.errors.front().stage;
    }
    rec.faults_fired = stats.fired;
    rec.faulty_nodes = static_cast<std::uint32_t>(stats.fired_nodes.count());
    rec.scenario.dim = cfg.dim;
    rec.scenario.block = cfg.block;
    rec.scenario.delta = delta;
    rec.scenario.input_seed = input_seed;
    if (cfg.injection.mode == InjectionMode::kRunLength)
      rec.scenario.faulty = faulty;
    if (rec.outcome == sort::Outcome::kSilentWrong)
      rec.dislocation = max_dislocation(run.output);
    break;
  }
  return rec;
}

}  // namespace

SoakTally run_soak_campaign(const CampaignConfig& cfg) {
  require_sim_backend(cfg);
  assert(cfg.injection.mode != InjectionMode::kScripted);

  StoreSession ss;
  open_session(cfg, ss);

  struct SoakSlotOutcome {
    obs::Tracer trace;
    obs::MetricsRegistry metrics;
  };
  std::vector<SoakSlotOutcome> outcomes(ss.pending.size());
  for_each_slot(cfg, ss.pending.size(), [&](std::size_t i) {
    auto& out = outcomes[i];
    obs::ScopedSink bind(cfg.tracer != nullptr ? &out.trace : nullptr,
                         cfg.metrics != nullptr ? &out.metrics : nullptr);
    commit_slot(cfg, ss, run_soak_slot(cfg, ss.pending[i]));
  });
  close_session(cfg, ss);

  for (auto& out : outcomes) {
    if (cfg.tracer != nullptr) cfg.tracer->append(std::move(out.trace));
    if (cfg.metrics != nullptr) cfg.metrics->merge(out.metrics);
  }
  return summarize_soak(cfg, ss.data);
}

}  // namespace aoft::fault
