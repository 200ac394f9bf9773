#include "fault/campaign.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>

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

// Seed streams: single-fault classes use their enum value, multi-fault
// campaigns use a disjoint range keyed by k, soak campaigns another keyed by
// the injection mode.
std::uint64_t class_stream(FaultClass c) {
  return static_cast<std::uint64_t>(c);
}
std::uint64_t multi_stream(std::uint64_t k) { return 0x100u + k; }
std::uint64_t soak_stream(InjectionMode mode) {
  return 0x200u + static_cast<std::uint64_t>(mode);
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

// ---- slot engine ------------------------------------------------------------
//
// Every campaign kind is a list of slot ids; one slot = one requested
// exercised run.  key(id) names the slot's seed stream, its index in that
// stream and its trace label.  Attempt a draws from a fresh Rng seeded with
// derive_seed(cfg.seed, stream, index, a), so each slot is a pure function of
// the campaign seed and slots may run in any order on any worker.
// attempt(id, rng) runs one draw and returns its result once the injection
// was exercised (nullopt: redraw).  After the first exercised attempt, or
// kMaxSlotAttempts unexercised ones (the slot is dropped), done(id, attempts,
// result) records the slot on the worker.  Each slot traces into private
// sinks, merged in slot order once the pool drains, so traces and metrics
// are the same for every job count, like the results.

struct SlotKey {
  std::uint64_t stream;
  std::uint64_t index;
  std::string_view label;  // the kScenario event's detail
};

template <typename Key, typename Attempt, typename Done>
void run_slots(const CampaignConfig& cfg, std::span<const std::uint64_t> ids,
               const Key& key, const Attempt& attempt, const Done& done) {
  struct Sinks {
    obs::Tracer trace;
    obs::MetricsRegistry metrics;
  };
  std::vector<Sinks> sinks(ids.size());
  auto run_one = [&](std::size_t i) {
    obs::ScopedSink bind(cfg.tracer != nullptr ? &sinks[i].trace : nullptr,
                         cfg.metrics != nullptr ? &sinks[i].metrics : nullptr);
    const SlotKey k = key(ids[i]);
    std::invoke_result_t<const Attempt&, std::uint64_t, util::Rng&> result;
    int attempts = 0;
    while (!result && attempts < kMaxSlotAttempts) {
      util::Rng rng(util::derive_seed(cfg.seed, k.stream, k.index,
                                      static_cast<std::uint64_t>(attempts)));
      if (auto* tr = obs::tracer())
        tr->instant(obs::Ev::kScenario, obs::kGlobal, -1, -1, 0.0,
                    static_cast<std::int64_t>(k.index), attempts,
                    std::string(k.label));
      if (auto* me = obs::metrics()) me->inc(obs::Counter::kScenarios);
      ++attempts;
      result = attempt(ids[i], rng);
    }
    done(ids[i], attempts, std::move(result));
  };
  const int n = util::ThreadPool::resolve(cfg.jobs);
  if (n <= 1 || ids.size() <= 1) {
    for (std::size_t i = 0; i < ids.size(); ++i) run_one(i);
  } else {
    util::ThreadPool pool(n);
    pool.parallel_for(ids.size(), run_one);
  }
  for (auto& sink : sinks) {
    if (cfg.tracer != nullptr) cfg.tracer->append(std::move(sink.trace));
    if (cfg.metrics != nullptr) cfg.metrics->merge(sink.metrics);
  }
}

// ---- durable-session plumbing (campaign_store.h) ----------------------------
//
// Shared by the scripted and soak kinds.  A session owns the in-memory
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

// The durable kinds (scripted and soak): run the session's pending global
// slots and commit each record as its slot completes.  Returns every record,
// resumed ones included.
template <typename Key, typename Attempt>
CheckpointData run_durable(const CampaignConfig& cfg, const Key& key,
                           const Attempt& attempt) {
  StoreSession ss;
  open_session(cfg, ss);
  run_slots(cfg, ss.pending, key, attempt,
            [&](std::uint64_t g, int attempts, std::optional<SlotRecord> rec) {
              SlotRecord r = std::move(rec).value_or(SlotRecord{});
              r.gslot = g;
              r.attempts = attempts;
              commit_slot(cfg, ss, std::move(r));
            });
  close_session(cfg, ss);
  return std::move(ss.data);
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
  const auto slots_per_k = static_cast<std::uint64_t>(cfg.runs_per_class);
  std::vector<MultiTally> tallies;
  std::vector<std::string> labels;
  for (int k = 1; k <= max_k; ++k) {
    tallies.push_back(MultiTally{.k = k});
    labels.push_back("multi-k" + std::to_string(k));
  }
  std::vector<std::uint64_t> ids(tallies.size() * slots_per_k);
  std::iota(ids.begin(), ids.end(), std::uint64_t{0});
  // Tallies are sums, so adding each slot as it completes gives the same
  // numbers for every job count.
  std::mutex mu;
  run_slots(
      cfg, ids,
      [&](std::uint64_t id) {
        return SlotKey{multi_stream(id / slots_per_k + 1), id % slots_per_k,
                       labels[id / slots_per_k]};
      },
      [&](std::uint64_t id, util::Rng& rng) -> std::optional<MultiResult> {
        const int k = static_cast<int>(id / slots_per_k) + 1;
        const auto r =
            run_multi_scenario_sft(draw_multi_scenario(k, cfg, rng), cfg);
        if (!r.fault_exercised) return std::nullopt;
        return r;
      },
      [&](std::uint64_t id, int attempts, std::optional<MultiResult> r) {
        std::lock_guard<std::mutex> lock(mu);
        MultiTally& tally = tallies[id / slots_per_k];
        tally.attempts += attempts;
        if (!r) {
          ++tally.dropped;
          return;
        }
        ++tally.runs;
        switch (r->outcome) {
          case sort::Outcome::kFailStop: ++tally.detected; break;
          case sort::Outcome::kCorrect: ++tally.masked; break;
          case sort::Outcome::kSilentWrong: ++tally.silent_wrong; break;
        }
      });
  return tallies;
}

CampaignSummary run_campaign(const CampaignConfig& cfg) {
  require_sim_backend(cfg);
  const auto slots_per_class = static_cast<std::uint64_t>(cfg.runs_per_class);

  // Supported classes at this dimension; unsupported ones keep a zeroed
  // tally with every slot reported dropped rather than crashing the draw.
  const std::vector<FaultClass> active = active_classes(cfg.dim);
  auto fclass_of = [&](std::uint64_t g) { return active[g / slots_per_class]; };

  const CheckpointData data = run_durable(
      cfg,
      [&](std::uint64_t g) {
        return SlotKey{class_stream(fclass_of(g)), g % slots_per_class,
                       to_string(fclass_of(g))};
      },
      [&](std::uint64_t g, util::Rng& rng) -> std::optional<SlotRecord> {
        const FaultClass fclass = fclass_of(g);
        const auto r = run_scenario_sft(draw_scenario(fclass, cfg, rng), cfg);
        if (!r.fault_exercised) return std::nullopt;  // point never reached
        SlotRecord rec;
        rec.exercised = true;
        rec.scenario = r.scenario;
        rec.outcome = r.outcome;
        rec.first_detector = r.first_detector;
        rec.detection_stage = r.detection_stage;
        rec.faults_fired = r.faults_fired;
        rec.faulty_nodes = 1;  // scripted scenarios have one faulty node
        if (applies_to_snr(fclass)) {
          const auto b = run_scenario_snr(r.scenario, cfg);
          rec.snr_counted = b.fault_exercised;
          if (b.fault_exercised) rec.snr_outcome = b.outcome;
        }
        return rec;
      });
  // Aggregate from the records in (class, slot) order — identical for every
  // job count, shard layout and resume history.
  return summarize_slots(cfg, data);
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

SoakTally run_soak_campaign(const CampaignConfig& cfg) {
  require_sim_backend(cfg);
  assert(cfg.injection.mode != InjectionMode::kScripted);
  const auto num_nodes = std::size_t{1} << cfg.dim;

  // A soak attempt draws (input, delta, gate seed, victim) and counts once
  // an injection actually fires.
  const CheckpointData data = run_durable(
      cfg,
      [&](std::uint64_t g) {
        return SlotKey{soak_stream(cfg.injection.mode), g,
                       to_string(cfg.injection.mode)};
      },
      [&](std::uint64_t, util::Rng& rng) -> std::optional<SlotRecord> {
        const std::uint64_t input_seed = rng.next_u64();
        const sim::Key delta =
            rng.next_in(1, 1 << 20) * (rng.next_bool() ? 1 : -1);
        const std::uint64_t gate_seed = rng.next_u64();
        const auto faulty =
            static_cast<cube::NodeId>(rng.next_below(num_nodes));

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
        if (stats.fired == 0) return std::nullopt;  // no arrival; redraw

        SlotRecord rec;
        rec.exercised = true;
        rec.outcome = sort::classify(run, input);
        if (!run.errors.empty()) {
          rec.first_detector = run.errors.front().source;
          rec.detection_stage = run.errors.front().stage;
        }
        rec.faults_fired = stats.fired;
        rec.faulty_nodes =
            static_cast<std::uint32_t>(stats.fired_nodes.count());
        rec.scenario.dim = cfg.dim;
        rec.scenario.block = cfg.block;
        rec.scenario.delta = delta;
        rec.scenario.input_seed = input_seed;
        if (cfg.injection.mode == InjectionMode::kRunLength)
          rec.scenario.faulty = faulty;
        if (rec.outcome == sort::Outcome::kSilentWrong)
          rec.dislocation = max_dislocation(run.output);
        return rec;
      });
  return summarize_soak(cfg, data);
}

}  // namespace aoft::fault
