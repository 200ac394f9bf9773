#include "fault/supervisor.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "obs/sink.h"
#include "sort/sequential.h"

namespace aoft::fault {

namespace {

// Translates a physical-coordinate interceptor into a degraded configuration:
// the sim runs on logical labels 0..2^dim'-1, the fault model is specified on
// full-cube labels.
class RemappedInterceptor final : public sim::LinkInterceptor {
 public:
  RemappedInterceptor(sim::LinkInterceptor* inner,
                      const std::vector<cube::NodeId>* physical)
      : inner_(inner), physical_(physical) {}

  bool on_send(cube::NodeId from, cube::NodeId to, sim::Message& m) override {
    return inner_->on_send((*physical_)[from], (*physical_)[to], m);
  }

 private:
  sim::LinkInterceptor* inner_;
  const std::vector<cube::NodeId>* physical_;
};

// Physical-keyed fault map restricted and relabelled to the configuration.
// Faults on excluded nodes vanish — exactly the point of reconfiguring.
NodeFaultMap remap_faults(const NodeFaultMap& physical_faults,
                          const CubeConfig& cfg) {
  NodeFaultMap logical;
  for (cube::NodeId l = 0; l < static_cast<cube::NodeId>(cfg.physical.size());
       ++l) {
    auto it = physical_faults.find(cfg.physical[l]);
    if (it != physical_faults.end()) logical[l] = it->second;
  }
  return logical;
}

std::vector<cube::NodeId> to_physical(std::span<const cube::NodeId> logical,
                                      const CubeConfig& cfg) {
  std::vector<cube::NodeId> out;
  out.reserve(logical.size());
  for (cube::NodeId l : logical) out.push_back(cfg.physical[l]);
  return out;  // cfg.physical is ascending, so order is preserved
}

std::vector<sort::Death> to_physical(std::vector<sort::Death> deaths,
                                     const CubeConfig& cfg) {
  for (auto& d : deaths) d.node = cfg.physical[d.node];
  return deaths;
}

// Sorted union of two ascending id lists.
std::vector<cube::NodeId> merged(std::span<const cube::NodeId> a,
                                 std::span<const cube::NodeId> b) {
  std::vector<cube::NodeId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// RecoveryEvent::node_stages of one S_FT attempt.
long node_stages(const sort::SortRun& run, const CubeConfig& cfg,
                 int resume_stage, bool correct) {
  int last = cfg.dim;
  if (!correct) {
    int deepest = -1;
    for (const auto& e : run.errors) deepest = std::max(deepest, e.stage);
    if (deepest >= 0) last = std::clamp(deepest, resume_stage, cfg.dim);
  }
  return (long{1} << cfg.dim) * (last - resume_stage + 1);
}

Diagnosis to_physical(Diagnosis d, const CubeConfig& cfg) {
  for (auto& a : d.accusations) {
    a.accuser = cfg.physical[a.accuser];
    a.accused = cfg.physical[a.accused];
  }
  d.suspects = to_physical(d.suspects, cfg);
  return d;
}

// Collapse cfg onto a subcube excluding every suspect, one greedy dimension
// cut at a time.  All-or-nothing: cfg is modified only if every suspect can
// be excluded while keeping dim >= 1 (a dim-0 "cube" is a single unverified
// node — the host rung is strictly better).  Excluded suspects are appended
// to `retired` in physical coordinates.
bool try_collapse(CubeConfig& cfg,
                  std::span<const cube::NodeId> physical_suspects,
                  std::vector<cube::NodeId>& retired) {
  CubeConfig next = cfg;
  std::vector<cube::NodeId> suspects;  // logical, within `next`
  for (cube::NodeId p : physical_suspects) {
    auto it = std::find(next.physical.begin(), next.physical.end(), p);
    if (it != next.physical.end())
      suspects.push_back(
          static_cast<cube::NodeId>(it - next.physical.begin()));
  }
  if (suspects.empty()) return false;  // nothing left to exclude

  while (!suspects.empty()) {
    if (next.dim <= 1) return false;
    auto cut = cube::best_excluding_cut(next.dim, suspects);
    if (!cut) return false;
    std::vector<cube::NodeId> kept_physical(
        std::size_t{1} << (next.dim - 1));
    std::vector<cube::NodeId> kept_suspects;
    for (cube::NodeId l = 0;
         l < static_cast<cube::NodeId>(next.physical.size()); ++l) {
      if (cut->keeps(l)) kept_physical[cut->relabel(l)] = next.physical[l];
    }
    for (cube::NodeId s : suspects)
      if (cut->keeps(s)) kept_suspects.push_back(cut->relabel(s));
    // A cut that excludes nothing cannot exist: the two halves partition the
    // suspects and best_excluding_cut keeps the smaller side.
    assert(kept_suspects.size() < suspects.size());
    next.physical = std::move(kept_physical);
    next.dim -= 1;
    next.block *= 2;
    next.cuts += 1;
    suspects = std::move(kept_suspects);
  }

  for (cube::NodeId p : physical_suspects)
    if (std::find(retired.begin(), retired.end(), p) == retired.end())
      retired.push_back(p);
  std::sort(retired.begin(), retired.end());
  cfg = std::move(next);
  return true;
}

}  // namespace

const char* to_string(Rung r) {
  switch (r) {
    case Rung::kInitial: return "initial";
    case Rung::kRollback: return "rollback";
    case Rung::kRestart: return "restart";
    case Rung::kSubcube: return "subcube";
    case Rung::kHostSort: return "host-sort";
  }
  return "?";
}

RecoveryPolicy RecoveryPolicy::full_restart(int max_attempts) {
  RecoveryPolicy p;
  p.rollback = false;
  p.reconfigure = false;
  p.host_fallback = false;
  p.attempts_per_config = max_attempts;
  p.max_attempts = max_attempts;
  p.stable_after = INT_MAX;
  return p;
}

SupervisedRun run_supervised_sort(int dim, std::span<const sort::Key> input,
                                  const sort::SftOptions& base,
                                  const RecoveryPolicy& policy,
                                  const InterceptorFactory& interceptors,
                                  const NodeFaultFactory& node_faults) {
  SupervisedRun out;
  const std::vector<sort::Key> original(input.begin(), input.end());

  CubeConfig cfg;
  cfg.dim = dim;
  cfg.block = base.block;
  cfg.physical.resize(std::size_t{1} << dim);
  std::iota(cfg.physical.begin(), cfg.physical.end(), cube::NodeId{0});

  std::vector<sort::StageCheckpoint> cert;  // certified, current config
  std::vector<Diagnosis> era;  // diagnoses since the last reconfiguration
  std::optional<sort::ResumeState> resume;
  Rung rung = Rung::kInitial;
  int config_attempts = 0;
  bool failed_before = false;
  double pending_ticks = 0.0;  // backoff + remap charge for the next attempt

  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0 && policy.backoff_ticks > 0.0)
      pending_ticks += policy.backoff_ticks *
                       std::pow(policy.backoff_factor, attempt - 1);

    sort::SftOptions opts = base;
    opts.block = cfg.block;
    opts.checkpoint = policy.rollback;
    const NodeFaultMap physical_faults =
        node_faults ? node_faults(attempt) : base.node_faults;
    opts.node_faults = cfg.degraded() ? remap_faults(physical_faults, cfg)
                                      : physical_faults;
    sim::LinkInterceptor* physical_icpt =
        interceptors ? interceptors(attempt) : base.interceptor;
    RemappedInterceptor remapped(physical_icpt, &cfg.physical);
    opts.interceptor = (cfg.degraded() && physical_icpt != nullptr)
                           ? &remapped
                           : physical_icpt;

    const double attempt_t0 = out.total_ticks;
    sort::SortRun run = resume ? sort::resume_sft(cfg.dim, *resume, opts)
                               : sort::run_sft(cfg.dim, original, opts);
    ++out.attempts;
    ++config_attempts;
    if (resume) out.stages_salvaged += resume->stage;

    const sort::Outcome outcome = sort::classify(run, original);
    const double ticks = run.summary.elapsed + pending_ticks;
    out.total_ticks += ticks;
    pending_ticks = 0.0;

    // Attempt span on the supervisor's cumulative clock: [start, end] of this
    // attempt, labelled with the rung that scheduled it and how it ended.
    if (auto* tr = obs::tracer())
      tr->span(obs::Ev::kAttempt, obs::kGlobal,
               resume ? resume->stage : 0, attempt_t0, out.total_ticks,
               attempt, static_cast<std::int64_t>(rung),
               std::string(to_string(rung)) + " -> " +
                   sort::to_string(outcome));

    RecoveryEvent ev;
    ev.attempt = attempt;
    ev.rung = rung;
    ev.config_dim = cfg.dim;
    ev.block = cfg.block;
    ev.resume_stage = resume ? resume->stage : 0;
    ev.outcome = outcome;
    ev.ticks = ticks;
    ev.deaths = to_physical(run.deaths, cfg);
    ev.node_stages = node_stages(run, cfg, ev.resume_stage,
                                 outcome == sort::Outcome::kCorrect);

    if (outcome == sort::Outcome::kCorrect) {
      out.events.push_back(std::move(ev));
      out.last = std::move(run);
      out.outcome = outcome;
      out.final_rung = rung;
      out.recovered = failed_before;
      return out;
    }

    failed_before = true;
    const Diagnosis diag =
        to_physical(localize(run.errors, cfg.dim), cfg);
    out.diagnoses.push_back(diag);
    era.push_back(diag);

    int conclusive_count = 0;
    for (const auto& d : era)
      if (!d.suspects.empty()) ++conclusive_count;
    const std::vector<cube::NodeId> persistent = persistent_suspects(era);
    // Only the host's own sight of a process exit is proof; silence and
    // backstop deaths are left to the diagnoses above.
    std::vector<cube::NodeId> exits;  // ascending, as ev.deaths
    for (const sort::Death& d : ev.deaths)
      if (d.cause == transport::DeathCause::kExit) exits.push_back(d.node);

    ev.suspects = diag.suspects;
    ev.persistent = merged(persistent, exits);
    ev.inconclusive = diag.suspects.empty();
    ev.link_suspected = diag.link_suspected;
    out.events.push_back(std::move(ev));
    out.final_rung = rung;
    out.last = std::move(run);

    // Fold this attempt's certified checkpoints into the config's store
    // (resumed attempts re-certify later stages; stages are absolute).
    for (auto& ck : out.last.checkpoints) {
      if (!ck.certified) continue;
      auto it = std::find_if(cert.begin(), cert.end(), [&](const auto& c) {
        return c.stage == ck.stage;
      });
      if (it == cert.end()) cert.push_back(ck);
    }

    // Escalate.  A node seen to exit, or a stable persistent-suspect set (or
    // an exhausted attempt budget with any persistent evidence), triggers
    // reconfiguration; inside a configuration, prefer resuming from the
    // deepest certified pair.
    const bool exhausted = config_attempts >= policy.attempts_per_config;
    const bool stable =
        conclusive_count >= policy.stable_after || exhausted;
    const std::vector<cube::NodeId> retire =
        stable ? merged(persistent, exits) : exits;
    bool reconfigured = false;
    if (policy.reconfigure && !retire.empty()) {
      reconfigured = try_collapse(cfg, retire, out.retired);
      if (reconfigured) {
        if (auto* tr = obs::tracer()) {
          std::string retired_list;
          for (cube::NodeId p : out.retired) {
            if (!retired_list.empty()) retired_list += ',';
            retired_list += std::to_string(p);
          }
          tr->instant(obs::Ev::kReconfigure, obs::kGlobal, -1, -1,
                      out.total_ticks, cfg.dim,
                      static_cast<std::int64_t>(cfg.block),
                      std::move(retired_list));
        }
        if (auto* me = obs::metrics()) me->inc(obs::Counter::kReconfigures);
        cert.clear();
        era.clear();
        resume.reset();
        rung = Rung::kSubcube;
        config_attempts = 0;
        // Remapping redistributes the whole input through the host once.
        pending_ticks +=
            base.cost.host_alpha +
            base.cost.host_beta * static_cast<double>(original.size());
      }
    }
    if (!reconfigured) {
      if (exhausted) break;  // out of rungs in this configuration
      resume = policy.rollback ? sort::make_resume_state(cert) : std::nullopt;
      // Paranoia: never resume from a state that is not a permutation of the
      // original input or whose stage is out of range for this configuration.
      if (resume && !(resume->stage >= 1 && resume->stage < cfg.dim &&
                      sort::is_permutation_of(resume->blocks, original)))
        resume.reset();
      rung = resume ? Rung::kRollback : Rung::kRestart;
      if (auto* tr = obs::tracer())
        tr->instant(resume ? obs::Ev::kRollback : obs::Ev::kRestart,
                    obs::kGlobal, resume ? resume->stage : 0, -1,
                    out.total_ticks, resume ? resume->stage : 0);
      if (auto* me = obs::metrics())
        me->inc(resume ? obs::Counter::kRollbacks : obs::Counter::kRestarts);
    }
  }

  if (policy.host_fallback) {
    // Terminal rung: the host and its links are reliable (Environmental
    // Assumption 2), so this cannot fail and the ladder always terminates.
    if (auto* tr = obs::tracer())
      tr->instant(obs::Ev::kHostFallback, obs::kGlobal, -1, -1,
                  out.total_ticks, out.attempts);
    if (auto* me = obs::metrics()) me->inc(obs::Counter::kHostFallbacks);
    sort::HostSortOptions hopts;
    hopts.block = base.block;
    hopts.cost = base.cost;
    sort::SortRun run = sort::run_host_sort(dim, original, hopts);
    RecoveryEvent ev;
    ev.attempt = out.attempts;
    ev.rung = Rung::kHostSort;
    ev.config_dim = 0;
    ev.block = original.size();
    ev.outcome = sort::classify(run, original);
    ev.ticks = run.summary.elapsed + pending_ticks;
    ev.node_stages = (long{1} << dim) * (dim + 1);
    out.total_ticks += ev.ticks;
    out.outcome = ev.outcome;
    out.events.push_back(std::move(ev));
    ++out.attempts;
    out.last = std::move(run);
    out.final_rung = Rung::kHostSort;
    out.recovered = failed_before;
    return out;
  }

  out.outcome = sort::classify(out.last, original);
  return out;
}

}  // namespace aoft::fault
