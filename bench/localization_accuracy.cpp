// Localization accuracy (extension, DESIGN.md §7).
//
// The paper stops at fail-stop detection; any real system must then decide
// *which* node to retire.  This harness measures, per fault class, how often
// the host-side localization (fault/localization.h) (a) includes the true
// culprit among its suspects, (b) identifies it exactly, and (c) how many
// suspects it names on average — quantifying the diagnostic value of the
// earliest error reports.

#include <iostream>
#include <vector>

#include "fault/campaign.h"
#include "fault/localization.h"
#include "sort/sft.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace aoft;

// Re-run a scenario, keeping the raw reports for diagnosis.
fault::Diagnosis diagnose(const fault::Scenario& s) {
  auto input = util::random_keys(s.input_seed,
                                 (std::size_t{1} << s.dim) * s.block);
  fault::Adversary adversary;
  sort::SftOptions opts;
  opts.block = s.block;
  fault::NodeFaultMap nf;
  // Mirror fault/campaign.cpp's instantiation through the public pieces.
  switch (s.fclass) {
    case fault::FaultClass::kCorruptData:
      adversary.add(fault::corrupt_data(s.faulty, s.point, s.delta));
      break;
    case fault::FaultClass::kCorruptGossip:
      adversary.add(fault::corrupt_gossip_entry(s.faulty, s.point, s.faulty,
                                                s.delta, s.block));
      break;
    case fault::FaultClass::kTwoFacedGossip:
      adversary.add(fault::two_faced_gossip(
          s.faulty, s.point, s.faulty, s.delta, s.block,
          [](cube::NodeId dest) { return (dest & 1u) == 1u; }));
      break;
    case fault::FaultClass::kRelayTamper:
      adversary.add(fault::corrupt_gossip_entry(s.faulty, s.point, s.aux_node,
                                                s.delta, s.block));
      break;
    case fault::FaultClass::kDropMessage:
      adversary.add(fault::drop_message(s.faulty, s.point));
      break;
    case fault::FaultClass::kDeadLink:
      adversary.add(fault::dead_link(s.faulty, s.aux_node, s.point));
      break;
    case fault::FaultClass::kGarbleLbs:
      adversary.add(fault::garble_lbs(s.faulty, s.point, s.input_seed));
      break;
    case fault::FaultClass::kReplayStale:
      adversary.add(fault::replay_stale_lbs(s.faulty, s.point));
      break;
    case fault::FaultClass::kHaltNode:
      nf[s.faulty].halt_at = s.point;
      break;
    case fault::FaultClass::kInvertDirection:
      nf[s.faulty].invert_direction_from = s.point;
      break;
    case fault::FaultClass::kSubstituteValue:
      nf[s.faulty].substitute_at = s.point;
      nf[s.faulty].substitute_value = 3000000000LL + s.delta;
      break;
  }
  opts.node_faults = std::move(nf);
  opts.interceptor = &adversary;
  auto run = sort::run_sft(s.dim, input, opts);
  return fault::localize(run.errors, s.dim);
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_reject_unknown(argc, argv,
                            {"--dim", "--runs", "--seed", "--jobs"});
  fault::CampaignConfig cfg;
  cfg.dim = util::flag_int(argc, argv, "--dim", 4);
  cfg.runs_per_class = util::flag_int(argc, argv, "--runs", 30);
  cfg.seed = util::flag_u64(argc, argv, "--seed", 13);
  cfg.jobs = util::flag_int(argc, argv, "--jobs", 1);

  std::cout << "Localization accuracy per fault class (dim " << cfg.dim
            << ", " << cfg.runs_per_class << " detected scenarios each, jobs="
            << cfg.jobs << ")\n\n";

  // One slot = one detected (fail-stop) scenario; attempt a of slot i draws
  // from derive_seed(seed, class, i, a), the campaign engine's schedule, so
  // slots are independent and the table is identical for every job count.
  struct SlotOut {
    bool detected = false;
    bool contained = false;
    bool exact = false;
    int suspects = 0;
  };
  const auto slots = static_cast<std::size_t>(cfg.runs_per_class);
  const auto classes = std::size(fault::kAllFaultClasses);
  std::vector<SlotOut> outs(classes * slots);
  const auto body = [&](std::size_t u) {
    const auto fclass = fault::kAllFaultClasses[u / slots];
    const std::size_t slot = u % slots;
    for (int attempt = 0; attempt < fault::kMaxSlotAttempts; ++attempt) {
      util::Rng rng(util::derive_seed(
          cfg.seed, static_cast<std::uint64_t>(fclass), slot,
          static_cast<std::uint64_t>(attempt)));
      const auto s = fault::draw_scenario(fclass, cfg, rng);
      const auto result = fault::run_scenario_sft(s, cfg);
      if (!result.fault_exercised ||
          result.outcome != sort::Outcome::kFailStop)
        continue;
      const auto d = diagnose(s);
      auto& out = outs[u];
      out.detected = true;
      out.suspects = static_cast<int>(d.suspects.size());
      for (auto sus : d.suspects) out.contained |= sus == s.faulty;
      out.exact =
          d.conclusive && !d.suspects.empty() && d.suspects[0] == s.faulty;
      return;
    }
  };
  const int jobs = util::ThreadPool::resolve(cfg.jobs);
  if (jobs <= 1) {
    for (std::size_t u = 0; u < outs.size(); ++u) body(u);
  } else {
    util::ThreadPool pool(jobs);
    pool.parallel_for(outs.size(), body);
  }

  util::Table table({"fault class", "detected", "culprit in suspects",
                     "exact", "avg suspects"});
  for (std::size_t c = 0; c < classes; ++c) {
    const auto fclass = fault::kAllFaultClasses[c];
    int detected = 0, contained = 0, exact = 0;
    double suspects_sum = 0.0;
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const auto& out = outs[c * slots + slot];
      if (!out.detected) continue;
      ++detected;
      contained += out.contained;
      exact += out.exact;
      suspects_sum += out.suspects;
    }
    table.add_row({fault::to_string(fclass), util::fmt_int(detected),
                   detected ? util::fmt_double(100.0 * contained / detected, 1) + "%"
                            : "-",
                   detected ? util::fmt_double(100.0 * exact / detected, 1) + "%"
                            : "-",
                   detected ? util::fmt_double(suspects_sum / detected, 2) : "-"});
  }
  table.print(std::cout);
  std::cout << "\n'culprit in suspects' is the soundness metric; 'exact' is\n"
            << "precision.  Link-evidenced classes localize to the node or\n"
            << "the link pair (Definition 3 case 2a); window-evidenced classes\n"
            << "(consistent liars) only narrow to the failing inner subcube.\n";
  return 0;
}
