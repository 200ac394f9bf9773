// §4 — "Error Coverage and Resilience" (Theorem 3).
//
// The paper proves S_FT "produces either a correct bitonic sort or stops
// with an error" under up to n-1 Byzantine-faulty nodes.  This harness runs
// a randomized fault-injection campaign over every adversary class in the
// model (link corruption, two-faced gossip, relay tampering, message loss,
// dead links, garbled piggybacks, fail-silence, miscomputation, consistent
// lying) and tabulates the outcome per class — for S_FT and, as the
// contrast column the paper's argument rests on, for the unprotected S_NR.
//
// Required result: the S_FT silent-wrong column is identically zero.

#include <iostream>
#include <map>

#include "fault/campaign.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace aoft;

  util::flag_reject_unknown(argc, argv,
                            {"--dim", "--runs", "--seed", "--jobs"});
  fault::CampaignConfig cfg;
  cfg.dim = util::flag_int(argc, argv, "--dim", 4);
  cfg.runs_per_class = util::flag_int(argc, argv, "--runs", 40);
  cfg.seed = util::flag_u64(argc, argv, "--seed", 1989);
  cfg.jobs = util::flag_int(argc, argv, "--jobs", 1);

  std::cout << "Section 4 reproduction: error coverage campaign\n"
            << "cube dimension " << cfg.dim << " (n-1 = " << cfg.dim - 1
            << " tolerated faults), " << cfg.runs_per_class
            << " exercised scenarios per class, jobs=" << cfg.jobs << "\n\n";

  const auto summary = fault::run_campaign(cfg);

  util::Table table({"fault class", "runs", "dropped", "S_FT detected",
                     "S_FT masked", "S_FT SILENT-WRONG", "S_NR silent-wrong"});
  int total_silent = 0;
  int total_dropped = 0;
  for (std::size_t i = 0; i < summary.sft.size(); ++i) {
    const auto& s = summary.sft[i];
    const auto& b = summary.snr[i];
    total_silent += s.silent_wrong;
    total_dropped += s.dropped;
    table.add_row({fault::to_string(s.fclass), util::fmt_int(s.runs),
                   util::fmt_int(s.dropped), util::fmt_int(s.detected),
                   util::fmt_int(s.masked), util::fmt_int(s.silent_wrong),
                   b.runs > 0 ? util::fmt_int(b.silent_wrong) + "/" +
                                    util::fmt_int(b.runs)
                              : "n/a"});
  }
  table.print(std::cout);
  if (total_dropped > 0)
    std::cout << "\nWARNING: " << total_dropped << " slot(s) never exercised "
              << "their fault within the redraw budget; percentages above are "
              << "over the per-class 'runs' column, not the requested "
              << cfg.runs_per_class << ".\n";

  // Detection latency: stages between injection and the first ERROR signal.
  std::map<int, int> latency_histogram;
  int detected_runs = 0;
  for (const auto& r : summary.runs) {
    if (r.outcome != sort::Outcome::kFailStop) continue;
    ++detected_runs;
    ++latency_histogram[r.detection_stage - r.scenario.point.stage];
  }
  std::cout << "\ndetection latency (stages after injection):\n";
  util::Table lat({"latency", "runs", "share"});
  for (const auto& [stages, count] : latency_histogram)
    lat.add_row({util::fmt_int(stages), util::fmt_int(count),
                 util::fmt_double(100.0 * count / detected_runs, 1) + "%"});
  lat.print(std::cout);

  // Theorem 3's actual statement is about k simultaneous faults, k <= n-1:
  // re-run with random *mixed* fault sets of growing size (plus k = n, one
  // past the bound, where the theorem makes no promise).
  std::cout << "\nmulti-fault resilience (random mixed classes, distinct nodes):\n";
  fault::CampaignConfig multi_cfg = cfg;
  multi_cfg.runs_per_class = 30;
  const auto tallies = fault::run_multi_campaign(multi_cfg, cfg.dim);
  util::Table multi({"simultaneous faults", "runs", "dropped", "detected",
                     "masked", "SILENT-WRONG", "within Thm 3 bound"});
  for (const auto& t : tallies) {
    multi.add_row({util::fmt_int(t.k), util::fmt_int(t.runs),
                   util::fmt_int(t.dropped), util::fmt_int(t.detected),
                   util::fmt_int(t.masked), util::fmt_int(t.silent_wrong),
                   t.k <= cfg.dim - 1 ? "yes" : "no (k = n)"});
    if (t.k <= cfg.dim - 1) total_silent += t.silent_wrong;
  }
  multi.print(std::cout);

  std::cout << "\nTheorem 3 verdict: S_FT silent-wrong runs (within bound) = "
            << total_silent
            << (total_silent == 0 ? "  [OK: never an incorrect result]"
                                  : "  [VIOLATION]")
            << "\n";
  return total_silent == 0 ? 0 : 1;
}
