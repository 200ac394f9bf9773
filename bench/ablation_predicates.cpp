// Ablation — which component of the constraint predicate catches what.
//
// The paper motivates the Φ_P/Φ_F/Φ_C triad qualitatively; this harness
// makes the division of labour measurable: the §4 campaign re-runs with each
// predicate disabled in turn, and the silent-wrong / detected counts show
// which adversary classes each component is load-bearing for.  (DESIGN.md §7
// lists this as an extension beyond the paper's own evaluation.)

#include <iostream>

#include "fault/campaign.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace aoft;

  util::flag_reject_unknown(argc, argv, {"--jobs", "--runs"});
  const int jobs = util::flag_int(argc, argv, "--jobs", 1);
  const int runs = util::flag_int(argc, argv, "--runs", 15);

  struct Config {
    const char* name;
    bool progress, feasibility, consistency, exchange;
  };
  const Config configs[] = {
      {"full predicate", true, true, true, true},
      {"no phi_P", false, true, true, true},
      {"no phi_F", true, false, true, true},
      {"no phi_C", true, true, false, true},
      {"no exchange check", true, true, true, false},
      {"checks all off", false, false, false, false},
  };

  std::cout << "Predicate ablation: silent-wrong (and detected) runs per fault "
               "class\n\n";

  util::Table table({"fault class", "full", "no phi_P", "no phi_F", "no phi_C",
                     "no exch", "all off"});
  // One row per fault class; each cell is "silent/detected".
  std::vector<std::vector<std::string>> cells(
      std::size(fault::kAllFaultClasses),
      std::vector<std::string>(std::size(configs)));

  int total_dropped = 0;
  for (std::size_t c = 0; c < std::size(configs); ++c) {
    fault::CampaignConfig cfg;
    cfg.dim = 4;
    cfg.runs_per_class = runs;
    cfg.seed = 77;  // identical scenarios across ablation columns
    cfg.jobs = jobs;
    cfg.check_progress = configs[c].progress;
    cfg.check_feasibility = configs[c].feasibility;
    cfg.check_consistency = configs[c].consistency;
    cfg.check_exchange = configs[c].exchange;
    const auto summary = fault::run_campaign(cfg);
    for (std::size_t i = 0; i < summary.sft.size(); ++i) {
      cells[i][c] = util::fmt_int(summary.sft[i].silent_wrong) + "/" +
                    util::fmt_int(summary.sft[i].detected);
      // Surface short-fills: a dropped slot means this cell's denominator is
      // smaller than the requested run count.
      if (summary.sft[i].dropped > 0) {
        cells[i][c] += " (-" + util::fmt_int(summary.sft[i].dropped) + ")";
        total_dropped += summary.sft[i].dropped;
      }
    }
  }
  for (std::size_t i = 0; i < std::size(fault::kAllFaultClasses); ++i)
    table.add_row({fault::to_string(fault::kAllFaultClasses[i]), cells[i][0],
                   cells[i][1], cells[i][2], cells[i][3], cells[i][4],
                   cells[i][5]});
  table.print(std::cout);

  if (total_dropped > 0)
    std::cout << "\nWARNING: (-d) cells dropped d slot(s) whose fault never "
              << "fired; their denominators are " << runs << " minus d.\n";
  std::cout << "\ncell format: silent-wrong/detected out of " << runs
            << " runs.\n"
            << "reading: the 'full' column must be silent-free; removing a\n"
            << "component opens exactly the holes it was designed to close\n"
            << "(e.g. timeouts still catch drops with every check off, but\n"
            << "miscomputation and lies then pass silently).\n";
  return 0;
}
