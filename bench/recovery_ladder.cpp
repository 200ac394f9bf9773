// Recovery ladder vs blind restart (extension, DESIGN.md §7).
//
// The paper's S_FT ends at fail-stop; the recovery supervisor escalates
// through rollback re-execution, subcube reconfiguration and a terminal host
// sort until the output is correct.  This harness quantifies what the ladder
// buys over the naive alternative (full restart until the budget runs out,
// then host sort): attempts used, work salvaged by checkpoint rollback, and
// time to correct output.
//
//   recovered-work fraction = sum of resume stages / ((n+1) * retries)
//
// is the share of stage-work the rollback rungs did *not* have to redo; 0 for
// any restart-based policy.  Following Dwork/Halpern/Waarts, effort is the
// work spent per recovered sort against a fault-free one:
//
//   effort = sum of RecoveryEvent::node_stages / (2^dim * (dim + 1))
//
// (1.00 = no work redone; the host-sort rung counts as one whole sort).
// Every row must end kCorrect — the never-wrong invariant — whatever rung it
// terminates on.

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fault/adversary.h"
#include "fault/supervisor.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace aoft;

struct Scenario {
  std::string name;
  bool transient = false;  // fault present on attempt 0 only
  std::function<fault::Mutator()> mutator;  // link fault (optional)
  fault::NodeFaultMap node_faults;          // processor fault (optional)
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  out.push_back({"transient drop s3", true,
                 [] { return fault::drop_message(6, {3, 1}); }, {}});
  out.push_back({"transient garble s3", true,
                 [] { return fault::garble_lbs(6, {3, 0}, 77); }, {}});
  {
    Scenario s{"transient halt s3", true, nullptr, {}};
    s.node_faults[9].halt_at = fault::StagePoint{3, 0};
    out.push_back(std::move(s));
  }
  {
    Scenario s{"permanent halt s2", false, nullptr, {}};
    s.node_faults[9].halt_at = fault::StagePoint{2, 0};
    out.push_back(std::move(s));
  }
  {
    // A SIGKILLed process: the host sees it exit, so the ladder retires it
    // after one attempt (the sim records the same death it models).
    Scenario s{"permanent kill s1", false, nullptr, {}};
    s.node_faults[9].halt_at = fault::StagePoint{1, 0};
    s.node_faults[9].kill_process = true;
    out.push_back(std::move(s));
  }
  out.push_back({"permanent dead link", false,
                 [] { return fault::dead_link(3, 2, {1, 0}); }, {}});
  {
    Scenario s{"permanent invert s1", false, nullptr, {}};
    s.node_faults[5].invert_direction_from = fault::StagePoint{1, 1};
    out.push_back(std::move(s));
  }
  return out;
}

fault::SupervisedRun run_case(int dim, std::span<const sort::Key> input,
                              const Scenario& sc,
                              const fault::RecoveryPolicy& policy) {
  sort::SftOptions base;
  base.block = 8;
  fault::Adversary adv;
  if (sc.mutator) adv.add(sc.mutator());
  fault::InterceptorFactory icpt = nullptr;
  if (sc.mutator) {
    icpt = [&adv, &sc](int attempt) -> sim::LinkInterceptor* {
      return (sc.transient && attempt > 0) ? nullptr : &adv;
    };
  }
  fault::NodeFaultFactory nf = nullptr;
  if (!sc.node_faults.empty()) {
    nf = [&sc](int attempt) -> fault::NodeFaultMap {
      return (sc.transient && attempt > 0) ? fault::NodeFaultMap{}
                                           : sc.node_faults;
    };
  }
  return run_supervised_sort(dim, input, base, policy, icpt, nf);
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_reject_unknown(argc, argv, {"--jobs"});
  const int dim = 5;
  const std::size_t m = 8;
  const int jobs = util::flag_int(argc, argv, "--jobs", 1);
  auto input = util::random_keys(42, (std::size_t{1} << dim) * m);

  fault::RecoveryPolicy ladder;  // defaults: rollback + reconfigure + host
  fault::RecoveryPolicy restart;
  restart.rollback = false;
  restart.reconfigure = false;  // blind full restarts, then the host rung
  restart.attempts_per_config = ladder.attempts_per_config;
  restart.max_attempts = ladder.max_attempts;

  std::cout << "Recovery ladder vs full restart (dim " << dim
            << ", m = 8, time to *correct* output)\n\n";

  util::Table table({"scenario", "policy", "attempts", "final rung",
                     "salvaged", "recovered-work", "effort", "ticks",
                     "speedup"});
  const double fault_free_node_stages =
      static_cast<double>((long{1} << dim) * (dim + 1));
  bool all_correct = true;
  // Each (scenario, policy) pair is an independent single-OS-thread
  // simulation; fan them out and report rows in the original order.
  const auto cases = scenarios();
  std::vector<fault::SupervisedRun> restarts(cases.size());
  std::vector<fault::SupervisedRun> ladders(cases.size());
  const auto body = [&](std::size_t u) {
    const auto& sc = cases[u / 2];
    if (u % 2 == 0)
      restarts[u / 2] = run_case(dim, input, sc, restart);
    else
      ladders[u / 2] = run_case(dim, input, sc, ladder);
  };
  const int n_jobs = util::ThreadPool::resolve(jobs);
  if (n_jobs <= 1) {
    for (std::size_t u = 0; u < cases.size() * 2; ++u) body(u);
  } else {
    util::ThreadPool pool(n_jobs);
    pool.parallel_for(cases.size() * 2, body);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& sc = cases[i];
    const auto& base = restarts[i];
    const auto& lad = ladders[i];
    all_correct &= base.outcome == sort::Outcome::kCorrect;
    all_correct &= lad.outcome == sort::Outcome::kCorrect;
    for (const auto* r : {&base, &lad}) {
      const bool is_ladder = r == &lad;
      const int retries = r->attempts - 1;
      const double frac =
          retries > 0 ? static_cast<double>(r->stages_salvaged) /
                            (static_cast<double>(dim + 1) * retries)
                      : 0.0;
      long node_stages = 0;
      for (const auto& ev : r->events) node_stages += ev.node_stages;
      table.add_row(
          {sc.name, is_ladder ? "ladder" : "restart",
           util::fmt_int(r->attempts), fault::to_string(r->final_rung),
           util::fmt_int(r->stages_salvaged), util::fmt_double(frac, 2),
           util::fmt_double(node_stages / fault_free_node_stages, 2),
           util::fmt_double(r->total_ticks, 1),
           is_ladder ? util::fmt_double(base.total_ticks / r->total_ticks, 2)
                     : "1.00"});
    }
  }
  table.print(std::cout);
  std::cout << "\nnever-wrong invariant: "
            << (all_correct ? "every run ended correct"
                            : "VIOLATED — a run ended non-correct")
            << "\n";
  std::cout << "'salvaged' sums the resume stages of rollback attempts; the\n"
            << "ladder rolls transient faults back to the last certified\n"
            << "boundary and survives permanent ones by retiring the suspect\n"
            << "subcube, where restart pays the full re-sort every time.\n"
            << "'effort' is node-stages executed / fault-free node-stages;\n"
            << "a killed node is retired after the one attempt that saw it\n"
            << "exit.\n";
  return all_correct ? 0 : 1;
}
