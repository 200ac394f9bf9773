// Campaign engine throughput: serial vs parallel.
//
// The §4 campaigns are the statistical backbone of the Theorem 3 claim; how
// many fault scenarios we can afford bounds how strong that evidence is.
// This harness times the identical campaign several ways:
//
//   serial   — jobs=1 with pooling and per-worker machine reuse (default),
//   parallel — jobs=N,
//   traced   — jobs=N with tracer + metrics attached.
//
// All CampaignSummaries must be bit-identical — parallelism and tracing are
// engine concerns, never observable in results.  The traced run's time is
// not reported: perfbench's obs.trace_overhead_ratio owns the cost of
// tracing.
// When the binary links the counting allocation hook (util/alloc_hook.h),
// the serial run's per-scenario heap-allocation count is reported as
// pooled_allocs_per_scenario; tools/bench_check gates it with a ceiling.
//
//   campaign_throughput [--dim=4] [--runs=50] [--jobs=0] [--seed=1989]
//                       [--out=BENCH_campaign.json]
//
// On a single-CPU host a serial-vs-parallel "speedup" is noise, not signal:
// the JSON then reports "speedup": null plus speedup_skipped_reason instead
// of a misleading sub-1.0 number (tools/bench_check enforces this rule).
//
// Exit status: 0 iff the summaries match, every S_FT tally has
// silent_wrong == 0, and the JSON was written.  The >= 3x parallel speedup
// target only applies on >= 4-core machines; the JSON records
// hardware_concurrency / cpus_available so consumers can judge.

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "fault/campaign.h"
#include "util/atomic_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/pool.h"
#include "sort/kernels.h"
#include "util/alloc_hook.h"
#include "util/flags.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace {

using namespace aoft;

bool same_tally(const fault::ClassTally& a, const fault::ClassTally& b) {
  return a.fclass == b.fclass && a.runs == b.runs && a.detected == b.detected &&
         a.masked == b.masked && a.silent_wrong == b.silent_wrong &&
         a.attempts == b.attempts && a.dropped == b.dropped &&
         a.multi_fired == b.multi_fired;
}

bool same_summary(const fault::CampaignSummary& a,
                  const fault::CampaignSummary& b) {
  if (a.sft.size() != b.sft.size() || a.snr.size() != b.snr.size() ||
      a.runs.size() != b.runs.size() || a.slots_total != b.slots_total ||
      a.slots_done != b.slots_done)
    return false;
  for (std::size_t i = 0; i < a.sft.size(); ++i)
    if (!same_tally(a.sft[i], b.sft[i]) || !same_tally(a.snr[i], b.snr[i]))
      return false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const auto& x = a.runs[i];
    const auto& y = b.runs[i];
    if (x.scenario.fclass != y.scenario.fclass ||
        x.scenario.faulty != y.scenario.faulty ||
        !(x.scenario.point == y.scenario.point) ||
        x.scenario.delta != y.scenario.delta ||
        x.scenario.input_seed != y.scenario.input_seed ||
        x.scenario.aux_node != y.scenario.aux_node ||
        x.outcome != y.outcome || x.fault_exercised != y.fault_exercised ||
        x.first_detector != y.first_detector ||
        x.detection_stage != y.detection_stage ||
        x.faults_fired != y.faults_fired)
      return false;
  }
  return true;
}

// printf-append into the JSON buffer (the file is written atomically at the
// end — a killed benchmark must never leave a truncated BENCH_*.json where a
// good one stood).
void appendf(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[1024];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

// Scenario executions the campaign consumed: every S_FT attempt (exercised
// or redrawn) plus every counted S_NR contrast run.
long long scenarios_executed(const fault::CampaignSummary& s) {
  long long total = 0;
  for (const auto& t : s.sft) total += t.attempts;
  for (const auto& t : s.snr) total += t.runs;
  return total;
}

struct Timed {
  fault::CampaignSummary summary;
  double seconds = 0.0;
  std::uint64_t allocs = 0;  // ::operator new calls during the run (hooked)
};

Timed timed_campaign(fault::CampaignConfig cfg, int jobs) {
  cfg.jobs = jobs;
  Timed t;
  const std::uint64_t a0 = util::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  t.summary = fault::run_campaign(cfg);
  const auto t1 = std::chrono::steady_clock::now();
  t.seconds = std::chrono::duration<double>(t1 - t0).count();
  t.allocs = util::alloc_count() - a0;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_reject_unknown(argc, argv,
                            {"--dim", "--runs", "--seed", "--jobs", "--out"});
  fault::CampaignConfig cfg;
  cfg.dim = util::flag_int(argc, argv, "--dim", 4);
  cfg.runs_per_class = util::flag_int(argc, argv, "--runs", 50);
  cfg.seed = util::flag_u64(argc, argv, "--seed", 1989);
  const int parallel_jobs =
      util::ThreadPool::resolve(util::flag_int(argc, argv, "--jobs", 0));
  const char* out_arg = util::flag_value(argc, argv, "--out");
  const std::string out_path = out_arg ? out_arg : "BENCH_campaign.json";
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int cpus_available = util::ThreadPool::resolve(0);

  std::cout << "campaign throughput: dim=" << cfg.dim << " runs/class="
            << cfg.runs_per_class << " seed=" << cfg.seed
            << " parallel jobs=" << parallel_jobs << " simd="
            << util::simd::to_string(aoft::sort::kernels::active_path())
            << " (hardware threads: " << hw << ", cpus: " << cpus_available
            << ", alloc hook: " << (util::alloc_hook_active() ? "on" : "off")
            << ")\n";

  const auto serial = timed_campaign(cfg, 1);
  const auto parallel = timed_campaign(cfg, parallel_jobs);

  // The same parallel campaign with the observability layer attached:
  // tracer + metrics collected per slot and merged.  Its summary must still
  // be bit-identical.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  fault::CampaignConfig traced_cfg = cfg;
  traced_cfg.tracer = &tracer;
  traced_cfg.metrics = &metrics;
  const auto traced = timed_campaign(traced_cfg, parallel_jobs);

  const bool identical = same_summary(serial.summary, parallel.summary) &&
                         same_summary(serial.summary, traced.summary);
  int silent_wrong = 0;
  for (const auto& t : serial.summary.sft) silent_wrong += t.silent_wrong;
  const long long scenarios = scenarios_executed(serial.summary);
  const auto rate = [scenarios](const Timed& t) {
    return t.seconds > 0 ? scenarios / t.seconds : 0.0;
  };
  const auto per_scenario = [scenarios](const Timed& t) {
    return scenarios > 0 ? static_cast<double>(t.allocs) / scenarios : 0.0;
  };
  // On a 1-CPU host "parallelism" just adds scheduling overhead; a speedup
  // figure there is misleading (this repo once committed 0.739x from a
  // single-core container as if it were a regression), so it is withheld.
  const bool speedup_valid = cpus_available >= 2;
  const double parallel_speedup =
      speedup_valid && parallel.seconds > 0
          ? serial.seconds / parallel.seconds
          : 0.0;

  std::printf("serial   : %8.3f s  %9.1f scenarios/s  %8.1f allocs/scenario\n",
              serial.seconds, rate(serial), per_scenario(serial));
  std::printf("parallel : %8.3f s  %9.1f scenarios/s  (%d jobs)\n",
              parallel.seconds, rate(parallel), parallel_jobs);
  if (speedup_valid)
    std::printf("parallel speedup: %.2fx vs serial\n", parallel_speedup);
  else
    std::printf("parallel speedup: skipped (%d CPU available)\n",
                cpus_available);
  std::printf("traced   : %zu events\n", tracer.size());
  std::printf("summaries bit-identical: %s\n", identical ? "yes" : "NO");
  std::printf("S_FT silent-wrong total: %d\n", silent_wrong);

  std::string json;
  appendf(json,
          "{\n"
          "  \"dim\": %d,\n"
          "  \"runs_per_class\": %d,\n"
          "  \"seed\": %llu,\n"
          "  \"hardware_concurrency\": %d,\n"
          "  \"cpus_available\": %d,\n"
          "  \"simd\": \"%s\",\n"
          "  \"alloc_hook_active\": %s,\n"
          "  \"scenarios_executed\": %lld,\n"
          "  \"serial_seconds\": %.6f,\n"
          "  \"serial_scenarios_per_sec\": %.2f,\n"
          "  \"pooled_allocs_per_scenario\": %.2f,\n"
          "  \"parallel_jobs\": %d,\n"
          "  \"parallel_seconds\": %.6f,\n"
          "  \"parallel_scenarios_per_sec\": %.2f,\n",
          cfg.dim, cfg.runs_per_class,
          static_cast<unsigned long long>(cfg.seed), hw, cpus_available,
          util::simd::to_string(aoft::sort::kernels::active_path()),
          util::alloc_hook_active() ? "true" : "false", scenarios,
          serial.seconds, rate(serial), per_scenario(serial),
          parallel_jobs, parallel.seconds, rate(parallel));
  if (speedup_valid)
    appendf(json, "  \"speedup\": %.3f,\n", parallel_speedup);
  else
    appendf(json,
            "  \"speedup\": null,\n"
            "  \"speedup_skipped_reason\": \"only %d CPU available; "
            "serial-vs-parallel timing is scheduling noise\",\n",
            cpus_available);
  appendf(json,
          "  \"trace_events\": %zu,\n"
          "  \"summaries_identical\": %s,\n"
          "  \"silent_wrong_total\": %d\n"
          "}\n",
          tracer.size(), identical ? "true" : "false", silent_wrong);
  std::string write_err;
  if (!util::write_file_atomic(out_path, json, &write_err)) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 write_err.c_str());
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  return identical && silent_wrong == 0 ? 0 : 1;
}
