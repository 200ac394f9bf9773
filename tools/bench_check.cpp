// bench_check — CI perf gate over BENCH_campaign.json and the campaign
// durability artifacts, plus the transport oracle cross-check.
//
//   bench_check FRESH.json REFERENCE.json [--max-pooled-allocs=F]
//              [--stream=SLOTS.jsonl] [--merge-summary=MERGED.json]
//              [--kernels=BENCH_kernels.json] [--min-kernel-speedup=F]
//   bench_check --cross-check SIM_RUN.json SHM_RUN.json
//
// --cross-check compares two aoft-run-v1 records (aoft_sort_cli
// --emit-run=...) from the *same* fault script on different transports: the
// run parameters, outcome, canonical error tuples, host-observed deaths
// (attempt, node, cause), output checksum (when both runs carry one — kill
// scripts intentionally omit it), and recovery summary must all agree.  The
// "transport" field is the one key allowed to differ; anything else failing
// is a backend divergence, which Theorem 3's oracle contract
// (docs/PROTOCOL.md §11) forbids.
//
// --stream validates a campaign slot stream (aoft_sort_cli --stream=...):
// a schema header line plus one structurally sound record per slot, global
// slots ascending within the declared shard.  --merge-summary gates a
// campaign_merge --summary output: the merge must be complete, byte-match
// its oracle (summaries_identical) and carry silent_wrong_total == 0.
// --kernels gates a BENCH_kernels.json from the bench/micro_predicates SIMD
// sweep: structural soundness, plus best_speedup >= --min-kernel-speedup on
// SIMD dispatch paths and best_speedup null (with a reason) on scalar.  All
// three flags also work without the positional FRESH/REFERENCE pair.
//
// FRESH is the file campaign_throughput just wrote on this runner; REFERENCE
// is the one committed at the repo root.  Both must be structurally sound;
// FRESH additionally gates the merge:
//
//   FAIL when  silent_wrong_total != 0         (Theorem 3 violated),
//              summaries_identical != true     (engine nondeterminism),
//              a required key is missing or mistyped,
//              pooled_allocs_per_scenario > the configured ceiling
//              (default 50; gated only when alloc_hook_active — a count of
//              heap allocations, not wall clock, so it is exact on any
//              runner: a regression in the pooled hot path shows up as
//              allocations long before it shows up as time),
//              the speedup/cpus_available contract is broken: hosts with
//              >= 2 CPUs must report a positive "speedup" number, hosts
//              with fewer must report "speedup": null plus a
//              speedup_skipped_reason string (no more committing 0.7x
//              "slowdowns" measured on a 1-core container).
//
// Raw throughput numbers (scenarios/sec) are printed as an informational
// fresh-vs-reference diff but never gate: CI runners differ too much
// machine-to-machine for absolute wall-clock comparisons to be signal.
//
// Exit status: 0 = gate passed, 1 = gate failed or file/parse error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/flags.h"

namespace {

using namespace aoft::obs;

int failures = 0;

void fail(const char* file, const std::string& what) {
  std::fprintf(stderr, "FAIL %s: %s\n", file, what.c_str());
  ++failures;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream is(path);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return true;
}

// Required numeric / boolean keys every BENCH_campaign.json must carry.
constexpr const char* kNumKeys[] = {
    "dim",
    "runs_per_class",
    "hardware_concurrency",
    "cpus_available",
    "scenarios_executed",
    "serial_seconds",
    "serial_scenarios_per_sec",
    "pooled_allocs_per_scenario",
    "parallel_jobs",
    "parallel_seconds",
    "parallel_scenarios_per_sec",
    "trace_events",
    "silent_wrong_total",
};

// Structural + correctness checks shared by FRESH and REFERENCE.  Returns
// the parsed object via `out`; false (with failures recorded) when the file
// is unusable.
bool check_file(const char* label, const std::string& path, json::Value* out) {
  std::string text;
  if (!read_file(path, &text)) {
    fail(label, "cannot open " + path);
    return false;
  }
  std::string err;
  auto parsed = json::parse(text, &err);
  if (!parsed) {
    fail(label, path + ": " + err);
    return false;
  }
  if (!parsed->is_object()) {
    fail(label, path + ": top level is not an object");
    return false;
  }
  const auto& o = parsed->object();
  double d = 0;
  for (const char* key : kNumKeys)
    if (!json::get_num(o, key, d))
      fail(label, "missing or non-numeric key \"" + std::string(key) + "\"");
  std::string s;
  if (!json::get_str(o, "simd", s))
    fail(label, "missing or non-string key \"simd\" (kernel dispatch path)");
  bool b = false;
  if (!json::get_bool(o, "alloc_hook_active", b))
    fail(label, "missing or non-boolean key \"alloc_hook_active\"");

  if (!json::get_bool(o, "summaries_identical", b))
    fail(label, "missing or non-boolean key \"summaries_identical\"");
  else if (!b)
    fail(label, "summaries_identical is false — campaign engine produced "
                "different results across jobs/tracing");

  if (json::get_num(o, "silent_wrong_total", d) && d != 0)
    fail(label, "silent_wrong_total = " + std::to_string(d) +
                    " (Theorem 3 requires 0)");

  // speedup is the one key whose *type* is conditional: a number on real
  // multi-core hosts, null (with a stated reason) on 1-CPU runners.
  double cpus = 0;
  json::get_num(o, "cpus_available", cpus);
  auto speedup = o.find("speedup");
  if (speedup == o.end()) {
    fail(label, "missing key \"speedup\" (number or null)");
  } else if (cpus >= 2) {
    if (!speedup->second.is_number() || speedup->second.num() <= 0)
      fail(label, "host has >= 2 CPUs but \"speedup\" is not a positive "
                  "number");
  } else {
    if (!speedup->second.is_null())
      fail(label, "host has < 2 CPUs but \"speedup\" is not null — "
                  "single-core serial-vs-parallel timings are noise, not a "
                  "speedup");
    if (!json::get_str(o, "speedup_skipped_reason", s))
      fail(label, "null \"speedup\" needs a \"speedup_skipped_reason\" "
                  "string");
  }

  *out = *parsed;
  return true;
}

// Required keys of every slot record in an aoft-campaign-v1 stream.
constexpr const char* kSlotNumKeys[] = {"g", "slot", "attempts", "fired",
                                        "faulty_nodes", "dislocation"};

// Validate a campaign slot stream: header line + one JSONL record per slot.
void check_stream(const std::string& path) {
  const char* label = "stream";
  std::string text;
  if (!read_file(path, &text)) {
    fail(label, "cannot open " + path);
    return;
  }
  std::size_t pos = 0, line_no = 0;
  double shard_count = 1;
  double prev_g = -1;
  bool have_header = false;
  std::size_t records = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      fail(label, path + ": last line is not newline-terminated (torn write)");
      break;
    }
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    std::string err;
    auto parsed = json::parse(line, &err);
    if (!parsed || !parsed->is_object()) {
      fail(label, path + " line " + std::to_string(line_no) + ": " +
                      (parsed ? "not an object" : err));
      return;
    }
    const auto& o = parsed->object();
    if (line_no == 1) {
      std::string schema;
      if (!json::get_str(o, "schema", schema) ||
          schema != "aoft-campaign-v1") {
        fail(label, path + ": header schema is not \"aoft-campaign-v1\"");
        return;
      }
      double d = 0;
      for (const char* key : {"dim", "runs_per_class", "seed", "total_slots"})
        if (!json::get_num(o, key, d))
          fail(label, path + ": header missing numeric \"" +
                          std::string(key) + "\"");
      std::string s;
      if (!json::get_str(o, "mode", s))
        fail(label, path + ": header missing \"mode\"");
      if (!json::get_str(o, "shard", s) ||
          std::sscanf(s.c_str(), "%*d/%lf", &shard_count) != 1)
        fail(label, path + ": header \"shard\" is not \"i/N\"");
      have_header = true;
      continue;
    }
    ++records;
    double d = 0;
    for (const char* key : kSlotNumKeys)
      if (!json::get_num(o, key, d))
        fail(label, path + " line " + std::to_string(line_no) +
                        ": missing numeric \"" + std::string(key) + "\"");
    std::string s;
    if (!json::get_str(o, "class", s))
      fail(label, path + " line " + std::to_string(line_no) +
                      ": missing \"class\"");
    bool dropped = false, exercised = false;
    if (!json::get_bool(o, "dropped", dropped) ||
        !json::get_bool(o, "exercised", exercised) || dropped == exercised)
      fail(label, path + " line " + std::to_string(line_no) +
                      ": dropped/exercised flags missing or inconsistent");
    // A dropped slot has a null outcome; an exercised one a string.  Either
    // way the key must be present — redraw exhaustion is surfaced, not
    // omitted.
    auto outcome = o.find("outcome");
    if (outcome == o.end() ||
        (exercised ? !outcome->second.is_string()
                   : !outcome->second.is_null()))
      fail(label, path + " line " + std::to_string(line_no) +
                      ": \"outcome\" must be a string (exercised) or null "
                      "(dropped)");
    double g = 0;
    if (json::get_num(o, "g", g)) {
      if (g <= prev_g)
        fail(label, path + " line " + std::to_string(line_no) +
                        ": global slots not strictly ascending");
      prev_g = g;
    }
    if (failures > 0 && records > 3) return;  // stop flooding on a bad file
  }
  if (!have_header) fail(label, path + ": empty stream (no header line)");
  if (failures == 0)
    std::printf("stream %s: header + %zu record(s) OK\n", path.c_str(),
                records);
}

// Gate a campaign_merge --summary output.
void check_merge_summary(const std::string& path) {
  const char* label = "merge-summary";
  std::string text;
  if (!read_file(path, &text)) {
    fail(label, "cannot open " + path);
    return;
  }
  std::string err;
  auto parsed = json::parse(text, &err);
  if (!parsed || !parsed->is_object()) {
    fail(label, path + ": " + (parsed ? "top level is not an object" : err));
    return;
  }
  const auto& o = parsed->object();
  std::string schema;
  if (!json::get_str(o, "schema", schema) ||
      schema != "aoft-campaign-merge-v1") {
    fail(label, path + ": schema is not \"aoft-campaign-merge-v1\"");
    return;
  }
  double d = 0;
  for (const char* key : {"slots_total", "slots_done", "silent_wrong_total"})
    if (!json::get_num(o, key, d))
      fail(label, path + ": missing numeric \"" + std::string(key) + "\"");
  bool b = false;
  if (!json::get_bool(o, "complete", b))
    fail(label, path + ": missing boolean \"complete\"");
  else if (!b)
    fail(label, path + ": merge coverage incomplete");
  if (!json::get_bool(o, "summaries_identical", b))
    fail(label, path + ": \"summaries_identical\" missing or not boolean — "
                    "run campaign_merge with --oracle");
  else if (!b)
    fail(label, path + ": summaries_identical is false — the merged shards "
                    "do not reproduce the unsharded campaign");
  if (json::get_num(o, "silent_wrong_total", d) && d != 0)
    fail(label, path + ": silent_wrong_total = " + std::to_string(d) +
                    " (Theorem 3 requires 0)");
  if (failures == 0)
    std::printf("merge-summary %s: OK\n", path.c_str());
}

// Gate a BENCH_kernels.json (bench/micro_predicates kernel sweep).
//
// Structural: schema aoft-kernels-v1, a dispatch path string, a non-empty
// entries array with numeric scalar_ns/dispatched_ns/speedup and a boolean
// delegated flag per entry.  Perf: when the dispatched path is a SIMD one,
// best_speedup must be a number >= `floor` — the vectorized scans must not
// silently regress to parity with scalar.  When the dispatched path IS
// scalar, best_speedup must be null with a stated reason (same honesty rule
// as the campaign parallel speedup on 1-CPU hosts).
void check_kernels(const std::string& path, double floor) {
  const char* label = "kernels";
  std::string text;
  if (!read_file(path, &text)) {
    fail(label, "cannot open " + path);
    return;
  }
  std::string err;
  auto parsed = json::parse(text, &err);
  if (!parsed || !parsed->is_object()) {
    fail(label, path + ": " + (parsed ? "top level is not an object" : err));
    return;
  }
  const auto& o = parsed->object();
  std::string schema;
  if (!json::get_str(o, "schema", schema) || schema != "aoft-kernels-v1") {
    fail(label, path + ": schema is not \"aoft-kernels-v1\"");
    return;
  }
  std::string dispatch;
  if (!json::get_str(o, "dispatch", dispatch)) {
    fail(label, path + ": missing \"dispatch\" path string");
    return;
  }

  auto entries = o.find("entries");
  if (entries == o.end() || !entries->second.is_array() ||
      entries->second.array().empty()) {
    fail(label, path + ": missing or empty \"entries\" array");
  } else {
    for (const auto& e : entries->second.array()) {
      double d = 0;
      std::string kernel;
      bool delegated = false;
      if (!e.is_object() || !json::get_str(e.object(), "kernel", kernel) ||
          !json::get_num(e.object(), "size", d) ||
          !json::get_num(e.object(), "scalar_ns", d) || d <= 0 ||
          !json::get_num(e.object(), "dispatched_ns", d) || d <= 0 ||
          !json::get_num(e.object(), "speedup", d) || d <= 0 ||
          !json::get_bool(e.object(), "delegated", delegated)) {
        fail(label, path + ": malformed entries record");
        break;
      }
    }
  }

  auto best = o.find("best_speedup");
  if (best == o.end()) {
    fail(label, path + ": missing key \"best_speedup\" (number or null)");
  } else if (dispatch != "scalar") {
    if (!best->second.is_number())
      fail(label, path + ": dispatch is \"" + dispatch +
                      "\" but \"best_speedup\" is not a number");
    else if (best->second.num() < floor)
      fail(label, path + ": best_speedup " +
                      std::to_string(best->second.num()) +
                      " is below the floor " + std::to_string(floor) +
                      " — the vectorized kernels regressed to scalar parity");
  } else {
    if (!best->second.is_null())
      fail(label, path + ": dispatch is scalar but \"best_speedup\" is not "
                      "null — scalar-vs-scalar timing is noise, not a "
                      "speedup");
    std::string reason;
    if (!json::get_str(o, "speedup_null_reason", reason))
      fail(label, path + ": null \"best_speedup\" needs a "
                      "\"speedup_null_reason\" string");
  }
  if (failures == 0)
    std::printf("kernels %s: OK (dispatch %s, floor %.2fx)\n", path.c_str(),
                dispatch.c_str(), floor);
}

// ---- transport oracle cross-check ------------------------------------------

// Load an aoft-run-v1 record; false (with failures recorded) when unusable.
bool load_run(const char* label, const std::string& path, json::Value* out) {
  std::string text;
  if (!read_file(path, &text)) {
    fail(label, "cannot open " + path);
    return false;
  }
  std::string err;
  auto parsed = json::parse(text, &err);
  if (!parsed || !parsed->is_object()) {
    fail(label, path + ": " + (parsed ? "top level is not an object" : err));
    return false;
  }
  std::string schema;
  if (!json::get_str(parsed->object(), "schema", schema) ||
      schema != "aoft-run-v1") {
    fail(label, path + ": schema is not \"aoft-run-v1\"");
    return false;
  }
  *out = *parsed;
  return true;
}

// One canonical error tuple as "(node,stage,iter,source)" for diagnostics.
std::string error_tuple(const json::Object& e) {
  double node = -1, stage = -1, iter = -1;
  std::string source;
  json::get_num(e, "node", node);
  json::get_num(e, "stage", stage);
  json::get_num(e, "iter", iter);
  json::get_str(e, "source", source);
  return "(" + std::to_string(static_cast<long long>(node)) + "," +
         std::to_string(static_cast<long long>(stage)) + "," +
         std::to_string(static_cast<long long>(iter)) + "," + source + ")";
}

// One host-observed death as "(attempt,node,cause)".
std::string death_tuple(const json::Object& d) {
  double attempt = -1, node = -1;
  std::string cause;
  json::get_num(d, "attempt", attempt);
  json::get_num(d, "node", node);
  json::get_str(d, "cause", cause);
  return "(" + std::to_string(static_cast<long long>(attempt)) + "," +
         std::to_string(static_cast<long long>(node)) + "," + cause + ")";
}

// The `key` arrays of two run records must hold equal tuples in order.
void compare_entries(const json::Object& a, const json::Object& b,
                     const std::string& key,
                     std::string (*tuple)(const json::Object&)) {
  const char* label = "cross-check";
  const auto ea = a.find(key);
  const auto eb = b.find(key);
  if (ea == a.end() || eb == b.end() || !ea->second.is_array() ||
      !eb->second.is_array()) {
    fail(label, "missing \"" + key + "\" array");
    return;
  }
  const auto& arr_a = ea->second.array();
  const auto& arr_b = eb->second.array();
  if (arr_a.size() != arr_b.size()) {
    fail(label, key + " counts differ: " + std::to_string(arr_a.size()) +
                    " vs " + std::to_string(arr_b.size()));
    return;
  }
  for (std::size_t i = 0; i < arr_a.size(); ++i) {
    if (!arr_a[i].is_object() || !arr_b[i].is_object()) {
      fail(label, "malformed " + key + " entry " + std::to_string(i));
      return;
    }
    const std::string ta = tuple(arr_a[i].object());
    const std::string tb = tuple(arr_b[i].object());
    if (ta != tb)
      fail(label, key + " tuple " + std::to_string(i) + " differs: " + ta +
                      " vs " + tb);
  }
}

// Compare two aoft-run-v1 records from the same fault script on different
// transports.  Everything but "transport" must agree.
void check_cross(const std::string& path_a, const std::string& path_b) {
  const char* label = "cross-check";
  json::Value va, vb;
  if (!load_run(label, path_a, &va) || !load_run(label, path_b, &vb)) return;
  const auto& a = va.object();
  const auto& b = vb.object();

  for (const char* key : {"dim", "block", "seed", "attempts"}) {
    double na = -1, nb = -1;
    const bool ha = json::get_num(a, key, na);
    const bool hb = json::get_num(b, key, nb);
    if (ha != hb || na != nb)
      fail(label, "\"" + std::string(key) + "\" differs: " +
                      std::to_string(na) + " vs " + std::to_string(nb));
  }
  for (const char* key : {"algo", "outcome", "output_fnv"}) {
    std::string sa, sb;
    const bool ha = json::get_str(a, key, sa);
    const bool hb = json::get_str(b, key, sb);
    if (ha != hb)
      fail(label, "\"" + std::string(key) + "\" present in only one run");
    else if (sa != sb)
      fail(label, "\"" + std::string(key) + "\" differs: \"" + sa +
                      "\" vs \"" + sb + "\"");
  }
  bool ra = false, rb = false;
  if (json::get_bool(a, "recovered", ra) != json::get_bool(b, "recovered", rb)
      || ra != rb)
    fail(label, "\"recovered\" differs");

  compare_entries(a, b, "errors", error_tuple);
  compare_entries(a, b, "deaths", death_tuple);

  std::string trans_a = "?", trans_b = "?";
  json::get_str(a, "transport", trans_a);
  json::get_str(b, "transport", trans_b);
  if (failures == 0)
    std::printf("cross-check: OK (%s [%s] == %s [%s])\n", path_a.c_str(),
                trans_a.c_str(), path_b.c_str(), trans_b.c_str());
}

void info_diff(const json::Object& fresh, const json::Object& ref,
               const char* key) {
  double a = 0, b = 0;
  if (json::get_num(fresh, key, a) && json::get_num(ref, key, b) && b != 0)
    std::printf("  %-28s fresh %12.2f   ref %12.2f   (%+.1f%%)\n", key, a, b,
                100.0 * (a - b) / b);
}

}  // namespace

int main(int argc, char** argv) {
  const char* fresh_path = nullptr;
  const char* ref_path = nullptr;
  double max_allocs = 50.0;
  double min_kernel = 1.0;
  std::vector<std::string> stream_paths;
  std::vector<std::string> merge_paths;
  std::vector<std::string> kernel_paths;
  bool cross_check = false;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--max-pooled-allocs=", 20) == 0) {
      if (!aoft::util::parse_f64(a + 20, max_allocs)) {
        std::fprintf(stderr, "--max-pooled-allocs: bad value \"%s\"\n",
                     a + 20);
        usage_error = true;
        break;
      }
    } else if (std::strncmp(a, "--min-kernel-speedup=", 21) == 0) {
      if (!aoft::util::parse_f64(a + 21, min_kernel)) {
        std::fprintf(stderr, "--min-kernel-speedup: bad value \"%s\"\n",
                     a + 21);
        usage_error = true;
        break;
      }
    } else if (std::strcmp(a, "--cross-check") == 0) {
      cross_check = true;
    } else if (std::strncmp(a, "--stream=", 9) == 0) {
      stream_paths.push_back(a + 9);
    } else if (std::strncmp(a, "--merge-summary=", 16) == 0) {
      merge_paths.push_back(a + 16);
    } else if (std::strncmp(a, "--kernels=", 10) == 0) {
      kernel_paths.push_back(a + 10);
    } else if (a[0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      usage_error = true;
      break;
    } else if (!fresh_path) {
      fresh_path = a;
    } else if (!ref_path) {
      ref_path = a;
    } else {
      usage_error = true;
      break;
    }
  }
  // The positional pair is required unless only artifact checks were asked.
  const bool artifacts_only =
      !fresh_path && (!stream_paths.empty() || !merge_paths.empty() ||
                      !kernel_paths.empty());
  if (usage_error || (!artifacts_only && (!fresh_path || !ref_path))) {
    std::fprintf(stderr,
                 "usage: %s FRESH.json REFERENCE.json "
                 "[--max-pooled-allocs=F]\n"
                 "       [--stream=SLOTS.jsonl]... "
                 "[--merge-summary=MERGED.json]...\n"
                 "       [--kernels=BENCH_kernels.json]... "
                 "[--min-kernel-speedup=F]\n"
                 "       %s --cross-check SIM_RUN.json SHM_RUN.json\n",
                 argv[0], argv[0]);
    return 1;
  }

  if (cross_check) {
    check_cross(fresh_path, ref_path);
    if (failures == 0) return 0;
    std::fprintf(stderr, "bench_check: %d failure(s)\n", failures);
    return 1;
  }

  for (const auto& path : stream_paths) check_stream(path);
  for (const auto& path : merge_paths) check_merge_summary(path);
  for (const auto& path : kernel_paths) check_kernels(path, min_kernel);
  if (artifacts_only) {
    if (failures == 0) {
      std::printf("bench_check: OK (campaign artifacts)\n");
      return 0;
    }
    std::fprintf(stderr, "bench_check: %d failure(s)\n", failures);
    return 1;
  }

  json::Value fresh_v, ref_v;
  const bool fresh_ok = check_file("fresh", fresh_path, &fresh_v);
  const bool ref_ok = check_file("reference", ref_path, &ref_v);

  if (fresh_ok) {
    double d = 0;
    bool hooked = false;
    if (json::get_bool(fresh_v.object(), "alloc_hook_active", hooked) &&
        hooked &&
        json::get_num(fresh_v.object(), "pooled_allocs_per_scenario", d) &&
        d > max_allocs)
      fail("fresh", "pooled_allocs_per_scenario " + std::to_string(d) +
                        " is above the ceiling " + std::to_string(max_allocs) +
                        " — the pooled hot path allocates again");
  }

  if (fresh_ok && ref_ok) {
    std::printf("informational fresh-vs-reference throughput "
                "(never gates):\n");
    const auto& f = fresh_v.object();
    const auto& r = ref_v.object();
    info_diff(f, r, "serial_scenarios_per_sec");
    info_diff(f, r, "parallel_scenarios_per_sec");
    info_diff(f, r, "pooled_allocs_per_scenario");
  }

  if (failures == 0) {
    std::printf("bench_check: OK (%s vs %s, alloc ceiling %.1f/scenario)\n",
                fresh_path, ref_path, max_allocs);
    return 0;
  }
  std::fprintf(stderr, "bench_check: %d failure(s)\n", failures);
  return 1;
}
