// aoft-sort command-line driver.
//
// Run any of the four sorting algorithms on a simulated hypercube with
// optional fault injection, from the shell:
//
//   aoft_sort_cli --algo=sft --dim=5 --block=4 --seed=7
//   aoft_sort_cli --algo=snr --dim=4 --halt=3@1:0
//   aoft_sort_cli --algo=sft --dim=4 --invert=5@1:1 --diagnose
//   aoft_sort_cli --algo=sft --dim=4 --two-faced=2@2:0 --diagnose
//   aoft_sort_cli --algo=sft --dim=4 --halt=9@2:0 --recover=ladder
//   aoft_sort_cli --algo=sft --dim=4 --halt=9@2:0 --transient --recover=rollback
//   aoft_sort_cli --algo=sft --dim=3 --transport=shm
//   aoft_sort_cli --algo=sft --dim=3 --transport=shm --kill=2@1:0 --recover=ladder
//   aoft_sort_cli --algo=sft --dim=3 --transport=tcp --wedge=2@1:0 --recover=ladder
//   aoft_sort_cli --campaign --dim=4 --runs=40 --jobs=0 --seed=1989
//   aoft_sort_cli --campaign --multi=3 --jobs=2
//
// --transport picks the fabric (docs/PROTOCOL.md §11): sim (default) is the
// deterministic in-process simulator, shm runs one OS process per node over
// shared-memory rings, tcp runs one OS process per node over framed loopback
// or LAN sockets (docs/PROTOCOL.md §13; both multi-process fabrics are
// sft/snr only, dim <= 8, no --campaign).  --node-bin spawns nodes by
// exec'ing tools/aoft_node instead of forking; --timeout overrides the
// receive-timeout backstop; --hosts=FILE (tcp only) pins nodes to machines
// the operator launches aoft_node on by hand.  --kill=node@stage:iter
// escalates a halt fault to real process death (SIGKILL under shm/tcp,
// graceful halt under sim — identical fail-stop verdicts either way, which
// is the oracle contract).  --wedge=node@stage:iter instead SIGSTOPs the
// node: it neither speaks nor exits, which only the tcp heartbeat watchdog
// (or the sim, degrading it to a graceful halt) can tell apart from a slow
// peer — the shm parent's waitpid authority cannot, so --wedge rejects
// --transport=shm.  --emit-run writes a canonical aoft-run-v1 JSON record
// of the run (parameters, outcome, sorted error tuples, every attempt's
// host-observed deaths with their cause, output checksum);
// bench_check --cross-check compares two of them across transports.
// --trace-links writes the run's per-message link events as a canonically
// sorted JSONL trace for trace_inspect --diff.
//
// Prints the outcome, timing summary and (with --diagnose) the host-side
// fault localization.  With --recover the run goes through the recovery
// supervisor (fault/supervisor.h) and every escalation-ladder attempt is
// printed with its suspects and deaths (e.g. "dead = 1(exit)"); a --kill
// node is retired after one attempt, since the host saw it exit.
// --transient confines the injected fault to the first attempt.
// Exit status: 0 = correct, 2 = fail-stop detected, 3 = silent wrong (only
// reachable with --algo=snr under faults).
//
// --campaign runs the §4 fault-injection campaign instead of a single sort:
// --runs scenarios per adversary class, fanned out over --jobs worker
// threads (0 = one per CPU this process may run on; results are
// bit-identical for every job count), plus an optional --multi=K
// simultaneous-fault sweep.  Exit status 0 iff every S_FT tally has
// silent_wrong == 0 (Theorem 3).
//
// Campaign durability (docs/PROTOCOL.md §10):
//   --checkpoint=PATH persists a crash-safe slots-completed checkpoint;
//   --resume skips the slots it records (a resumed campaign's summary and
//   stream are bit-identical to an uninterrupted run's); --resume=
//   force-restart discards an unusable checkpoint and starts clean.  A
//   corrupted or mismatched checkpoint exits with status 4 and a specific
//   diagnosis.  --stream=PATH emits one canonical JSONL record per slot
//   while the campaign runs; --shard=i/N sweeps only slots g with
//   g % N == i (fold shards back with tools/campaign_merge).
//   --mode=independent:P / --mode=runlength:K replace the scripted
//   single-fault sweep with probabilistic soak slots (fault_spec.h); the
//   Theorem 3 gate then applies to silent-wrongs within the <= n-1 bound.
//   --multi sweeps are never checkpointed — they rerun on resume.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>

#include "fault/adversary.h"
#include "obs/sink.h"
#include "obs/json.h"
#include "obs/trace_io.h"
#include "fault/campaign.h"
#include "fault/campaign_store.h"
#include "fault/localization.h"
#include "fault/supervisor.h"
#include "sort/kernels.h"
#include "sort/sequential.h"
#include "sort/sft.h"
#include "sort/snr.h"
#include "transport/backend.h"
#include "transport/shm_segment.h"
#include "util/atomic_file.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace aoft;

struct Args {
  std::string algo = "sft";
  int dim = 4;
  std::size_t block = 1;
  std::uint64_t seed = 1;
  bool diagnose = false;
  bool quiet = false;
  std::string recover = "off";  // off|restart|rollback|ladder
  bool transient = false;       // injected faults hit attempt 0 only
  std::string trace;            // structured run trace output path
                                // (.json = Chrome trace_event, else JSONL)
  // campaign mode
  bool campaign = false;
  int jobs = 1;      // campaign worker threads; 0 = one per available CPU
  int runs = 25;     // exercised scenarios per fault class
  int multi_k = 0;   // if > 0, also sweep 1..K simultaneous faults
  std::string simd;  // force a kernel dispatch path (scalar|avx2|neon|auto)
  // campaign durability (docs/PROTOCOL.md §10)
  std::string checkpoint;      // --checkpoint=PATH
  bool resume = false;         // --resume[=force-restart]
  bool force_restart = false;
  std::string stream;          // --stream=PATH (per-slot JSONL)
  int shard_index = 0;         // --shard=i/N
  int shard_count = 1;
  int checkpoint_every = 1;    // --checkpoint-every=N
  int stop_after = 0;          // --stop-after=N (kill-point simulation)
  fault::InjectionPolicy injection;  // --mode=scripted|independent:P|runlength:K
  // transport (docs/PROTOCOL.md §11, §13)
  transport::Backend backend = transport::Backend::kSim;
  std::string node_bin;      // --node-bin=PATH (shm/tcp exec mode)
  double shm_timeout = 0.0;  // --timeout=SECONDS (recv backstop; 0 = default)
  std::string hosts_file;    // --hosts=FILE (tcp: pin nodes to machines)
  std::string emit_run;      // --emit-run=PATH (aoft-run-v1 record)
  std::string trace_links;   // --trace-links=PATH (canonical kLink trace)
  // fault specs "node@stage:iter"
  bool has_halt = false, has_invert = false, has_two_faced = false;
  bool has_kill = false;   // --kill: halt escalated to process death
  bool has_wedge = false;  // --wedge: halt escalated to SIGSTOP (wedged peer)
  cube::NodeId fault_node = 0;
  fault::StagePoint fault_point{};
};

bool parse_point(const char* s, cube::NodeId& node, fault::StagePoint& p) {
  unsigned n = 0;
  int stage = 0, iter = 0;
  if (std::sscanf(s, "%u@%d:%d", &n, &stage, &iter) != 3) return false;
  node = n;
  p = {stage, iter};
  return true;
}

// Checked numeric flag values (util/flags.h): the old atoi parsing silently
// turned "--dim=four" into 0 and "--seed=1e9" into 1 — every typo became a
// different, valid-looking run.  Any unparseable value now prints the flag
// and falls through to the usage error (exit 1).
bool checked_int(const char* flag, const char* v, int& out) {
  long long n = 0;
  if (!util::parse_i64(v, n) || n < INT_MIN || n > INT_MAX) {
    std::fprintf(stderr, "%s: bad value \"%s\" (want an integer)\n", flag, v);
    return false;
  }
  out = static_cast<int>(n);
  return true;
}

bool checked_u64(const char* flag, const char* v, std::uint64_t& out) {
  if (!util::parse_u64(v, out)) {
    std::fprintf(stderr, "%s: bad value \"%s\" (want a non-negative integer)\n",
                 flag, v);
    return false;
  }
  return true;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return a.size() > std::strlen(prefix) ? a.c_str() + std::strlen(prefix)
                                            : "";
    };
    if (a.rfind("--algo=", 0) == 0) {
      args.algo = value("--algo=");
    } else if (a.rfind("--dim=", 0) == 0) {
      if (!checked_int("--dim", value("--dim="), args.dim)) return false;
    } else if (a.rfind("--block=", 0) == 0) {
      std::uint64_t block = 0;
      if (!checked_u64("--block", value("--block="), block)) return false;
      args.block = static_cast<std::size_t>(block);
    } else if (a.rfind("--seed=", 0) == 0) {
      if (!checked_u64("--seed", value("--seed="), args.seed)) return false;
    } else if (a.rfind("--halt=", 0) == 0) {
      args.has_halt = parse_point(value("--halt="), args.fault_node, args.fault_point);
      if (!args.has_halt) return false;
    } else if (a.rfind("--invert=", 0) == 0) {
      args.has_invert =
          parse_point(value("--invert="), args.fault_node, args.fault_point);
      if (!args.has_invert) return false;
    } else if (a.rfind("--two-faced=", 0) == 0) {
      args.has_two_faced =
          parse_point(value("--two-faced="), args.fault_node, args.fault_point);
      if (!args.has_two_faced) return false;
    } else if (a.rfind("--kill=", 0) == 0) {
      args.has_kill =
          parse_point(value("--kill="), args.fault_node, args.fault_point);
      if (!args.has_kill) return false;
    } else if (a.rfind("--wedge=", 0) == 0) {
      args.has_wedge =
          parse_point(value("--wedge="), args.fault_node, args.fault_point);
      if (!args.has_wedge) return false;
    } else if (a.rfind("--transport=", 0) == 0) {
      if (!transport::parse_backend(value("--transport="), args.backend)) {
        std::fprintf(stderr, "--transport must be sim|shm|tcp\n");
        return false;
      }
    } else if (a.rfind("--hosts=", 0) == 0) {
      args.hosts_file = value("--hosts=");
      if (args.hosts_file.empty()) {
        std::fprintf(stderr, "--hosts requires a path\n");
        return false;
      }
    } else if (a.rfind("--node-bin=", 0) == 0) {
      args.node_bin = value("--node-bin=");
      if (args.node_bin.empty()) {
        std::fprintf(stderr, "--node-bin requires a path\n");
        return false;
      }
    } else if (a.rfind("--timeout=", 0) == 0) {
      if (!util::parse_f64(value("--timeout="), args.shm_timeout) ||
          args.shm_timeout <= 0) {
        std::fprintf(stderr, "--timeout: bad value \"%s\" (want seconds > 0)\n",
                     value("--timeout="));
        return false;
      }
    } else if (a.rfind("--emit-run=", 0) == 0) {
      args.emit_run = value("--emit-run=");
      if (args.emit_run.empty()) {
        std::fprintf(stderr, "--emit-run requires a path\n");
        return false;
      }
    } else if (a.rfind("--trace-links=", 0) == 0) {
      args.trace_links = value("--trace-links=");
      if (args.trace_links.empty()) {
        std::fprintf(stderr, "--trace-links requires a path\n");
        return false;
      }
    } else if (a.rfind("--recover=", 0) == 0) {
      args.recover = value("--recover=");
    } else if (a.rfind("--trace=", 0) == 0) {
      args.trace = value("--trace=");
      if (args.trace.empty()) {
        std::fprintf(stderr, "--trace requires a path\n");
        return false;
      }
    } else if (a == "--campaign") {
      args.campaign = true;
    } else if (a.rfind("--jobs=", 0) == 0) {
      if (!checked_int("--jobs", value("--jobs="), args.jobs)) return false;
    } else if (a.rfind("--runs=", 0) == 0) {
      if (!checked_int("--runs", value("--runs="), args.runs)) return false;
    } else if (a.rfind("--simd=", 0) == 0) {
      args.simd = value("--simd=");
    } else if (a.rfind("--multi=", 0) == 0) {
      if (!checked_int("--multi", value("--multi="), args.multi_k))
        return false;
    } else if (a.rfind("--checkpoint=", 0) == 0) {
      args.checkpoint = value("--checkpoint=");
      if (args.checkpoint.empty()) {
        std::fprintf(stderr, "--checkpoint requires a path\n");
        return false;
      }
    } else if (a == "--resume") {
      args.resume = true;
    } else if (a.rfind("--resume=", 0) == 0) {
      const std::string mode = value("--resume=");
      if (mode != "force-restart") {
        std::fprintf(stderr, "--resume takes no value, or =force-restart\n");
        return false;
      }
      args.resume = true;
      args.force_restart = true;
    } else if (a.rfind("--stream=", 0) == 0) {
      args.stream = value("--stream=");
      if (args.stream.empty()) {
        std::fprintf(stderr, "--stream requires a path\n");
        return false;
      }
    } else if (a.rfind("--shard=", 0) == 0) {
      if (std::sscanf(value("--shard="), "%d/%d", &args.shard_index,
                      &args.shard_count) != 2 ||
          args.shard_count < 1 || args.shard_index < 0 ||
          args.shard_index >= args.shard_count) {
        std::fprintf(stderr, "--shard must be i/N with 0 <= i < N\n");
        return false;
      }
    } else if (a.rfind("--checkpoint-every=", 0) == 0) {
      if (!checked_int("--checkpoint-every", value("--checkpoint-every="),
                       args.checkpoint_every))
        return false;
      if (args.checkpoint_every < 1) {
        std::fprintf(stderr, "--checkpoint-every must be >= 1\n");
        return false;
      }
    } else if (a.rfind("--stop-after=", 0) == 0) {
      if (!checked_int("--stop-after", value("--stop-after="),
                       args.stop_after))
        return false;
      if (args.stop_after < 1) {
        std::fprintf(stderr, "--stop-after must be >= 1\n");
        return false;
      }
    } else if (a.rfind("--mode=", 0) == 0) {
      const std::string mode = value("--mode=");
      if (mode == "scripted") {
        args.injection.mode = fault::InjectionMode::kScripted;
      } else if (mode.rfind("independent:", 0) == 0) {
        args.injection.mode = fault::InjectionMode::kIndependent;
        if (!util::parse_f64(mode.c_str() + 12, args.injection.p) ||
            !(args.injection.p > 0.0 && args.injection.p <= 1.0)) {
          std::fprintf(stderr, "--mode=independent:P needs 0 < P <= 1\n");
          return false;
        }
      } else if (mode.rfind("runlength:", 0) == 0) {
        long long k = 0;
        if (!util::parse_i64(mode.c_str() + 10, k) || k < 1) {
          std::fprintf(stderr, "--mode=runlength:K needs K >= 1\n");
          return false;
        }
        args.injection.mode = fault::InjectionMode::kRunLength;
        args.injection.k = static_cast<std::uint64_t>(k);
      } else {
        std::fprintf(stderr,
                     "--mode must be scripted|independent:P|runlength:K\n");
        return false;
      }
    } else if (a == "--transient") {
      args.transient = true;
    } else if (a == "--diagnose") {
      args.diagnose = true;
    } else if (a == "--quiet") {
      args.quiet = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  if (args.dim < 0 || args.dim > 14) {
    std::fprintf(stderr, "--dim must be in [0, 14]\n");
    return false;
  }
  if (args.block == 0) {
    std::fprintf(stderr, "--block must be >= 1\n");
    return false;
  }
  if (args.algo != "sft" && args.algo != "snr" && args.algo != "host" &&
      args.algo != "host-verified") {
    std::fprintf(stderr, "--algo must be sft|snr|host|host-verified\n");
    return false;
  }
  if (args.recover != "off" && args.recover != "restart" &&
      args.recover != "rollback" && args.recover != "ladder") {
    std::fprintf(stderr, "--recover must be off|restart|rollback|ladder\n");
    return false;
  }
  if (args.recover != "off" && args.algo != "sft") {
    std::fprintf(stderr, "--recover requires --algo=sft\n");
    return false;
  }
  if (args.jobs < 0) {
    std::fprintf(stderr, "--jobs must be >= 0 (0 = one per available CPU)\n");
    return false;
  }
  if (args.campaign && args.runs < 1) {
    std::fprintf(stderr, "--runs must be >= 1\n");
    return false;
  }
  if (args.multi_k < 0 || args.multi_k > (1 << args.dim)) {
    std::fprintf(stderr, "--multi must be in [0, 2^dim]\n");
    return false;
  }
  if (!args.campaign &&
      (!args.checkpoint.empty() || args.resume || !args.stream.empty() ||
       args.shard_count != 1 || args.stop_after > 0 ||
       args.injection.mode != fault::InjectionMode::kScripted)) {
    std::fprintf(stderr,
                 "--checkpoint/--resume/--stream/--shard/--stop-after/--mode "
                 "require --campaign\n");
    return false;
  }
  if (args.resume && args.checkpoint.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint=PATH\n");
    return false;
  }
  if (args.multi_k > 0 &&
      args.injection.mode != fault::InjectionMode::kScripted) {
    std::fprintf(stderr, "--multi requires --mode=scripted\n");
    return false;
  }
  const bool shm = args.backend == transport::Backend::kShm;
  const bool tcp = args.backend == transport::Backend::kTcp;
  if (shm || tcp) {
    const char* t = shm ? "shm" : "tcp";
    if (args.campaign) {
      std::fprintf(stderr, "--transport=%s does not support --campaign "
                           "(campaigns run on the in-process simulator)\n", t);
      return false;
    }
    if (args.algo != "sft" && args.algo != "snr") {
      std::fprintf(stderr, "--transport=%s requires --algo=sft|snr\n", t);
      return false;
    }
    if (args.dim > transport::kMaxProcessDim) {
      std::fprintf(stderr, "--transport=%s supports --dim up to %d\n", t,
                   transport::kMaxProcessDim);
      return false;
    }
    if (args.has_two_faced && !args.node_bin.empty()) {
      std::fprintf(stderr, "--two-faced needs the in-process interceptor: "
                           "use fork mode (drop --node-bin) or "
                           "--transport=sim\n");
      return false;
    }
  } else if (!args.node_bin.empty() || args.shm_timeout > 0) {
    std::fprintf(stderr, "--node-bin/--timeout require --transport=shm|tcp\n");
    return false;
  }
  if (!args.hosts_file.empty() && !tcp) {
    std::fprintf(stderr, "--hosts requires --transport=tcp\n");
    return false;
  }
  if (args.has_wedge && shm) {
    std::fprintf(stderr, "--wedge needs socket death detection: a stopped "
                         "child never exits, so the shm parent's waitpid "
                         "authority cannot see it — use --transport=tcp "
                         "(heartbeat watchdog) or sim (graceful halt)\n");
    return false;
  }
  if (args.has_kill && args.has_halt) {
    std::fprintf(stderr, "--kill already escalates --halt; give only one\n");
    return false;
  }
  if (args.has_wedge && (args.has_halt || args.has_kill)) {
    std::fprintf(stderr, "--wedge already escalates --halt and excludes "
                         "--kill; give only one\n");
    return false;
  }
  if (!args.trace_links.empty() &&
      (args.algo != "sft" || args.campaign || args.recover != "off")) {
    std::fprintf(stderr,
                 "--trace-links requires a single (non-campaign, "
                 "non-recover) --algo=sft run\n");
    return false;
  }
  if (!args.emit_run.empty() && args.campaign) {
    std::fprintf(stderr, "--emit-run requires a single or supervised run\n");
    return false;
  }
  return true;
}

// Serialize the collected trace and print the metrics digest.  Returns false
// (after printing the cause) when the trace file cannot be written.
bool finish_trace(const Args& args, const char* mode,
                  const obs::Tracer& tracer,
                  const obs::MetricsRegistry& metrics) {
  if (args.trace.empty()) return true;
  obs::TraceMeta meta;
  meta.dim = args.dim;
  meta.block = args.block;
  meta.seed = args.seed;
  meta.mode = mode;
  std::string err;
  if (!obs::write_trace_file(args.trace, meta, tracer, &err)) {
    std::fprintf(stderr, "trace: %s\n", err.c_str());
    return false;
  }
  if (!args.quiet) {
    std::printf("trace: %zu events -> %s\n", tracer.size(),
                args.trace.c_str());
    std::fputs(obs::format_metrics(metrics).c_str(), stdout);
  }
  return true;
}

// A host-observed death and the attempt it happened in (0 for a single run).
struct AttemptDeath {
  int attempt = 0;
  sort::Death death;
};

std::vector<AttemptDeath> deaths_of(const fault::SupervisedRun& run) {
  std::vector<AttemptDeath> out;
  for (const auto& ev : run.events)
    for (const sort::Death& d : ev.deaths) out.push_back({ev.attempt, d});
  return out;
}

// Write the canonical aoft-run-v1 record (--emit-run): run parameters,
// outcome, error tuples sorted by (node, stage, iter, source), every
// attempt's host-observed deaths, and — unless the script killed a node,
// whose block is then intentionally unwritten — an fnv1a64 checksum of the
// output keys.  bench_check --cross-check compares two of these across
// transports; everything but "transport" must match.
bool emit_run_file(const Args& args, const sort::SortRun& run,
                   sort::Outcome outcome, int attempts, bool recovered,
                   const std::vector<AttemptDeath>& deaths) {
  if (args.emit_run.empty()) return true;
  auto errs = run.errors;
  std::sort(errs.begin(), errs.end(), [](const auto& x, const auto& y) {
    return std::tuple(x.node, x.stage, x.iter,
                      std::string_view(sim::to_string(x.source))) <
           std::tuple(y.node, y.stage, y.iter,
                      std::string_view(sim::to_string(y.source)));
  });
  std::string j = "{\"schema\":\"aoft-run-v1\"";
  j += ",\"transport\":";
  j += obs::json::escape(transport::to_string(args.backend));
  // Provenance like "transport": which kernel table ran.  Never compared by
  // the cross-check — dispatch is bit-identical by contract (PROTOCOL §12).
  j += ",\"simd\":";
  j += obs::json::escape(util::simd::to_string(sort::kernels::active_path()));
  j += ",\"algo\":" + obs::json::escape(args.algo);
  j += ",\"dim\":" + std::to_string(args.dim);
  j += ",\"block\":" + std::to_string(args.block);
  j += ",\"seed\":" + std::to_string(args.seed);
  j += ",\"outcome\":" + obs::json::escape(sort::to_string(outcome));
  j += ",\"attempts\":" + std::to_string(attempts);
  j += ",\"recovered\":";
  j += recovered ? "true" : "false";
  j += ",\"errors\":[";
  for (std::size_t i = 0; i < errs.size(); ++i) {
    if (i > 0) j += ",";
    j += "{\"node\":" + std::to_string(errs[i].node);
    j += ",\"stage\":" + std::to_string(errs[i].stage);
    j += ",\"iter\":" + std::to_string(errs[i].iter);
    j += ",\"source\":" + obs::json::escape(sim::to_string(errs[i].source));
    j += "}";
  }
  j += "],\"deaths\":[";
  for (std::size_t i = 0; i < deaths.size(); ++i) {
    if (i > 0) j += ",";
    j += "{\"attempt\":" + std::to_string(deaths[i].attempt);
    j += ",\"node\":" + std::to_string(deaths[i].death.node);
    j += ",\"cause\":" +
         obs::json::escape(transport::to_string(deaths[i].death.cause));
    j += "}";
  }
  j += "]";
  if (!args.has_kill && !args.has_wedge) {
    char fnv[32];
    std::snprintf(fnv, sizeof(fnv), "0x%016llx",
                  static_cast<unsigned long long>(util::fnv1a64(
                      run.output.data(),
                      run.output.size() * sizeof(sort::Key))));
    j += ",\"output_fnv\":\"";
    j += fnv;
    j += "\"";
  }
  j += "}\n";
  std::string err;
  if (!util::write_file_atomic(args.emit_run, j, &err)) {
    std::fprintf(stderr, "emit-run: %s\n", err.c_str());
    return false;
  }
  return true;
}

// Write the run's link events as a canonically sorted kLink trace
// (--trace-links).  Both transports record sender-side events; sorting by
// (stage, iter, from, to, to_host, from_host, kind, words, delivered) makes
// the file a pure function of the message multiset, so trace_inspect --diff
// compares sim and shm traces directly.
bool emit_link_trace(const Args& args, const sort::SortRun& run) {
  if (args.trace_links.empty()) return true;
  auto evs = run.link_events;
  auto key = [](const sim::LinkEvent& e) {
    return std::tuple(e.stage, e.iter, e.from, e.to, e.to_host, e.from_host,
                      static_cast<int>(e.kind), e.words, e.delivered);
  };
  std::sort(evs.begin(), evs.end(),
            [&](const auto& x, const auto& y) { return key(x) < key(y); });
  obs::Tracer t;
  for (const auto& e : evs) {
    const std::int64_t b = (static_cast<std::int64_t>(e.words) << 16) |
                           (static_cast<std::int64_t>(e.kind) << 8) |
                           (std::int64_t{e.delivered} << 2) |
                           (std::int64_t{e.to_host} << 1) |
                           std::int64_t{e.from_host};
    t.instant(obs::Ev::kLink,
              e.from_host ? obs::kHostNode
                          : static_cast<std::int32_t>(e.from),
              e.stage, e.iter, 0.0,
              e.to_host ? obs::kHostNode : static_cast<std::int64_t>(e.to),
              b);
  }
  obs::TraceMeta meta;
  meta.dim = args.dim;
  meta.block = args.block;
  meta.seed = args.seed;
  meta.mode = "links";
  meta.transport = transport::to_string(args.backend);
  std::string err;
  if (!obs::write_trace_file(args.trace_links, meta, t, &err)) {
    std::fprintf(stderr, "trace-links: %s\n", err.c_str());
    return false;
  }
  return true;
}

// Soak-mode campaign body: probabilistic injection, SoakTally output, gated
// on silent-wrong *within* the Theorem 3 resilience bound.
int run_soak_mode(const Args& args, fault::CampaignConfig& cfg,
                  const obs::Tracer& tracer,
                  const obs::MetricsRegistry& metrics) {
  const auto tally = fault::run_soak_campaign(cfg);
  if (!args.quiet) {
    util::Table table({"metric", "value"});
    table.add_row({"runs", util::fmt_int(tally.runs)});
    table.add_row({"dropped", util::fmt_int(tally.dropped)});
    table.add_row({"attempts", util::fmt_int(tally.attempts)});
    table.add_row({"detected", util::fmt_int(tally.detected)});
    table.add_row({"masked", util::fmt_int(tally.masked)});
    table.add_row({"SILENT-WRONG (in bound)",
                   util::fmt_int(tally.silent_wrong_in_bound)});
    table.add_row({"beyond-bound runs", util::fmt_int(tally.beyond_bound_runs)});
    table.add_row({"silent-wrong (beyond bound)",
                   util::fmt_int(tally.silent_wrong_beyond)});
    table.add_row({"multi-fault runs", util::fmt_int(tally.multi_fired)});
    table.add_row({"injections fired",
                   util::fmt_int(static_cast<int>(tally.faults_fired))});
    table.add_row({"max dislocation",
                   util::fmt_int(static_cast<int>(tally.max_dislocation))});
    table.print(std::cout);
    std::printf("\ncoverage: %zu/%zu slots\n", tally.slots_done,
                tally.slots_total);
    std::printf("Theorem 3 verdict (within <= n-1 bound): silent-wrong = %d  "
                "[%s]\n",
                tally.silent_wrong_in_bound,
                tally.silent_wrong_in_bound == 0 ? "OK" : "VIOLATION");
  }
  if (!finish_trace(args, "soak-campaign", tracer, metrics)) return 1;
  return tally.silent_wrong_in_bound == 0 ? 0 : 1;
}

int run_campaign_mode(const Args& args) {
  fault::CampaignConfig cfg;
  cfg.dim = args.dim;
  cfg.block = args.block;
  cfg.runs_per_class = args.runs;
  cfg.seed = args.seed;
  cfg.jobs = args.jobs;
  cfg.injection = args.injection;
  cfg.checkpoint_path = args.checkpoint;
  cfg.resume = args.resume;
  cfg.force_restart = args.force_restart;
  cfg.stream_path = args.stream;
  cfg.shard_index = args.shard_index;
  cfg.shard_count = args.shard_count;
  cfg.checkpoint_every = args.checkpoint_every;
  cfg.stop_after_slots = args.stop_after;

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  if (!args.trace.empty()) {
    cfg.tracer = &tracer;
    cfg.metrics = &metrics;
  }

  if (!args.quiet)
    std::printf("fault campaign: dim=%d block=%zu runs/class=%d seed=%llu "
                "jobs=%d simd=%s mode=%s shard=%d/%d\n\n",
                cfg.dim, cfg.block, cfg.runs_per_class,
                static_cast<unsigned long long>(cfg.seed), cfg.jobs,
                util::simd::to_string(sort::kernels::active_path()),
                fault::to_string(cfg.injection.mode), cfg.shard_index,
                cfg.shard_count);

  if (cfg.injection.mode != fault::InjectionMode::kScripted)
    return run_soak_mode(args, cfg, tracer, metrics);

  const auto summary = fault::run_campaign(cfg);
  int silent = 0;
  if (!args.quiet) {
    util::Table table({"fault class", "runs", "dropped", "attempts",
                       "detected", "masked", "SILENT-WRONG", "S_NR silent"});
    for (std::size_t i = 0; i < summary.sft.size(); ++i) {
      const auto& s = summary.sft[i];
      const auto& b = summary.snr[i];
      table.add_row({fault::to_string(s.fclass), util::fmt_int(s.runs),
                     util::fmt_int(s.dropped), util::fmt_int(s.attempts),
                     util::fmt_int(s.detected), util::fmt_int(s.masked),
                     util::fmt_int(s.silent_wrong),
                     b.runs > 0 ? util::fmt_int(b.silent_wrong) + "/" +
                                      util::fmt_int(b.runs)
                                : "n/a"});
    }
    table.print(std::cout);
  }
  for (const auto& s : summary.sft) silent += s.silent_wrong;

  if (args.multi_k > 0) {
    const auto tallies = fault::run_multi_campaign(cfg, args.multi_k);
    if (!args.quiet) {
      std::printf("\nmulti-fault sweep (k simultaneous faults):\n");
      util::Table table({"k", "runs", "dropped", "attempts", "detected",
                         "masked", "SILENT-WRONG"});
      for (const auto& t : tallies)
        table.add_row({util::fmt_int(t.k), util::fmt_int(t.runs),
                       util::fmt_int(t.dropped), util::fmt_int(t.attempts),
                       util::fmt_int(t.detected), util::fmt_int(t.masked),
                       util::fmt_int(t.silent_wrong)});
      table.print(std::cout);
    }
    for (const auto& t : tallies)
      if (t.k <= args.dim - 1) silent += t.silent_wrong;
  }

  if (!args.quiet) {
    std::printf("\ncoverage: %zu/%zu slots\n", summary.slots_done,
                summary.slots_total);
    std::printf("Theorem 3 verdict: S_FT silent-wrong = %d  [%s]\n", silent,
                silent == 0 ? "OK" : "VIOLATION");
  }
  if (!finish_trace(args, "campaign", tracer, metrics)) return 1;
  return silent == 0 ? 0 : 1;
}

fault::RecoveryPolicy recovery_policy(const std::string& name) {
  fault::RecoveryPolicy p;  // "ladder": every rung enabled
  if (name == "restart") {
    p = fault::RecoveryPolicy::full_restart(3);
  } else if (name == "rollback") {
    p.reconfigure = false;
    p.host_fallback = false;
    p.max_attempts = 3;
    p.attempts_per_config = 3;
  }
  return p;
}

// Single and supervised runs execute on this thread; bind the sinks here.
int run_sort_mode(const Args& args) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  std::optional<obs::ScopedSink> sink;
  if (!args.trace.empty()) sink.emplace(&tracer, &metrics);

  const auto input = util::random_keys(
      args.seed, (std::size_t{1} << args.dim) * args.block);

  fault::NodeFaultMap node_faults;
  if (args.has_halt) node_faults[args.fault_node].halt_at = args.fault_point;
  if (args.has_kill) {
    node_faults[args.fault_node].halt_at = args.fault_point;
    node_faults[args.fault_node].kill_process = true;
  }
  if (args.has_wedge) {
    node_faults[args.fault_node].halt_at = args.fault_point;
    node_faults[args.fault_node].wedge_process = true;
  }
  if (args.has_invert)
    node_faults[args.fault_node].invert_direction_from = args.fault_point;
  fault::Adversary adversary;
  if (args.has_two_faced)
    adversary.add(fault::two_faced_gossip(
        args.fault_node, args.fault_point, args.fault_node ^ 1u, 4097,
        args.block, [](cube::NodeId dest) { return (dest & 1u) == 1u; }));
  sim::LinkInterceptor* interceptor = args.has_two_faced ? &adversary : nullptr;

  // Transport knobs shared by every path that builds sort options (SftOptions
  // and SnrOptions both carry backend/shm/tcp).  --timeout scales the tcp
  // heartbeat thresholds down with it so a wedged peer is still declared
  // dead by the watchdog before the recv backstop fires.
  auto apply_transport = [&](auto& opts) {
    opts.backend = args.backend;
    opts.shm.node_binary = args.node_bin;
    opts.tcp.node_binary = args.node_bin;
    opts.tcp.hosts_file = args.hosts_file;
    if (args.shm_timeout > 0) {
      opts.shm.recv_timeout_s = args.shm_timeout;
      opts.shm.run_deadline_s = std::max(args.shm_timeout * 8.0,
                                         opts.shm.run_deadline_s);
      opts.tcp.recv_timeout_s = args.shm_timeout;
      opts.tcp.run_deadline_s = std::max(args.shm_timeout * 8.0,
                                         opts.tcp.run_deadline_s);
      opts.tcp.heartbeat_loss_s =
          std::min(opts.tcp.heartbeat_loss_s, args.shm_timeout * 0.5);
      opts.tcp.heartbeat_interval_s =
          std::min(opts.tcp.heartbeat_interval_s,
                   opts.tcp.heartbeat_loss_s * 0.25);
    }
  };

  if (args.recover != "off") {
    sort::SftOptions base;
    base.block = args.block;
    apply_transport(base);
    const auto run = fault::run_supervised_sort(
        args.dim, input, base, recovery_policy(args.recover),
        [&](int attempt) -> sim::LinkInterceptor* {
          if (!args.has_two_faced) return nullptr;
          return (args.transient && attempt > 0) ? nullptr : &adversary;
        },
        [&](int attempt) -> fault::NodeFaultMap {
          return (args.transient && attempt > 0) ? fault::NodeFaultMap{}
                                                 : node_faults;
        });
    const auto outcome = run.outcome;
    if (!args.quiet) {
      std::printf("algo=sft(recover=%s) nodes=%u keys=%zu outcome=%s\n",
                  args.recover.c_str(), 1u << args.dim, input.size(),
                  sort::to_string(outcome));
      for (const auto& ev : run.events) {
        std::printf("attempt %d: rung=%-9s dim=%d block=%zu resume=%d "
                    "outcome=%s ticks=%.1f",
                    ev.attempt, fault::to_string(ev.rung), ev.config_dim,
                    ev.block, ev.resume_stage, sort::to_string(ev.outcome),
                    ev.ticks);
        if (!ev.suspects.empty()) {
          std::printf("  suspects =");
          for (auto s : ev.suspects) std::printf(" %u", s);
          if (ev.link_suspected) std::printf(" (link)");
        }
        if (!ev.deaths.empty()) {
          std::printf("  dead =");
          for (const auto& d : ev.deaths)
            std::printf(" %u(%s)", d.node, transport::to_string(d.cause));
        }
        std::printf("\n");
      }
      if (!run.retired.empty()) {
        std::printf("retired:");
        for (auto s : run.retired) std::printf(" %u", s);
        std::printf("\n");
      }
      std::printf("attempts=%d final-rung=%s recovered=%s salvaged-stages=%d "
                  "total=%.1f ticks\n",
                  run.attempts, fault::to_string(run.final_rung),
                  run.recovered ? "yes" : "no", run.stages_salvaged,
                  run.total_ticks);
    }
    if (!finish_trace(args, "supervised", tracer, metrics)) return 1;
    if (!emit_run_file(args, run.last, outcome, run.attempts, run.recovered,
                       deaths_of(run)))
      return 1;
    switch (outcome) {
      case sort::Outcome::kCorrect: return 0;
      case sort::Outcome::kFailStop: return 2;
      case sort::Outcome::kSilentWrong: return 3;
    }
    return 1;
  }

  sort::SortRun run;
  if (args.algo == "sft") {
    sort::SftOptions opts;
    opts.block = args.block;
    opts.node_faults = node_faults;
    opts.interceptor = interceptor;
    opts.record_link_events = !args.trace_links.empty();
    apply_transport(opts);
    run = sort::run_sft(args.dim, input, opts);
  } else if (args.algo == "snr") {
    sort::SnrOptions opts;
    opts.block = args.block;
    opts.node_faults = node_faults;
    opts.interceptor = interceptor;
    apply_transport(opts);
    run = sort::run_snr(args.dim, input, opts);
  } else if (args.algo == "host") {
    sort::HostSortOptions opts;
    opts.block = args.block;
    run = sort::run_host_sort(args.dim, input, opts);
  } else {
    sort::HostVerifyOptions opts;
    opts.block = args.block;
    opts.node_faults = node_faults;
    opts.interceptor = interceptor;
    run = sort::run_host_verified_snr(args.dim, input, opts);
  }

  const auto outcome = sort::classify(run, input);
  if (!args.quiet) {
    std::printf("algo=%s nodes=%u keys=%zu outcome=%s\n", args.algo.c_str(),
                1u << args.dim, input.size(), sort::to_string(outcome));
    std::printf("elapsed=%.1f ticks  comm(max/node)=%.1f  comp(max/node)=%.1f  "
                "msgs=%llu  words=%llu\n",
                run.summary.elapsed, run.summary.max_comm, run.summary.max_comp,
                static_cast<unsigned long long>(run.summary.total_msgs),
                static_cast<unsigned long long>(run.summary.total_words));
    for (const auto& e : run.errors)
      std::printf("error: node %u stage %d iter %d %s: %s\n", e.node, e.stage,
                  e.iter, sim::to_string(e.source), e.detail.c_str());
    for (const auto& d : run.deaths)
      std::printf("dead: node %u (%s)\n", d.node,
                  transport::to_string(d.cause));
    if (args.diagnose && !run.errors.empty()) {
      const auto d = fault::localize(run.errors, args.dim);
      std::printf("diagnosis: suspects =");
      for (auto s : d.suspects) std::printf(" %u", s);
      std::printf("%s%s\n", d.conclusive ? " (conclusive)" : "",
                  d.link_suspected ? " (link fault suspected)" : "");
    }
  }
  if (!finish_trace(args, "single", tracer, metrics)) return 1;
  std::vector<AttemptDeath> deaths;
  for (const sort::Death& d : run.deaths) deaths.push_back({0, d});
  if (!emit_run_file(args, run, outcome, 1, false, deaths)) return 1;
  if (!emit_link_trace(args, run)) return 1;
  switch (outcome) {
    case sort::Outcome::kCorrect: return 0;
    case sort::Outcome::kFailStop: return 2;
    case sort::Outcome::kSilentWrong: return 3;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s [--algo=sft|snr|host|host-verified] [--dim=N]\n"
                 "          [--block=M] [--seed=S] [--halt=node@stage:iter]\n"
                 "          [--invert=node@stage:iter] [--two-faced=node@stage:iter]\n"
                 "          [--kill=node@stage:iter] [--wedge=node@stage:iter]\n"
                 "          [--transport=sim|shm|tcp] [--hosts=FILE]\n"
                 "          [--node-bin=PATH] [--timeout=SECONDS]\n"
                 "          [--emit-run=PATH] [--trace-links=PATH]\n"
                 "          [--recover=off|restart|rollback|ladder] [--transient]\n"
                 "          [--diagnose] [--quiet] [--trace=PATH]\n"
                 "       %s --campaign [--dim=N] [--block=M] [--seed=S]\n"
                 "          [--runs=R] [--jobs=J] [--multi=K] [--quiet]\n"
                 "          [--simd=scalar|avx2|neon|auto]\n"
                 "          [--mode=scripted|independent:P|runlength:K]\n"
                 "          [--checkpoint=PATH] [--resume[=force-restart]]\n"
                 "          [--stream=PATH] [--shard=i/N]\n"
                 "          [--checkpoint-every=N] [--stop-after=N]\n"
                 "          [--trace=PATH]  (.json = Chrome trace, else JSONL)\n",
                 argv[0], argv[0]);
    return 1;
  }

  if (!args.simd.empty()) {
    // Pin the kernel dispatch path before any sort runs.  Like AOFT_SIMD in
    // the environment, an unavailable path dies loudly (usage error) rather
    // than degrading — dispatch is environment metadata and never changes
    // results (docs/PROTOCOL.md §12), so forcing exists purely for CI and
    // benchmarking.
    try {
      if (const auto p = util::simd::parse(args.simd))
        sort::kernels::force_path(*p);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--simd: %s\n", e.what());
      return 1;
    }
  }

  try {
    return args.campaign ? run_campaign_mode(args) : run_sort_mode(args);
  } catch (const fault::StoreError& e) {
    // Unusable checkpoint/stream: loud, specific, distinct exit status.
    std::fprintf(stderr, "campaign store [%s]: %s\n",
                 fault::to_string(e.status()), e.what());
    return 4;
  } catch (const std::exception& e) {
    // A fleet that cannot start (out of fds or processes) throws while
    // spawning.  Catching unwinds its ChildSet, which kills and reaps the
    // children already forked instead of orphaning them.
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
