// CLI argument validation, end to end against the real binary: unknown
// arguments and unparseable values must produce a usage error and exit 1 —
// never a silently different run — and the new transport surface
// (--transport/--kill/--node-bin/--emit-run) enforces its documented
// constraints.  Also proves the --emit-run cross-check contract at the CLI
// level: the same fault script on sim and shm emits records that agree in
// everything but the transport label, that a fleet which cannot spawn
// fails loudly without orphaning its children, and that a killed tcp host's
// nodes do not outlive it.

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "util/atomic_file.h"

#ifndef AOFT_CLI_PATH
#error "build must define AOFT_CLI_PATH (see tests/CMakeLists.txt)"
#endif

namespace {

using namespace aoft;

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "aoft_cli_" +
                           std::to_string(getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

// Fork/exec the CLI with the given arguments and return its pid.  A nonzero
// `nofile` lowers RLIMIT_NOFILE in the child first.  The child leads its own
// process group, so a test can kill whatever it leaves behind.
pid_t spawn_cli(const std::vector<std::string>& extra_args, rlim_t nofile = 0) {
  std::vector<std::string> args = {AOFT_CLI_PATH};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  const pid_t pid = fork();
  if (pid == 0) {
    setpgid(0, 0);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, STDOUT_FILENO);
      dup2(devnull, STDERR_FILENO);
      close(devnull);
    }
    const rlimit limit{nofile, nofile};
    if (nofile != 0 && setrlimit(RLIMIT_NOFILE, &limit) != 0) _exit(126);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(AOFT_CLI_PATH, argv.data());
    _exit(127);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  return pid;
}

// Reap a spawned CLI; returns its exit code (-1 when it died by signal, 127
// when exec failed).
int wait_cli(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_cli(const std::vector<std::string>& extra_args) {
  return wait_cli(spawn_cli(extra_args));
}

obs::json::Value parse_run_file(const std::string& path) {
  std::string text, err;
  EXPECT_TRUE(util::read_file(path, &text, &err)) << path << ": " << err;
  auto parsed = obs::json::parse(text, &err);
  EXPECT_TRUE(parsed.has_value()) << err;
  EXPECT_TRUE(parsed->is_object());
  return *parsed;
}

TEST(CliArgs, UnknownArgumentIsAUsageError) {
  EXPECT_EQ(run_cli({"--algo=sft", "--dim=2", "--verbose"}), 1);
  EXPECT_EQ(run_cli({"--frobnicate"}), 1);
  // Campaign workers take --jobs only: a script that passes a placement or
  // batching flag must fail loudly rather than run without it.
  EXPECT_EQ(run_cli({"--campaign", "--pin=compact"}), 1);
  EXPECT_EQ(run_cli({"--campaign", "--batch=8"}), 1);
}

// A fleet that runs out of fds while spawning fails loudly (exit 1, not an
// abort) and leaves no node behind: the CLI catches, so its ChildSet kills
// and reaps the children it already forked.  This process becomes a child
// subreaper, so a node the CLI orphaned would be reparented here.
TEST(CliArgs, SpawnFailureLeavesNoChildBehind) {
  ASSERT_EQ(prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0), 0);
  for (const char* transport : {"--transport=shm", "--transport=tcp"}) {
    // 40 fds cannot hold a dim-6 fleet's 64 pidfds.
    const pid_t cli = spawn_cli({"--dim=6", transport, "--quiet"}, 40);
    EXPECT_EQ(wait_cli(cli), 1) << transport;
    errno = 0;
    EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1)
        << transport << ": a node outlived the CLI";
    EXPECT_EQ(errno, ECHILD) << transport;
    kill(-cli, SIGKILL);
    while (waitpid(-1, nullptr, 0) > 0) {
    }
  }
  prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0);
}

// A tcp fleet whose CLI is SIGKILLed leaves no node behind for long: a
// node takes its host for gone, in every setup wait and in wait_activity,
// once its host link ends or (forked) its parent changes, rather than
// waiting out the 120 s CONFIG deadline or the 15 s receive timeout.  The
// delays catch nodes dialing or waiting for CONFIG, then mid-sort.
TEST(CliArgs, KilledTcpHostLeavesNoNodeBehind) {
  ASSERT_EQ(prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0), 0);
  for (int delay_ms : {30, 300, 1000}) {
    const pid_t cli = spawn_cli(
        {"--dim=6", "--block=4096", "--transport=tcp", "--quiet"});
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    kill(cli, SIGKILL);
    wait_cli(cli);  // killed, or (a fast host, the last delay) finished
    // Every node the CLI orphaned is reparented here; reap them as they go.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool gone = false;
    while (!gone && std::chrono::steady_clock::now() < deadline) {
      const pid_t r = waitpid(-1, nullptr, WNOHANG);
      gone = r == -1 && errno == ECHILD;
      if (r == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(gone) << "a node outlived the CLI killed after " << delay_ms
                      << " ms by 5 s";
    kill(-cli, SIGKILL);
    while (waitpid(-1, nullptr, 0) > 0) {
    }
  }
  prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0);
}

TEST(CliArgs, GarbageNumericValuesAreUsageErrors) {
  EXPECT_EQ(run_cli({"--dim=four"}), 1);
  EXPECT_EQ(run_cli({"--dim=4x"}), 1);
  EXPECT_EQ(run_cli({"--block=2.5"}), 1);
  EXPECT_EQ(run_cli({"--seed=-1"}), 1);
  EXPECT_EQ(run_cli({"--campaign", "--runs=ten"}), 1);
  EXPECT_EQ(run_cli({"--campaign", "--jobs=all"}), 1);
  EXPECT_EQ(run_cli({"--campaign", "--mode=independent:lots"}), 1);
}

TEST(CliArgs, TransportSurfaceValidation) {
  EXPECT_EQ(run_cli({"--transport=carrier-pigeon"}), 1);
  EXPECT_EQ(run_cli({"--transport=shm", "--algo=host", "--dim=2"}), 1);
  EXPECT_EQ(run_cli({"--transport=tcp", "--algo=host", "--dim=2"}), 1);
  EXPECT_EQ(run_cli({"--transport=shm", "--campaign"}), 1);
  EXPECT_EQ(run_cli({"--transport=tcp", "--campaign"}), 1);
  EXPECT_EQ(run_cli({"--transport=shm", "--dim=9"}), 1);
  EXPECT_EQ(run_cli({"--transport=tcp", "--dim=9"}), 1);
  EXPECT_EQ(run_cli({"--node-bin=/bin/true", "--dim=2"}), 1)
      << "--node-bin without a multi-process transport";
  EXPECT_EQ(run_cli({"--transport=shm", "--dim=2", "--timeout=soon"}), 1);
  EXPECT_EQ(run_cli({"--hosts=hosts.txt", "--dim=2"}), 1)
      << "--hosts without --transport=tcp";
  EXPECT_EQ(run_cli({"--transport=shm", "--hosts=hosts.txt", "--dim=2"}), 1);
  EXPECT_EQ(run_cli({"--kill=1@1:0", "--halt=1@1:0", "--dim=2"}), 1)
      << "--kill and --halt are mutually exclusive";
  EXPECT_EQ(run_cli({"--wedge=1@1:0", "--halt=1@1:0", "--dim=2"}), 1)
      << "--wedge and --halt are mutually exclusive";
  EXPECT_EQ(run_cli({"--wedge=1@1:0", "--kill=1@1:0", "--dim=2"}), 1)
      << "--wedge and --kill are mutually exclusive";
  EXPECT_EQ(run_cli({"--transport=shm", "--wedge=1@1:0", "--dim=2"}), 1)
      << "a stopped child is invisible to waitpid: --wedge rejects shm";
}

TEST(CliArgs, CleanRunsStillExitZero) {
  EXPECT_EQ(run_cli({"--algo=sft", "--dim=2", "--quiet"}), 0);
  EXPECT_EQ(run_cli({"--algo=sft", "--dim=2", "--transport=shm", "--quiet"}),
            0);
  EXPECT_EQ(run_cli({"--algo=sft", "--dim=2", "--transport=tcp", "--quiet"}),
            0);
}

TEST(CliArgs, EmitRunWritesACanonicalRecord) {
  const auto path = fresh_path("run.json");
  ASSERT_EQ(run_cli({"--algo=sft", "--dim=2", "--block=2", "--seed=9",
                     "--halt=1@1:0", "--quiet", "--emit-run=" + path}),
            2)
      << "a halt script is a fail-stop (exit 2)";
  const auto v = parse_run_file(path);
  const auto& o = v.object();
  std::string s;
  ASSERT_TRUE(obs::json::get_str(o, "schema", s));
  EXPECT_EQ(s, "aoft-run-v1");
  ASSERT_TRUE(obs::json::get_str(o, "transport", s));
  EXPECT_EQ(s, "sim");
  ASSERT_TRUE(obs::json::get_str(o, "outcome", s));
  EXPECT_EQ(s, "fail-stop");
  ASSERT_TRUE(obs::json::get_str(o, "output_fnv", s));
  EXPECT_EQ(s.rfind("0x", 0), 0u);
  const auto errs = o.find("errors");
  ASSERT_NE(errs, o.end());
  ASSERT_TRUE(errs->second.is_array());
  EXPECT_FALSE(errs->second.array().empty());
}

TEST(CliArgs, SimAndShmEmitRunsAgree) {
  const auto sim_path = fresh_path("sim.json");
  const auto shm_path = fresh_path("shm.json");
  const std::vector<std::string> script = {"--algo=sft", "--dim=2",
                                           "--block=2", "--seed=5",
                                           "--halt=1@1:0", "--quiet"};
  auto with = [&](const std::vector<std::string>& extra) {
    auto args = script;
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };
  ASSERT_EQ(run_cli(with({"--emit-run=" + sim_path})), 2);
  ASSERT_EQ(run_cli(with({"--transport=shm", "--emit-run=" + shm_path})), 2);

  const auto sim_v = parse_run_file(sim_path);
  const auto shm_v = parse_run_file(shm_path);
  const auto& a = sim_v.object();
  const auto& b = shm_v.object();
  for (const char* key : {"outcome", "algo", "output_fnv"}) {
    std::string sa, sb;
    ASSERT_TRUE(obs::json::get_str(a, key, sa)) << key;
    ASSERT_TRUE(obs::json::get_str(b, key, sb)) << key;
    EXPECT_EQ(sa, sb) << key;
  }
  std::string ta, tb;
  ASSERT_TRUE(obs::json::get_str(a, "transport", ta));
  ASSERT_TRUE(obs::json::get_str(b, "transport", tb));
  EXPECT_EQ(ta, "sim");
  EXPECT_EQ(tb, "shm");

  // Same agreement over sockets: only the transport label may move.
  const auto tcp_path = fresh_path("tcp.json");
  ASSERT_EQ(run_cli(with({"--transport=tcp", "--emit-run=" + tcp_path})), 2);
  const auto tcp_v = parse_run_file(tcp_path);
  const auto& c = tcp_v.object();
  for (const char* key : {"outcome", "algo", "output_fnv"}) {
    std::string sa, sc;
    ASSERT_TRUE(obs::json::get_str(a, key, sa)) << key;
    ASSERT_TRUE(obs::json::get_str(c, key, sc)) << key;
    EXPECT_EQ(sa, sc) << key;
  }
  std::string tc;
  ASSERT_TRUE(obs::json::get_str(c, "transport", tc));
  EXPECT_EQ(tc, "tcp");
}

}  // namespace
