// The parent side of the process fleets: transport::ChildSet reaps children
// by waiting on their pidfds, enforces the run deadline, and on destruction
// kills and reaps whatever is left — so every path out of a sort fleet,
// exceptions included, ends with no child process and no descriptor leaked.
// Assertions are on verdicts (wait statuses, ECHILD, descriptor counts),
// never on timing.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sort/sft.h"
#include "transport/process.h"
#include "transport/shm_segment.h"
#include "transport/tcp_transport.h"
#include "util/rng.h"

namespace aoft::transport {
namespace {

int open_fd_count() {
  int n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

// No child of this process is left, running or zombie.
void expect_no_children() {
  int st = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &st, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

struct Reaped {
  std::size_t slot;
  int wstatus;
};

// Drive the set the way the fleet managers do: reap, then sleep on the
// pidfds.  The generous bound only turns a bug into a failure, not a hang.
std::vector<Reaped> reap_all(ChildSet& kids) {
  std::vector<Reaped> got;
  const auto give_up = ChildSet::Clock::now() + std::chrono::seconds(60);
  for (;;) {
    kids.poll([&got](std::size_t slot, int wstatus) {
      got.push_back({slot, wstatus});
    });
    if (kids.all_reaped() || ChildSet::Clock::now() >= give_up) return got;
    kids.wait(give_up);
  }
}

TEST(ChildSet, ExitedChildIsReapedWithItsStatusAndNotKilled) {
  const int fds = open_fd_count();
  {
    ChildSet kids(1, 60.0);
    kids.spawn(0, []() -> int { _exit(3); });
    const auto got = reap_all(kids);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].slot, 0u);
    ASSERT_TRUE(WIFEXITED(got[0].wstatus));
    EXPECT_EQ(WEXITSTATUS(got[0].wstatus), 3);
  }
  expect_no_children();
  EXPECT_EQ(open_fd_count(), fds);
}

TEST(ChildSet, StoppedChildIsSigkilledAtTheRunDeadline) {
  const int fds = open_fd_count();
  {
    ChildSet kids(1, 0.2);
    kids.spawn(0, [] {
      raise(SIGSTOP);
      return 0;
    });
    const auto got = reap_all(kids);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_TRUE(WIFSIGNALED(got[0].wstatus));
    EXPECT_EQ(WTERMSIG(got[0].wstatus), SIGKILL);
  }
  expect_no_children();
  EXPECT_EQ(open_fd_count(), fds);
}

TEST(ChildSet, ChildDeadBeforeTheFirstWaitIsStillReaped) {
  const int fds = open_fd_count();
  {
    ChildSet kids(2, 60.0);
    const pid_t pid = kids.spawn(1, [] { return 0; });
    // Block until the child is a zombie without reaping it: its pidfd was
    // readable before the parent ever waited on it.
    siginfo_t si{};
    ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(pid), &si, WEXITED | WNOWAIT),
              0);
    const auto got = reap_all(kids);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].slot, 1u);
    ASSERT_TRUE(WIFEXITED(got[0].wstatus));
    EXPECT_EQ(WEXITSTATUS(got[0].wstatus), 0);
  }
  expect_no_children();
  EXPECT_EQ(open_fd_count(), fds);
}

TEST(ChildSet, DestructorKillsAndReapsLiveChildren) {
  const int fds = open_fd_count();
  {
    ChildSet kids(3, 60.0);
    for (std::size_t p = 0; p < 3; ++p)
      kids.spawn(p, [] {
        for (;;) pause();
        return 0;
      });
    EXPECT_FALSE(kids.all_reaped());
  }
  expect_no_children();
  EXPECT_EQ(open_fd_count(), fds);
}

TEST(ChildSet, TcpParentKillsAStoppedChildAfterTheGrace) {
  const int fds = open_fd_count();
  {
    TcpParent par(1, 60.0);
    par.spawn_fork(
        [](cube::NodeId) {
          raise(SIGSTOP);
          return 0;
        },
        {});
    par.await_exits();
    EXPECT_TRUE(par.children().all_reaped());
  }
  expect_no_children();
  EXPECT_EQ(open_fd_count(), fds);
}

// A throw between spawn and reap — here the rendezvous timing out because
// node 0 is pinned to a machine that never dials in — must still leave no
// child (running or zombie) and no descriptor behind.
TEST(FleetCleanup, TcpRendezvousTimeoutLeaksNoChildOrFd) {
  const std::string hosts = ::testing::TempDir() + "aoft_leak_hosts_" +
                            std::to_string(::getpid());
  std::ofstream(hosts) << "0 127.0.0.1\n";
  sort::SftOptions o;
  o.block = 2;
  o.backend = Backend::kTcp;
  o.tcp.hosts_file = hosts;
  o.tcp.run_deadline_s = 1.0;
  const auto input = util::random_keys(14, 4 * o.block);

  const int fds = open_fd_count();
  EXPECT_THROW(sort::run_sft(2, input, o), std::runtime_error);
  expect_no_children();
  EXPECT_EQ(open_fd_count(), fds);
  std::filesystem::remove(hosts);
}

TEST(FleetCleanup, ShmParentDestructorReapsLiveChildren) {
  ShmSegment::Config cfg;
  cfg.dim = 2;
  cfg.block = 1;
  auto seg = ShmSegment::create(cfg);
  const int fds = open_fd_count();
  {
    ShmParent par(seg);
    par.spawn_fork([](cube::NodeId) {
      for (;;) pause();
      return 0;
    });
    EXPECT_FALSE(par.all_reaped());
  }
  expect_no_children();
  EXPECT_EQ(open_fd_count(), fds);
}

}  // namespace
}  // namespace aoft::transport
