// Host-observed deaths and their causes (docs/PROTOCOL.md §7, §11, §13.4).
//
// The parent of a process fleet records why it declared each node dead:
// kExit when the process ended without publishing (shm reaped it killed by
// a signal, tcp saw the host link of a child it forked EOF), kSilence when
// the heartbeat sweep fired or a pinned node's link ended, kBackstop when
// the parent had SIGKILLed it itself.  The simulator records the deaths its
// scripts model, so the three fabrics agree.  The supervisor treats only
// kExit as conclusive: a SIGKILLed node is retired after one attempt, while
// silence and backstop deaths keep the two-diagnosis path.

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <vector>

#include "fault/supervisor.h"
#include "sort/sft.h"
#include "transport/frame.h"
#include "transport/process.h"
#include "transport/tcp_transport.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

using transport::Backend;
using transport::DeathCause;

SftOptions on(Backend fabric, SftOptions o = {}) {
  o.backend = fabric;
  o.shm.recv_timeout_s = 5.0;
  o.shm.run_deadline_s = 60.0;
  o.tcp.recv_timeout_s = 5.0;
  o.tcp.run_deadline_s = 60.0;
  o.tcp.heartbeat_interval_s = 0.05;
  o.tcp.heartbeat_loss_s = 0.5;
  return o;
}

fault::NodeFaultMap kill_at(cube::NodeId node, fault::StagePoint at) {
  fault::NodeFaultMap faults;
  faults[node].halt_at = at;
  faults[node].kill_process = true;
  return faults;
}

fault::SupervisedRun supervise(int dim, std::span<const Key> input,
                               const SftOptions& base,
                               const fault::NodeFaultMap& faults,
                               bool transient,
                               const fault::RecoveryPolicy& policy = {}) {
  return fault::run_supervised_sort(
      dim, input, base, policy, nullptr, [&](int attempt) {
        return transient && attempt > 0 ? fault::NodeFaultMap{} : faults;
      });
}

TEST(DeathCause, PermanentKillRetiresAfterOneAttemptOnEveryFabric) {
  const int dim = 3;
  auto input = util::random_keys(1701, (std::size_t{1} << dim) * 2);
  const auto faults = kill_at(3, fault::StagePoint{1, 0});
  std::vector<std::vector<Death>> first_deaths;
  for (Backend fabric : {Backend::kSim, Backend::kShm, Backend::kTcp}) {
    SftOptions base = on(fabric);
    base.block = 2;
    const auto run = supervise(dim, input, base, faults, false);
    const char* name = transport::to_string(fabric);
    EXPECT_EQ(run.outcome, Outcome::kCorrect) << name;
    EXPECT_EQ(run.attempts, 2) << name;
    EXPECT_EQ(run.final_rung, fault::Rung::kSubcube) << name;
    EXPECT_EQ(run.retired, std::vector<cube::NodeId>{3}) << name;
    ASSERT_EQ(run.events.size(), 2u) << name;
    EXPECT_EQ(run.events[0].persistent, std::vector<cube::NodeId>{3}) << name;
    EXPECT_TRUE(run.events[1].deaths.empty()) << name;
    first_deaths.push_back(run.events[0].deaths);
  }
  const std::vector<Death> expect{{3, DeathCause::kExit}};
  for (const auto& d : first_deaths) EXPECT_EQ(d, expect);
}

TEST(DeathCause, TransientKillEndsCorrectInTwoAttempts) {
  const int dim = 3;
  auto input = util::random_keys(1702, (std::size_t{1} << dim) * 2);
  for (Backend fabric : {Backend::kSim, Backend::kTcp}) {
    SftOptions base = on(fabric);
    base.block = 2;
    const auto run =
        supervise(dim, input, base, kill_at(5, fault::StagePoint{2, 1}), true);
    EXPECT_EQ(run.outcome, Outcome::kCorrect);
    EXPECT_TRUE(run.recovered);
    EXPECT_EQ(run.attempts, 2);
    // The host cannot tell a transient crash from a permanent one; the
    // death it saw is proof enough to stop trusting the node.
    EXPECT_EQ(run.final_rung, fault::Rung::kSubcube);
  }
}

TEST(DeathCause, TransientHaltStillRollsBack) {
  // A graceful halt is not kernel-observed: no death, so the ladder resumes
  // from the last certified boundary and retires nobody.
  const int dim = 5;
  auto input = util::random_keys(1703, (std::size_t{1} << dim) * 8);
  SftOptions base;
  base.block = 8;
  fault::NodeFaultMap faults;
  faults[9].halt_at = fault::StagePoint{3, 0};
  const auto run = supervise(dim, input, base, faults, true);
  EXPECT_EQ(run.outcome, Outcome::kCorrect);
  EXPECT_EQ(run.attempts, 2);
  EXPECT_EQ(run.final_rung, fault::Rung::kRollback);
  EXPECT_TRUE(run.retired.empty());
  EXPECT_TRUE(run.events[0].deaths.empty());
}

TEST(DeathCause, FullRestartNeverCollapses) {
  const int dim = 3;
  auto input = util::random_keys(1704, (std::size_t{1} << dim) * 2);
  SftOptions base;
  base.block = 2;
  const auto run = supervise(dim, input, base,
                             kill_at(3, fault::StagePoint{1, 0}), false,
                             fault::RecoveryPolicy::full_restart(3));
  EXPECT_EQ(run.outcome, Outcome::kFailStop);
  EXPECT_EQ(run.attempts, 3);
  EXPECT_TRUE(run.retired.empty());
  for (const auto& ev : run.events) {
    EXPECT_NE(ev.rung, fault::Rung::kSubcube);
    EXPECT_EQ(ev.deaths, (std::vector<Death>{{3, DeathCause::kExit}}));
  }
}

TEST(DeathCause, SimWedgeIsSilenceAndKeepsTheTwoDiagnosisPath) {
  // The tcp half of this case is TcpWedge.SupervisorRetiresAWedgedNode.
  const int dim = 2;
  auto input = util::random_keys(2025, std::size_t{1} << dim);
  fault::NodeFaultMap faults;
  faults[1].halt_at = fault::StagePoint{1, 0};
  faults[1].wedge_process = true;
  const auto run = supervise(dim, input, SftOptions{}, faults, false);
  EXPECT_EQ(run.outcome, Outcome::kCorrect);
  EXPECT_EQ(run.attempts, 3) << "silence must not shorten the ladder";
  EXPECT_EQ(run.final_rung, fault::Rung::kSubcube);
  EXPECT_EQ(run.retired, std::vector<cube::NodeId>{1});
  for (int a = 0; a < 2; ++a)
    EXPECT_EQ(run.events[a].deaths,
              (std::vector<Death>{{1, DeathCause::kSilence}}));
}

TEST(DeathCause, WedgedPeerKilledAtTheGraceStaysSilence) {
  // await_exits SIGKILLs the SIGSTOPped child after the host link's sweep
  // already declared it dead; the later EOF must not rewrite the cause.
  const int dim = 3;
  SftOptions base = on(Backend::kTcp);
  base.node_faults[6].halt_at = fault::StagePoint{2, 0};
  base.node_faults[6].wedge_process = true;
  auto input = util::random_keys(1706, std::size_t{1} << dim);
  const SortRun run = run_sft(dim, input, base);
  EXPECT_EQ(run.deaths, (std::vector<Death>{{6, DeathCause::kSilence}}));
  EXPECT_EQ(classify(run, input), Outcome::kFailStop);
}

// Blocks node 1 at its first send until the parent's run deadline SIGKILLs
// the fleet.  Forked nodes only: the interceptor lives in the child.
class StallNode final : public sim::LinkInterceptor {
 public:
  bool on_send(cube::NodeId from, cube::NodeId, sim::Message&) override {
    if (from == 1)
      for (;;) ::pause();
    return true;
  }
};

TEST(DeathCause, RunDeadlineKillIsBackstopOnBothFabrics) {
  const int dim = 2;
  auto input = util::random_keys(1707, std::size_t{1} << dim);
  StallNode stall;
  for (Backend fabric : {Backend::kShm, Backend::kTcp}) {
    SftOptions o = on(fabric);
    o.interceptor = &stall;
    // Nothing but the deadline may end this run: no recv timeout, no
    // heartbeat sweep.
    o.shm.recv_timeout_s = o.tcp.recv_timeout_s = 60.0;
    o.shm.run_deadline_s = o.tcp.run_deadline_s = 0.5;
    o.tcp.heartbeat_loss_s = 0.0;
    const SortRun run = run_sft(dim, input, o);
    const char* name = transport::to_string(fabric);
    ASSERT_FALSE(run.deaths.empty()) << name;
    bool saw_stalled = false;
    for (const Death& d : run.deaths) {
      EXPECT_EQ(d.cause, DeathCause::kBackstop) << name << " node " << d.node;
      saw_stalled |= d.node == 1;
    }
    EXPECT_TRUE(saw_stalled) << name;
    EXPECT_EQ(classify(run, input), Outcome::kFailStop) << name;
  }
}

// Dials the host as `node`, HELLOs and flushes: a node that joined the
// rendezvous and will end without a FINISH.
transport::TcpConn hello_as(cube::NodeId node, std::uint16_t port) {
  transport::TcpConn c = transport::tcp_dial("127.0.0.1", port, 5.0);
  transport::WireHello hello;
  std::memcpy(hello.magic, transport::kTcpMagic, sizeof hello.magic);
  hello.role = static_cast<std::int32_t>(node);
  c.queue_frame(transport::FrameType::kHello, transport::as_bytes_of(hello));
  while (!c.flush()) {
    pollfd pf{c.fd(), POLLOUT, 0};
    ::poll(&pf, 1, 50);
  }
  return c;
}

TEST(DeathCause, TcpEofIsAnExitOnlyForTheParentsOwnChild) {
  // Node 0 is a child the host forked; node 1 stands for a pinned node the
  // operator launched elsewhere.  Both end without a FINISH.  Only node 0's
  // EOF is the host's sight of a process exit; node 1's may be a network
  // reset of a healthy node, so it is only silence.
  transport::TcpOptions opts;
  transport::TcpHostEndpoint host(1, opts);
  transport::ChildSet children(2, 60.0);
  children.spawn(0, [&] {
    hello_as(0, host.port());
    return 0;  // the connection closes as the child exits
  });
  host.set_host_poll([&] { children.poll(); }, &children);
  std::optional<transport::TcpConn> pinned = hello_as(1, host.port());
  host.rendezvous(5.0);
  pinned->close_fd();
  host.await_all();
  EXPECT_EQ(host.death(0), DeathCause::kExit);
  EXPECT_EQ(host.death(1), DeathCause::kSilence);
}

TEST(DeathCause, BackstopDeathsNeverShortenTheLadder) {
  // Every full-cube attempt ends at the deadline, so the ladder spends its
  // whole configuration budget on the full cube before it escalates.  The
  // escalation itself is not fixed: the fleet kill is one SIGKILL per node,
  // and a node that sees a killed peer's EOF before its own kill may report
  // it, which the supervisor weighs as an ordinary accusation.
  const int dim = 2;
  auto input = util::random_keys(1708, std::size_t{1} << dim);
  StallNode stall;
  SftOptions o = on(Backend::kTcp);
  o.tcp.recv_timeout_s = 60.0;
  o.tcp.run_deadline_s = 0.5;
  o.tcp.heartbeat_loss_s = 0.0;
  fault::RecoveryPolicy policy;
  policy.attempts_per_config = 2;
  const auto run = fault::run_supervised_sort(
      dim, input, o, policy, [&](int) { return &stall; });
  EXPECT_EQ(run.outcome, Outcome::kCorrect);
  ASSERT_GE(run.events.size(), 3u);
  for (int a = 0; a < 2; ++a) {
    EXPECT_NE(run.events[a].rung, fault::Rung::kSubcube);
    ASSERT_FALSE(run.events[a].deaths.empty());
    for (const Death& d : run.events[a].deaths)
      EXPECT_EQ(d.cause, DeathCause::kBackstop);
  }
}

}  // namespace
}  // namespace aoft::sort
