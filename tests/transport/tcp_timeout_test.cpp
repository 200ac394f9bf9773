// Timeout-based peer-death detection (docs/PROTOCOL.md §13.4).  PeerWatch is
// a pure state machine over caller-supplied time points, so the unit tests
// here drive every transition with a fake clock — no sleeps, no sockets.
// The one integration case at the bottom wedges a real node process with
// SIGSTOP mid-protocol: it neither speaks nor exits, which is exactly the
// failure mode waitpid-based detection cannot see and the heartbeat
// watchdog exists for (Environmental Assumption 4 over real sockets).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <tuple>
#include <vector>

#include "fault/supervisor.h"
#include "sort/sft.h"
#include "transport/peer_watch.h"
#include "util/rng.h"

namespace aoft::transport {
namespace {

using Time = PeerWatch::Time;
using std::chrono::milliseconds;

Time t0() { return Time{} + std::chrono::hours(1); }

TEST(PeerWatch, ConnectRunsAndSilenceKills) {
  PeerWatch w(2, /*heartbeat_loss_s=*/1.0);
  EXPECT_EQ(w.state(0), SlotState::kIdle);
  w.mark_up(0, t0());
  w.mark_up(1, t0());
  EXPECT_EQ(w.state(0), SlotState::kRunning);
  // First beats arm the silence rule for both peers.
  w.note_activity(0, t0());
  w.note_activity(1, t0());

  // Heartbeats keep peer 0 alive; peer 1 goes silent.
  EXPECT_FALSE(w.sweep(t0() + milliseconds(900)));
  w.note_activity(0, t0() + milliseconds(900));
  EXPECT_TRUE(w.sweep(t0() + milliseconds(1500)));
  EXPECT_EQ(w.state(0), SlotState::kRunning);
  EXPECT_EQ(w.state(1), SlotState::kDead);
  EXPECT_TRUE(w.terminal(1));
  EXPECT_FALSE(w.all_terminal());
}

TEST(PeerWatch, SetupSilenceNeverKillsAnUnheardPeer) {
  PeerWatch w(1, /*heartbeat_loss_s=*/1.0);
  // Connected (HELLO taken / mesh built) but never heard from since: the
  // peer is rightfully quiet through CONFIG transfer and its own mesh —
  // minutes, under the --hosts manual-launch workflow.  Only EOF or the
  // run-deadline backstop may kill it here, never the silence sweep.
  w.mark_up(0, t0());
  EXPECT_FALSE(w.sweep(t0() + std::chrono::hours(1)));
  EXPECT_EQ(w.state(0), SlotState::kRunning);
  EXPECT_EQ(w.next_deadline(), Time::max())
      << "an un-armed peer must not contribute a sweep deadline";
  // The first post-mesh heartbeat arms the rule; silence counts from there.
  const Time armed = t0() + std::chrono::hours(1);
  w.note_activity(0, armed);
  EXPECT_EQ(w.next_deadline(), armed + milliseconds(1000));
  EXPECT_FALSE(w.sweep(armed + milliseconds(900)));
  EXPECT_TRUE(w.sweep(armed + milliseconds(1500)));
  EXPECT_EQ(w.state(0), SlotState::kDead);
}

TEST(PeerWatch, SetLossRescalesTheSilenceBound) {
  PeerWatch w(1, /*heartbeat_loss_s=*/1.0);
  w.mark_up(0, t0());
  w.note_activity(0, t0());
  // broadcast_config grows the bound with the block so a long compute
  // burst (which sends no beats) is not read as death.
  w.set_loss(10.0);
  EXPECT_FALSE(w.sweep(t0() + milliseconds(5000)));
  EXPECT_EQ(w.state(0), SlotState::kRunning);
  EXPECT_EQ(w.next_deadline(), t0() + milliseconds(10000));
  EXPECT_TRUE(w.sweep(t0() + milliseconds(10001)));
  EXPECT_EQ(w.state(0), SlotState::kDead);
}

TEST(PeerWatch, FinishBeatsTheWatchdog) {
  PeerWatch w(1, 1.0);
  w.mark_up(0, t0());
  w.note_activity(0, t0());
  EXPECT_TRUE(w.sweep(t0() + milliseconds(2000)));
  EXPECT_EQ(w.state(0), SlotState::kDead);
  // A FINISH already in flight when the sweep fired upgrades the verdict:
  // results beat timeouts.
  w.mark_finished(0, SlotState::kDone);
  EXPECT_EQ(w.state(0), SlotState::kDone);
  // ... and the upgrade is sticky against later EOF/sweeps.
  w.mark_dead(0, DeathCause::kExit);
  EXPECT_FALSE(w.sweep(t0() + std::chrono::hours(2)))
      << "a terminal peer is no longer subject to the silence rule";
  EXPECT_EQ(w.state(0), SlotState::kDone);
  EXPECT_TRUE(w.all_terminal());
}

TEST(PeerWatch, EofKillsWithoutWaitingForTheDeadline) {
  PeerWatch w(1, 60.0);
  w.mark_up(0, t0());
  // Connection EOF: the kernel FINs a SIGKILLed process.
  w.mark_dead(0, DeathCause::kExit);
  EXPECT_EQ(w.state(0), SlotState::kDead);
  EXPECT_EQ(w.death(0), DeathCause::kExit);
  EXPECT_TRUE(w.all_terminal());
}

TEST(PeerWatch, FirstDeathVerdictWins) {
  PeerWatch w(2, 1.0);
  for (int p = 0; p < 2; ++p) {
    w.mark_up(p, t0());
    w.note_activity(p, t0());
  }
  EXPECT_EQ(w.death(0), std::nullopt) << "a running peer has no death";
  // Peer 0 goes silent first; the EOF that follows (e.g. the parent's grace
  // kill of a wedged process) must not rewrite the cause.
  w.note_activity(1, t0() + milliseconds(900));
  EXPECT_TRUE(w.sweep(t0() + milliseconds(1500)));
  EXPECT_EQ(w.death(0), DeathCause::kSilence);
  w.mark_dead(0, DeathCause::kBackstop);
  EXPECT_EQ(w.death(0), DeathCause::kSilence);
  // Peer 1's EOF lands first; a later sweep cannot turn it into silence.
  w.mark_dead(1, DeathCause::kExit);
  EXPECT_FALSE(w.sweep(t0() + std::chrono::hours(1)));
  EXPECT_EQ(w.death(1), DeathCause::kExit);
  // A FINISH in flight when the sweep fired clears the death altogether.
  w.mark_finished(0, SlotState::kDone);
  EXPECT_EQ(w.death(0), std::nullopt);
}

TEST(PeerWatch, DisabledSilenceRuleNeverSweeps) {
  PeerWatch w(1, /*heartbeat_loss_s=*/0.0);
  w.mark_up(0, t0());
  w.note_activity(0, t0());  // armed, but the rule itself is off
  EXPECT_FALSE(w.sweep(t0() + std::chrono::hours(24)));
  EXPECT_EQ(w.state(0), SlotState::kRunning);
  EXPECT_EQ(w.next_deadline(), Time::max());
  w.mark_dead(0, DeathCause::kExit);  // EOF still applies
  EXPECT_EQ(w.state(0), SlotState::kDead);
}

TEST(PeerWatch, NextDeadlineTracksTheQuietestRunningPeer) {
  PeerWatch w(3, 1.0);
  w.mark_up(0, t0());
  w.note_activity(0, t0());
  w.mark_up(1, t0() + milliseconds(500));
  w.note_activity(1, t0() + milliseconds(500));
  // Peer 2 stays kIdle: never subject to the silence rule.
  EXPECT_EQ(w.next_deadline(), t0() + milliseconds(1000));
  w.note_activity(0, t0() + milliseconds(800));
  EXPECT_EQ(w.next_deadline(), t0() + milliseconds(1500));
  w.mark_finished(0, SlotState::kDone);
  w.mark_finished(1, SlotState::kFailed);
  EXPECT_EQ(w.next_deadline(), Time::max());
}

TEST(PeerWatch, IdlePeersAreNeitherSweptNorTerminal) {
  PeerWatch w(2, 0.5);
  w.mark_up(0, t0());
  w.note_activity(0, t0());
  EXPECT_FALSE(w.sweep(t0() + milliseconds(100)));
  EXPECT_TRUE(w.sweep(t0() + milliseconds(10000)));
  EXPECT_EQ(w.state(0), SlotState::kDead);
  EXPECT_EQ(w.state(1), SlotState::kIdle) << "never-connected peer untouched";
  EXPECT_FALSE(w.all_terminal());
}

// ---- the wedged-peer integration case --------------------------------------

std::vector<std::tuple<cube::NodeId, int, int, int>> error_keys(
    const sort::SortRun& run) {
  std::vector<std::tuple<cube::NodeId, int, int, int>> keys;
  for (const auto& e : run.errors)
    keys.emplace_back(e.node, e.stage, e.iter, static_cast<int>(e.source));
  std::sort(keys.begin(), keys.end());
  return keys;
}

sort::SftOptions tcp_opts(const sort::SftOptions& base) {
  sort::SftOptions o = base;
  o.backend = Backend::kTcp;
  o.tcp.recv_timeout_s = 5.0;
  o.tcp.run_deadline_s = 60.0;
  o.tcp.heartbeat_interval_s = 0.05;
  o.tcp.heartbeat_loss_s = 0.5;
  return o;
}

fault::NodeFaultMap wedge_fault(cube::NodeId node, fault::StagePoint at) {
  fault::NodeFaultMap faults;
  faults[node].halt_at = at;
  faults[node].wedge_process = true;
  return faults;
}

TEST(TcpWedge, SigstoppedNodeMatchesTheSimulatorsVerdict) {
  const int dim = 3;
  sort::SftOptions base;
  base.node_faults = wedge_fault(2, fault::StagePoint{1, 0});
  auto input = util::random_keys(808, std::size_t{1} << dim);

  // The simulator degrades a wedge to a graceful halt; over tcp the node
  // really SIGSTOPs and only the heartbeat watchdog can declare it dead.
  // Verdicts must agree; the output image is not compared (the wedged node
  // never publishes its block, like a SIGKILLed one).
  auto sim_run = sort::run_sft(dim, input, base);
  auto tcp_run = sort::run_sft(dim, input, tcp_opts(base));
  ASSERT_FALSE(sim_run.errors.empty()) << "the wedge script must be reached";
  EXPECT_EQ(error_keys(tcp_run), error_keys(sim_run));
  EXPECT_EQ(sort::classify(tcp_run, input), sort::classify(sim_run, input));
  EXPECT_EQ(sort::classify(tcp_run, input), sort::Outcome::kFailStop);
}

TEST(TcpWedge, SupervisorRetiresAWedgedNode) {
  const int dim = 2;
  sort::SftOptions base = tcp_opts({});
  auto input = util::random_keys(2025, std::size_t{1} << dim);

  // Persistent wedge: every full-cube attempt loses the node again, so the
  // ladder must retire it into the subcube rung — the same terminal state a
  // SIGKILLed shm child reaches, which is the tentpole equivalence.
  const auto faults = wedge_fault(1, fault::StagePoint{1, 0});
  const auto run = fault::run_supervised_sort(
      dim, input, base, fault::RecoveryPolicy{},
      [](int) -> sim::LinkInterceptor* { return nullptr; },
      [&](int) -> fault::NodeFaultMap { return faults; });
  EXPECT_EQ(run.outcome, sort::Outcome::kCorrect);
  EXPECT_TRUE(run.recovered);
  ASSERT_FALSE(run.retired.empty());
  EXPECT_EQ(run.retired.front(), 1u);
  // Heartbeat loss is suspicion, not proof: unlike a kExit death it waits
  // for a second conclusive diagnosis (DeathCause.SimWedge... is the sim
  // half of this case).
  EXPECT_EQ(run.attempts, 3);
  EXPECT_EQ(run.final_rung, fault::Rung::kSubcube);
  for (int a = 0; a < 2; ++a)
    EXPECT_EQ(run.events[a].deaths,
              (std::vector<sort::Death>{{1, DeathCause::kSilence}}));
}

}  // namespace
}  // namespace aoft::transport
