#include "sim/machine.h"

#include <gtest/gtest.h>

#include "sim/remote.h"

namespace aoft::sim {
namespace {

// Each node sends its id to every neighbor and sums what it hears back.
TEST(MachineTest, NeighborExchange) {
  Machine machine(cube::Topology{3}, CostModel{});
  std::vector<long> sums(8, 0);
  machine.run([&sums](Ctx& ctx) -> SimTask {
    for (int k = 0; k < ctx.dim(); ++k) {
      Message m;
      m.kind = MsgKind::kApp;
      m.data = {static_cast<Key>(ctx.id())};
      ctx.send(ctx.topo().neighbor(ctx.id(), k), std::move(m));
    }
    for (int k = 0; k < ctx.dim(); ++k) {
      auto r = co_await ctx.recv(ctx.topo().neighbor(ctx.id(), k));
      EXPECT_TRUE(r.ok);
      ctx.account_recv(r.msg);
      sums[ctx.id()] += static_cast<long>(r.msg.data.at(0));
    }
  });
  for (cube::NodeId p = 0; p < 8; ++p) {
    long expect = 0;
    for (int k = 0; k < 3; ++k) expect += static_cast<long>(p ^ (1u << k));
    EXPECT_EQ(sums[p], expect);
  }
  EXPECT_TRUE(machine.errors().empty());
  EXPECT_EQ(machine.summary().watchdog_rounds, 0);
}

// Machine::run may be called once: reusing the machine would replay against
// consumed channels and dirty scheduler state, so it must hard-fail.
TEST(MachineTest, SecondRunThrows) {
  Machine machine(cube::Topology{2}, CostModel{});
  auto noop = [](Ctx&) -> SimTask { co_return; };
  machine.run(noop);
  EXPECT_THROW(machine.run(noop), std::logic_error);
}

// A rejected second run leaves the first run's results readable.
TEST(MachineTest, FailedRerunLeavesResultsReadable) {
  Machine machine(cube::Topology{1}, CostModel{});
  auto flag_node1 = [](Ctx& ctx) -> SimTask {
    if (ctx.id() == 1) ctx.error({0, 0, -1, ErrorSource::kApp, "first run"});
    co_return;
  };
  machine.run(flag_node1);
  EXPECT_THROW(machine.run(flag_node1), std::logic_error);
  ASSERT_EQ(machine.errors().size(), 1u);
  EXPECT_EQ(machine.errors().front().node, 1u);
}

// A link with nothing to deliver and no peer left to wait for.
class SilentLink final : public RemoteLink {
 public:
  void send_node(cube::NodeId, cube::NodeId, const Message&,
                 std::span<const Key>,
                 std::optional<cube::MaskCover>) override {}
  void send_host(cube::NodeId, const Message&, std::span<const Key>) override {}
  void send_from_host(cube::NodeId, const Message&,
                      std::span<const Key>) override {}
  std::size_t pump(KeyPool&, const Deliver&) override { return 0; }
  bool wait_activity(std::span<const cube::NodeId>) override { return false; }
};

// With a remote link attached, run() drives only the local endpoint: the
// node given to attach_remote, or the host.
TEST(MachineTest, RemoteRunDrivesOnlyTheLocalEndpoint) {
  SilentLink link;
  std::vector<cube::NodeId> ran;
  bool host_ran = false;
  const NodeMain node = [&ran](Ctx& ctx) -> SimTask {
    ran.push_back(ctx.id());
    co_return;
  };
  const HostMain host = [&host_ran](HostCtx&) -> SimTask {
    host_ran = true;
    co_return;
  };

  Machine machine(cube::Topology{2}, CostModel{});
  machine.attach_remote(&link, 2);
  machine.run(node, host);
  EXPECT_EQ(ran, std::vector<cube::NodeId>{2});
  EXPECT_FALSE(host_ran);

  ran.clear();
  machine.reset();
  machine.attach_remote(&link, -1);
  machine.run({}, host);
  EXPECT_TRUE(ran.empty());
  EXPECT_TRUE(host_ran);
}

TEST(MachineTest, SendChargesSenderByMessageSize) {
  CostModel cm;
  cm.alpha_send = 10.0;
  cm.beta = 2.0;
  Machine machine(cube::Topology{1}, cm);
  machine.run([](Ctx& ctx) -> SimTask {
    if (ctx.id() == 0) {
      Message m;
      m.data = {1, 2, 3};  // 3 words
      ctx.send(1, std::move(m));
    } else {
      auto r = co_await ctx.recv(0);
      EXPECT_TRUE(r.ok);
      ctx.account_recv(r.msg);
    }
  });
  EXPECT_DOUBLE_EQ(machine.node_stats(0).comm_ticks, 10.0 + 3 * 2.0);
  EXPECT_EQ(machine.node_stats(0).msgs_sent, 1u);
  EXPECT_EQ(machine.node_stats(0).words_sent, 3u);
}

TEST(MachineTest, ReceiverClockAdvancesToArrival) {
  CostModel cm;
  cm.alpha_send = 5.0;
  cm.beta = 0.0;
  cm.alpha_recv = 2.0;
  Machine machine(cube::Topology{1}, cm);
  machine.run([](Ctx& ctx) -> SimTask {
    if (ctx.id() == 0) {
      ctx.charge(100.0);  // sender is far ahead in logical time
      ctx.send(1, Message{});
    } else {
      auto r = co_await ctx.recv(0);
      EXPECT_TRUE(r.ok);
      ctx.account_recv(r.msg);
    }
    co_return;
  });
  // Receiver: max(0, 100 + 5) + 2.
  EXPECT_DOUBLE_EQ(machine.node_stats(1).clock, 107.0);
}

TEST(MachineTest, ChargeAccumulatesComputeTicks) {
  Machine machine(cube::Topology{0}, CostModel{});
  machine.run([](Ctx& ctx) -> SimTask {
    ctx.charge(1.5);
    ctx.charge(2.5);
    co_return;
  });
  EXPECT_DOUBLE_EQ(machine.node_stats(0).comp_ticks, 4.0);
  EXPECT_DOUBLE_EQ(machine.node_stats(0).clock, 4.0);
}

TEST(MachineTest, HostGatherScatterRoundTrip) {
  Machine machine(cube::Topology{2}, CostModel{});
  std::vector<Key> got(4, -1);
  machine.run(
      [&got](Ctx& ctx) -> SimTask {
        Message up;
        up.kind = MsgKind::kHostGather;
        up.data = {static_cast<Key>(ctx.id() * 10)};
        ctx.send_host(std::move(up));
        auto r = co_await ctx.recv_host();
        EXPECT_TRUE(r.ok);
        ctx.account_recv(r.msg);
        got[ctx.id()] = r.msg.data.at(0);
      },
      [](HostCtx& host) -> SimTask {
        std::vector<Key> vals(4, 0);
        for (int i = 0; i < 4; ++i) {
          auto r = co_await host.recv();
          EXPECT_TRUE(r.ok);
          host.account_recv(r.msg);
          vals[r.msg.from] = r.msg.data.at(0);
        }
        for (cube::NodeId p = 0; p < 4; ++p) {
          Message down;
          down.kind = MsgKind::kHostScatter;
          down.data = {vals[p] + 1};
          host.send(p, std::move(down));
        }
      });
  EXPECT_EQ(got, (std::vector<Key>{1, 11, 21, 31}));
}

TEST(MachineTest, HostPaysSerialPerWordCost) {
  CostModel cm;
  cm.host_alpha = 1.0;
  cm.host_beta = 7.0;
  Machine machine(cube::Topology{1}, cm);
  machine.run(
      [](Ctx& ctx) -> SimTask {
        Message up;
        up.kind = MsgKind::kHostGather;
        up.data = {1, 2};  // 2 words
        ctx.send_host(std::move(up));
        co_return;
      },
      [](HostCtx& host) -> SimTask {
        for (int i = 0; i < 2; ++i) {
          auto r = co_await host.recv();
          EXPECT_TRUE(r.ok);
          host.account_recv(r.msg);
        }
      });
  EXPECT_DOUBLE_EQ(machine.host_stats().comm_ticks, 2 * (1.0 + 2 * 7.0));
}

// Dropping interceptor: the receiver's watchdog fires and the node reports.
struct DropAll : LinkInterceptor {
  bool on_send(cube::NodeId, cube::NodeId, Message&) override { return false; }
};

TEST(MachineTest, DroppedMessageIsDetectedAsAbsence) {
  DropAll drop;
  Machine machine(cube::Topology{1}, CostModel{});
  machine.set_interceptor(&drop);
  machine.run([](Ctx& ctx) -> SimTask {
    if (ctx.id() == 0) {
      ctx.send(1, Message{});
    } else {
      auto r = co_await ctx.recv(0);
      if (!r.ok)
        ctx.error({0, 0, 0, ErrorSource::kTimeout, "absent"});
    }
    co_return;
  });
  ASSERT_EQ(machine.errors().size(), 1u);
  EXPECT_EQ(machine.errors()[0].node, 1u);
  EXPECT_EQ(machine.errors()[0].source, ErrorSource::kTimeout);
  EXPECT_TRUE(machine.failed_stop());
  EXPECT_GE(machine.summary().watchdog_rounds, 1);
}

// Mutating interceptor: payload is changed in flight.
struct AddOne : LinkInterceptor {
  bool on_send(cube::NodeId, cube::NodeId, Message& m) override {
    for (auto& k : m.data) k += 1;
    return true;
  }
};

TEST(MachineTest, InterceptorCanMutatePayload) {
  AddOne bump;
  Machine machine(cube::Topology{1}, CostModel{});
  machine.set_interceptor(&bump);
  std::vector<Key> got(2, 0);
  machine.run([&got](Ctx& ctx) -> SimTask {
    if (ctx.id() == 0) {
      Message m;
      m.data = {41};
      ctx.send(1, std::move(m));
    } else {
      auto r = co_await ctx.recv(0);
      EXPECT_TRUE(r.ok);
      got[1] = r.msg.data.at(0);
    }
    co_return;
  });
  EXPECT_EQ(got[1], 42);
}

// Host-link traffic must flow through the same recording path as node-node
// traffic: a gather/scatter round shows up in link_events() with the host
// flags set.  (Regression: send_host/HostCtx::send used to push straight into
// the channels, so the event log silently missed every host message.)
TEST(MachineTest, HostLinkEventsAreRecorded) {
  Machine machine(cube::Topology{1}, CostModel{});
  machine.record_link_events(true);
  machine.run(
      [](Ctx& ctx) -> SimTask {
        Message up;
        up.kind = MsgKind::kHostGather;
        up.data = {static_cast<Key>(ctx.id()), 0, 0};  // 3 words
        ctx.send_host(std::move(up));
        auto r = co_await ctx.recv_host();
        EXPECT_TRUE(r.ok);
      },
      [](HostCtx& host) -> SimTask {
        for (int i = 0; i < 2; ++i) {
          auto r = co_await host.recv();
          EXPECT_TRUE(r.ok);
          host.account_recv(r.msg);
        }
        for (cube::NodeId p = 0; p < 2; ++p) {
          Message down;
          down.kind = MsgKind::kHostScatter;
          down.data = {7};
          host.send(p, std::move(down));
        }
      });
  std::size_t uploads = 0, downloads = 0;
  for (const auto& e : machine.link_events()) {
    EXPECT_TRUE(e.delivered);  // host links never drop
    if (e.to_host) {
      ++uploads;
      EXPECT_EQ(e.kind, MsgKind::kHostGather);
      EXPECT_EQ(e.words, 3u);
    }
    if (e.from_host) {
      ++downloads;
      EXPECT_EQ(e.kind, MsgKind::kHostScatter);
      EXPECT_EQ(e.words, 1u);
    }
    EXPECT_FALSE(e.to_host && e.from_host);
  }
  EXPECT_EQ(uploads, 2u);
  EXPECT_EQ(downloads, 2u);
}

// The "links join neighbors only" invariant must hold in every build mode:
// a protocol bug that picks a non-adjacent partner has to fail loudly, not
// silently corrupt a release-mode campaign.
TEST(MachineTest, SendToNonNeighborThrows) {
  Machine machine(cube::Topology{2}, CostModel{});
  EXPECT_THROW(machine.run([](Ctx& ctx) -> SimTask {
                 if (ctx.id() == 0) ctx.send(3, Message{});  // 0 and 3 differ in 2 bits
                 co_return;
               }),
               std::logic_error);
  EXPECT_TRUE(machine.ran());  // consumed: a re-run must still be refused
}

TEST(MachineTest, RecvFromNonNeighborThrows) {
  Machine machine(cube::Topology{2}, CostModel{});
  EXPECT_THROW(machine.run([](Ctx& ctx) -> SimTask {
                 if (ctx.id() == 0) {
                   auto r = co_await ctx.recv(3);
                   (void)r;
                 }
                 co_return;
               }),
               std::logic_error);
}

TEST(MachineTest, LinkEventsRecordTraffic) {
  Machine machine(cube::Topology{1}, CostModel{});
  machine.record_link_events(true);
  machine.run([](Ctx& ctx) -> SimTask {
    if (ctx.id() == 0) {
      Message m;
      m.stage = 2;
      m.iter = 1;
      m.data = {1, 2, 3};
      ctx.send(1, std::move(m));
    } else {
      auto r = co_await ctx.recv(0);
      (void)r;
    }
    co_return;
  });
  ASSERT_EQ(machine.link_events().size(), 1u);
  const auto& e = machine.link_events()[0];
  EXPECT_EQ(e.from, 0u);
  EXPECT_EQ(e.to, 1u);
  EXPECT_EQ(e.stage, 2);
  EXPECT_EQ(e.iter, 1);
  EXPECT_EQ(e.words, 3u);
  EXPECT_TRUE(e.delivered);
}

TEST(MachineTest, SummaryAggregates) {
  Machine machine(cube::Topology{2}, CostModel{});
  machine.run([](Ctx& ctx) -> SimTask {
    ctx.charge(static_cast<double>(ctx.id()));
    co_return;
  });
  const auto s = machine.summary();
  EXPECT_DOUBLE_EQ(s.max_comp, 3.0);
  EXPECT_DOUBLE_EQ(s.elapsed, 3.0);
  EXPECT_EQ(s.total_msgs, 0u);
}

TEST(MachineTest, RunTwiceIsAnError) {
  Machine machine(cube::Topology{0}, CostModel{});
  auto noop = [](Ctx&) -> SimTask { co_return; };
  machine.run(noop);
  EXPECT_THROW(machine.run(noop), std::logic_error);
}

TEST(MachineTest, ErrorNotifiesHostInbox) {
  Machine machine(cube::Topology{0}, CostModel{});
  int host_heard = 0;
  machine.run(
      [](Ctx& ctx) -> SimTask {
        ctx.error({0, 3, 1, ErrorSource::kPhiP, "test"});
        co_return;
      },
      [&host_heard](HostCtx& host) -> SimTask {
        auto r = co_await host.recv();
        if (r.ok && r.msg.kind == MsgKind::kHostError) ++host_heard;
      });
  EXPECT_EQ(host_heard, 1);
  ASSERT_EQ(machine.errors().size(), 1u);
  EXPECT_EQ(machine.errors()[0].stage, 3);
}

// --- reuse contract ----------------------------------------------------------
// Machine::reset() re-arms the single-shot run() and must leave the machine
// observably identical to a freshly constructed one: same summary, same
// errors, same link-event log on the next run.

// A small program with real traffic, errors and charges, so reset has
// something nontrivial to clear.
SimTask ping_ring(Ctx& ctx) {
  Message m;
  m.kind = MsgKind::kApp;
  m.stage = 1;
  m.data = {static_cast<Key>(ctx.id()), 42};
  ctx.send(ctx.topo().neighbor(ctx.id(), 0), std::move(m));
  auto r = co_await ctx.recv(ctx.topo().neighbor(ctx.id(), 0));
  EXPECT_TRUE(r.ok);
  ctx.account_recv(r.msg);
  ctx.charge(static_cast<double>(ctx.id()) + 1.0);
  if (ctx.id() == 2) ctx.error({2, 1, 0, ErrorSource::kPhiP, "synthetic"});
}

TEST(MachineTest, ResetReArmsRun) {
  Machine machine(cube::Topology{2}, CostModel{});
  machine.run(ping_ring);
  EXPECT_TRUE(machine.ran());
  machine.reset();
  EXPECT_FALSE(machine.ran());
  machine.run(ping_ring);  // must not throw
  EXPECT_TRUE(machine.ran());
}

TEST(MachineTest, ResetMachineRunsIdenticallyToFresh) {
  Machine fresh(cube::Topology{2}, CostModel{});
  fresh.record_link_events(true);
  fresh.run(ping_ring);

  Machine reused(cube::Topology{2}, CostModel{});
  reused.run(ping_ring);  // dirty it first (events off: reset must restore)
  reused.reset();
  reused.record_link_events(true);
  reused.run(ping_ring);

  EXPECT_DOUBLE_EQ(reused.summary().elapsed, fresh.summary().elapsed);
  EXPECT_DOUBLE_EQ(reused.summary().max_comm, fresh.summary().max_comm);
  EXPECT_DOUBLE_EQ(reused.summary().max_comp, fresh.summary().max_comp);
  EXPECT_EQ(reused.summary().total_msgs, fresh.summary().total_msgs);
  EXPECT_EQ(reused.summary().total_words, fresh.summary().total_words);
  EXPECT_EQ(reused.summary().watchdog_rounds, fresh.summary().watchdog_rounds);

  ASSERT_EQ(reused.errors().size(), fresh.errors().size());
  for (std::size_t i = 0; i < fresh.errors().size(); ++i) {
    EXPECT_EQ(reused.errors()[i].node, fresh.errors()[i].node);
    EXPECT_EQ(reused.errors()[i].stage, fresh.errors()[i].stage);
    EXPECT_EQ(reused.errors()[i].source, fresh.errors()[i].source);
  }

  ASSERT_EQ(reused.link_events().size(), fresh.link_events().size());
  for (std::size_t i = 0; i < fresh.link_events().size(); ++i) {
    const auto& a = reused.link_events()[i];
    const auto& b = fresh.link_events()[i];
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.stage, b.stage);
    EXPECT_EQ(a.words, b.words);
    EXPECT_EQ(a.delivered, b.delivered);
  }
}

TEST(MachineTest, ResetClearsInterceptorAndEventLog) {
  Machine machine(cube::Topology{1}, CostModel{});
  machine.record_link_events(true);
  machine.run(ping_ring);
  EXPECT_FALSE(machine.link_events().empty());
  machine.reset();
  EXPECT_TRUE(machine.link_events().empty());
  EXPECT_TRUE(machine.errors().empty());
  // Event recording is off again (fresh-machine default): a run after reset
  // records nothing unless re-enabled.
  machine.run(ping_ring);
  EXPECT_TRUE(machine.link_events().empty());
}

TEST(MachineTest, ResetCanSwapCostModel) {
  CostModel expensive;
  expensive.alpha_send = 100.0;
  Machine machine(cube::Topology{1}, CostModel{});
  machine.run(ping_ring);
  const double cheap_comm = machine.summary().max_comm;
  machine.reset(expensive);
  machine.run(ping_ring);
  // The second run is priced under the new model, as if freshly constructed.
  Machine fresh(cube::Topology{1}, expensive);
  fresh.run(ping_ring);
  EXPECT_DOUBLE_EQ(machine.summary().max_comm, fresh.summary().max_comm);
  EXPECT_GT(machine.summary().max_comm, cheap_comm);
}

TEST(MachineTest, ResetAfterFailedRunRecovers) {
  Machine machine(cube::Topology{2}, CostModel{});
  EXPECT_THROW(machine.run([](Ctx& ctx) -> SimTask {
                 if (ctx.id() == 0) ctx.send(3, Message{});
                 co_return;
               }),
               std::logic_error);
  machine.reset();
  machine.run(ping_ring);  // the machine is fully usable again
  EXPECT_EQ(machine.errors().size(), 1u);
}

}  // namespace
}  // namespace aoft::sim
