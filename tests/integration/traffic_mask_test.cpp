// Integration property: the mask algebra describes the real traffic.
//
// Lemma 3 asserts that vect_mask(i, j, k) is exactly the set of elements
// node k has collected after the iteration-j exchange.  The predicates build
// on that claim, so here it is checked against the *actual* link events of a
// recorded S_FT run: replaying the recorded messages through a set-union
// model must land every node's coverage on the closed-form masks, and the
// message sizes must match the slice the protocol claims to send.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>

#include "hypercube/masks.h"
#include "hypercube/subcube.h"
#include "sim/machine.h"
#include "sort/sft.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

TEST(TrafficMaskTest, RecordedMessagesMatchTheMaskAlgebra) {
  const int dim = 4;
  const auto num_nodes = cube::NodeId{1} << dim;
  cube::Topology topo(dim);

  // Run S_FT with link-event recording via a pass-through interceptor-free
  // machine: re-run the protocol manually?  No — run_sft owns its machine,
  // so use an interceptor that records (from, to, stage, iter, words).
  struct Recorder : sim::LinkInterceptor {
    struct Event {
      cube::NodeId from, to;
      int stage, iter;
      std::size_t lbs_words;
    };
    std::vector<Event> events;
    bool on_send(cube::NodeId from, cube::NodeId to, sim::Message& m) override {
      events.push_back({from, to, m.stage, m.iter, m.lbs.size()});
      return true;
    }
  } recorder;

  auto input = util::random_keys(31, num_nodes);
  SftOptions opts;
  opts.interceptor = &recorder;
  auto run = run_sft(dim, input, opts);
  ASSERT_TRUE(run.errors.empty());

  // Nodes synchronize pairwise only, so the raw send order may interleave
  // stages across distant nodes; replay in protocol order (stages ascend,
  // iterations descend; the stable sort keeps each pair's send-then-reply
  // order).
  std::stable_sort(recorder.events.begin(), recorder.events.end(),
                   [](const auto& a, const auto& b) {
                     return a.stage != b.stage ? a.stage < b.stage
                                               : a.iter > b.iter;
                   });

  // Replay: coverage of each node per stage, reset at stage boundaries.
  std::vector<util::BitVec> cover(num_nodes);
  int cur_stage = 0;
  auto reset_all = [&] {
    for (cube::NodeId p = 0; p < num_nodes; ++p)
      cover[p] = util::BitVec::single(num_nodes, p);
  };
  reset_all();
  for (const auto& e : recorder.events) {
    ASSERT_GE(e.stage, cur_stage);
    if (e.stage != cur_stage) {
      cur_stage = e.stage;
      reset_all();
    }
    const int mask_stage = std::min(e.stage, dim - 1);
    // The slice must cover the sender's stage window exactly.
    const auto window = cube::home_subcube(std::min(e.stage + 1, dim), e.from);
    EXPECT_EQ(e.lbs_words, static_cast<std::size_t>(window.size()))
        << "stage " << e.stage << " iter " << e.iter;
    // Receiver's coverage gains the sender's: the recorded exchange order is
    // send-then-reply within (stage, iter), so applying events in order
    // reproduces pre/post masks.
    cover[e.to] |= cover[e.from];
    // After this delivery the receiver must never exceed the closed form for
    // the *post*-exchange mask of this iteration.
    EXPECT_TRUE(cover[e.to].is_subset_of(
        cube::vect_mask(topo, mask_stage, e.iter, e.to)))
        << "stage " << e.stage << " iter " << e.iter << " to " << e.to;
  }

  // At the end of the final round every node holds the whole cube.
  for (cube::NodeId p = 0; p < num_nodes; ++p)
    EXPECT_EQ(cover[p].count(), num_nodes) << "node " << p;
}

TEST(TrafficMaskTest, PerIterationCoverageIsExactlyTheClosedForm) {
  // Stronger: after *both* messages of an (i, j) pair exchange, partner
  // coverages equal vect_mask exactly (not just subset).
  const int dim = 3;
  const auto num_nodes = cube::NodeId{1} << dim;
  cube::Topology topo(dim);

  struct Recorder : sim::LinkInterceptor {
    std::vector<std::tuple<cube::NodeId, cube::NodeId, int, int>> events;
    bool on_send(cube::NodeId from, cube::NodeId to, sim::Message& m) override {
      events.push_back({from, to, m.stage, m.iter});
      return true;
    }
  } recorder;

  auto input = util::random_keys(33, num_nodes);
  SftOptions opts;
  opts.interceptor = &recorder;
  auto run = run_sft(dim, input, opts);
  ASSERT_TRUE(run.errors.empty());

  std::stable_sort(recorder.events.begin(), recorder.events.end(),
                   [](const auto& a, const auto& b) {
                     return std::get<2>(a) != std::get<2>(b)
                                ? std::get<2>(a) < std::get<2>(b)
                                : std::get<3>(a) > std::get<3>(b);
                   });

  std::vector<util::BitVec> cover(num_nodes);
  for (cube::NodeId p = 0; p < num_nodes; ++p)
    cover[p] = util::BitVec::single(num_nodes, p);
  int cur_stage = 0;
  // Count deliveries per (stage, iter, node) to know when a pair is done.
  std::vector<int> recv_count(num_nodes, 0);
  int cur_iter = -2;
  for (const auto& [from, to, stage, iter] : recorder.events) {
    if (stage != cur_stage) {
      cur_stage = stage;
      for (cube::NodeId p = 0; p < num_nodes; ++p)
        cover[p] = util::BitVec::single(num_nodes, p);
    }
    if (iter != cur_iter) {
      cur_iter = iter;
      std::fill(recv_count.begin(), recv_count.end(), 0);
    }
    cover[to] |= cover[from];
    ++recv_count[to];
    const int mask_stage = std::min(stage, dim - 1);
    // Once a node has received its message for this iteration, its coverage
    // must be the closed-form post mask.
    EXPECT_EQ(cover[to], cube::vect_mask(topo, mask_stage, iter, to))
        << "stage " << stage << " iter " << iter << " node " << to;
  }
}

// Host-link traffic appears in the recorded event log alongside node-node
// traffic (regression: send_host used to bypass the recording path, so
// checkpoint uploads and error reports were invisible to traffic accounting).
TEST(TrafficMaskTest, CheckpointUploadsAppearInTheLinkEventLog) {
  const int dim = 3;
  const auto num_nodes = cube::NodeId{1} << dim;

  SftOptions opts;
  opts.checkpoint = true;
  opts.record_link_events = true;
  auto input = util::random_keys(35, num_nodes);
  auto run = run_sft(dim, input, opts);
  ASSERT_TRUE(run.errors.empty());

  std::size_t uploads = 0, node_node = 0;
  for (const auto& e : run.link_events) {
    ASSERT_FALSE(e.to_host && e.from_host);
    if (e.to_host) {
      EXPECT_EQ(e.kind, sim::MsgKind::kCheckpoint);
      EXPECT_TRUE(e.delivered);  // host links never drop
      EXPECT_GT(e.words, 0u);
      ++uploads;
    } else if (!e.from_host) {
      ++node_node;
    }
  }
  // One upload per node per stage boundary.
  EXPECT_EQ(uploads, static_cast<std::size_t>(num_nodes) * dim);
  EXPECT_GT(node_node, 0u);
}

TEST(TrafficMaskTest, ErrorReportsAppearInTheLinkEventLog) {
  const int dim = 3;
  const auto num_nodes = cube::NodeId{1} << dim;

  SftOptions opts;
  opts.record_link_events = true;
  opts.node_faults[5].halt_at = fault::StagePoint{1, 0};
  auto input = util::random_keys(37, num_nodes);
  auto run = run_sft(dim, input, opts);
  ASSERT_TRUE(run.fail_stop());

  std::size_t error_msgs = 0;
  for (const auto& e : run.link_events)
    if (e.to_host && e.kind == sim::MsgKind::kHostError) {
      EXPECT_TRUE(e.delivered);
      ++error_msgs;
    }
  // Every fail-stop report travelled the host link and was recorded.
  EXPECT_EQ(error_msgs, run.errors.size());
  EXPECT_GE(error_msgs, 1u);
}


// The cover contract of lent gossip windows (sim/remote.h): a shm link may
// leave every LBS cell outside the sender's protocol mask — pre_mask from
// the passive partner, vect_mask on the active partner's reply — as a hole
// with unspecified bytes.  On the oracle, overwrite exactly those cells
// with a sentinel in every gossip message: if no receiver ever reads them,
// the run is the identity interceptor's run, bit for bit, with or without
// processor faults (including a silent checker, whose lmask stops growing
// at the violation it swallows while its sends keep the protocol mask).
// A receiver that reads one cell more reads a stale value of an earlier
// stage there.  Where that breaks the fault-free run on its own, the
// correctness check below shows it; where it does not, the sentinel does.
struct HoleFiller final : sim::LinkInterceptor {
  static constexpr Key kSentinel = std::numeric_limits<Key>::min() + 12345;
  cube::Topology topo;
  std::size_t m;
  bool fill;
  std::size_t filled = 0;  // cells overwritten

  HoleFiller(int dim, std::size_t block, bool fill_holes)
      : topo(dim), m(block), fill(fill_holes) {}

  bool on_send(cube::NodeId from, cube::NodeId, sim::Message& msg) override {
    if (!fill || (msg.kind != sim::MsgKind::kDataLbs &&
                  msg.kind != sim::MsgKind::kLbsOnly))
      return true;
    const int i = std::min(msg.stage, topo.dimension() - 1);
    const int j = msg.iter;
    const util::BitVec read = cube::node_bit(from, j)
                                  ? cube::pre_mask(topo, i, j, from)
                                  : cube::vect_mask(topo, i, j, from);
    const cube::Subcube window = cube::home_subcube(i + 1, from);
    EXPECT_EQ(msg.lbs.size(), static_cast<std::size_t>(window.size()) * m);
    if (msg.lbs.size() != static_cast<std::size_t>(window.size()) * m)
      return true;
    for (cube::NodeId p = window.start; p <= window.end; ++p) {
      if (read.test(p)) continue;
      const auto off = static_cast<std::ptrdiff_t>((p - window.start) * m);
      std::fill(msg.lbs.begin() + off,
                msg.lbs.begin() + off + static_cast<std::ptrdiff_t>(m),
                kSentinel);
      ++filled;
    }
    return true;
  }
};

void expect_same_run(const SortRun& a, const SortRun& b,
                     const std::string& what) {
  EXPECT_EQ(a.output, b.output) << what;
  ASSERT_EQ(a.errors.size(), b.errors.size()) << what;
  for (std::size_t k = 0; k < a.errors.size(); ++k) {
    const auto& x = a.errors[k];
    const auto& y = b.errors[k];
    EXPECT_TRUE(x.node == y.node && x.stage == y.stage && x.iter == y.iter &&
                x.source == y.source && x.detail == y.detail)
        << what << ": error " << k << " differs";
  }
  EXPECT_EQ(a.deaths, b.deaths) << what;
  ASSERT_EQ(a.link_events.size(), b.link_events.size()) << what;
  for (std::size_t k = 0; k < a.link_events.size(); ++k) {
    const auto& x = a.link_events[k];
    const auto& y = b.link_events[k];
    EXPECT_TRUE(x.from == y.from && x.to == y.to && x.kind == y.kind &&
                x.stage == y.stage && x.iter == y.iter && x.words == y.words &&
                x.delivered == y.delivered && x.to_host == y.to_host &&
                x.from_host == y.from_host)
        << what << ": link event " << k << " differs";
  }
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size()) << what;
  for (std::size_t k = 0; k < a.checkpoints.size(); ++k) {
    const auto& x = a.checkpoints[k];
    const auto& y = b.checkpoints[k];
    EXPECT_TRUE(x.stage == y.stage && x.state == y.state &&
                x.windows_agreed == y.windows_agreed &&
                x.windows_total == y.windows_total &&
                x.certified == y.certified)
        << what << ": checkpoint " << k << " differs";
  }
}

TEST(TrafficMaskTest, ReceiversNeverReadCellsOutsideTheSendersCover) {
  struct Script {
    const char* name;
    std::function<void(fault::NodeFaultMap&, int dim)> arm;
  };
  const std::vector<Script> scripts = {
      {"fault-free", [](fault::NodeFaultMap&, int) {}},
      {"halt",
       [](fault::NodeFaultMap& f, int dim) {
         f[1].halt_at = fault::StagePoint{dim - 1, 0};
       }},
      {"invert",
       [](fault::NodeFaultMap& f, int dim) {
         f[dim > 1 ? 2 : 1].invert_direction_from =
             fault::StagePoint{dim - 1, dim - 1};
       }},
      {"substitute-value",
       [](fault::NodeFaultMap& f, int dim) {
         f[dim > 1 ? 3 : 1].substitute_at = fault::StagePoint{dim - 1, 0};
         f[dim > 1 ? 3 : 1].substitute_value = 424242;
       }},
      {"silent-checker",
       [](fault::NodeFaultMap& f, int dim) {
         // The liar's partner across dimension 0 swallows what it sees.
         f[0].silent_checker = true;
         f[1].invert_direction_from = fault::StagePoint{dim - 1, dim - 1};
       }},
  };
  std::size_t filled = 0, fail_stops = 0;
  for (int dim = 1; dim <= 5; ++dim)
    for (std::size_t block : {std::size_t{1}, std::size_t{2}, std::size_t{64}})
      for (const Script& s : scripts) {
        const std::string what = "dim=" + std::to_string(dim) +
                                 " block=" + std::to_string(block) + " " +
                                 s.name;
        const auto input = util::random_keys(
            static_cast<std::uint64_t>(dim * 1000 + block),
            (std::size_t{1} << dim) * block);
        SortRun runs[2];
        for (int k = 0; k < 2; ++k) {
          HoleFiller filler(dim, block, /*fill_holes=*/k == 1);
          SftOptions opts;
          opts.block = block;
          opts.checkpoint = true;
          opts.record_link_events = true;
          opts.interceptor = &filler;
          s.arm(opts.node_faults, dim);
          runs[k] = run_sft(dim, input, opts);
          filled += filler.filled;
        }
        expect_same_run(runs[0], runs[1], what);
        if (s.name == std::string("fault-free"))
          EXPECT_EQ(classify(runs[0], input), Outcome::kCorrect) << what;
        fail_stops += runs[0].fail_stop() ? 1 : 0;
      }
  EXPECT_GT(filled, 0u) << "the filler must have had holes to fill";
  EXPECT_GT(fail_stops, 0u) << "the fault scripts must reach the checks";
}

}  // namespace
}  // namespace aoft::sort
