// Certificates are trusted only when earned.
//
// An S_FT node skips a scan when an earlier check already passed on the same
// bytes (sort/kernels.h, "Certificates"): the llbs runs Φ_P proved at the
// previous boundary, stage 0's own and gossip-checked partner blocks, and a
// block it sorted, merged from sorted operands or adopted from a pair that
// passed its exchange check.  These runs take every path on which such a
// certificate must be withheld:
//   * a silent checker that swallowed a Φ_P or pair-check violation;
//   * Φ_P or the exchange check turned off;
//   * a substitute-value re-sort;
//   * a run resumed from a checkpoint,
// at blocks 64 and 4,096, where windows pass kMergePathCutoff and the
// one-pass paths engage.  From each run's artifacts alone — the observer's
// StageSnapshots, the messages on the links and the trace — every Φ_P, Φ_F
// and pair verdict, with its first-failure position, must equal phi_p,
// phi_f and the reference pair check re-evaluated on the same bytes, and
// every merge a node replies with must equal the reference merge of its
// operands.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "obs/sink.h"
#include "sort/kernels.h"
#include "sort/predicates.h"
#include "sort/sft.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

// Copies every compare-exchange message on its way.  With a lie set, it
// also swaps two key values in the gossip every message to one node carries
// during the given stages: a Byzantine link feeding that node a consistent
// story its Φ_C cannot catch.
class LinkLog : public sim::LinkInterceptor {
 public:
  struct Lie {
    cube::NodeId to = 0;
    std::vector<int> stages;
    Key x = 0, y = 0;
  };
  std::optional<Lie> lie;

  using Key3 = std::tuple<cube::NodeId, cube::NodeId, int, int>;  // from, to, i, j
  bool on_send(cube::NodeId from, cube::NodeId to, sim::Message& m) override {
    if (m.kind != sim::MsgKind::kDataLbs) return true;
    data_[{from, to, m.stage, m.iter}].assign(m.data.begin(), m.data.end());
    if (lie && to == lie->to &&
        std::count(lie->stages.begin(), lie->stages.end(), m.stage) > 0)
      for (Key& k : m.lbs) k = k == lie->x ? lie->y : k == lie->y ? lie->x : k;
    return true;
  }
  const std::vector<Key>* find(cube::NodeId from, cube::NodeId to, int i,
                               int j) const {
    const auto it = data_.find({from, to, i, j});
    return it == data_.end() ? nullptr : &it->second;
  }

 private:
  std::map<Key3, std::vector<Key>> data_;
};

struct Observed {
  SortRun run;
  std::vector<StageSnapshot> snaps;
  LinkLog links;
  obs::Tracer tracer;
};

void observe(Observed& o, int dim, std::span<const Key> input, SftOptions opts,
             const ResumeState* rs, std::optional<LinkLog::Lie> lie = {}) {
  o.links.lie = std::move(lie);
  opts.observer = [&o](const StageSnapshot& s) { o.snaps.push_back(s); };
  opts.interceptor = &o.links;
  obs::ScopedSink sink(&o.tracer, nullptr);
  o.run = rs ? resume_sft(dim, *rs, opts) : run_sft(dim, input, opts);
}

bool sorted_dir(std::span<const Key> v, bool ascending) {
  return ascending ? std::is_sorted(v.begin(), v.end())
                   : std::is_sorted(v.begin(), v.end(), std::greater<Key>{});
}

// The direction a node holds its block in during stage i, its own faults
// included.
bool node_direction(const SftOptions& opts, cube::NodeId p, int i) {
  bool asc = cube::stage_ascending(p, i);
  const auto f = opts.node_faults.find(p);
  if (f != opts.node_faults.end() && f->second.invert_direction_from &&
      fault::reached(*f->second.invert_direction_from, i, i))
    asc = !asc;
  return asc;
}

struct Tally {
  int phi_p = 0, phi_p_fail = 0, phi_f = 0, phi_f_fail = 0;
  int pairs = 0, pair_fail = 0, merges = 0;
};

// Every recorded verdict and merge of `o`, against the reference evaluated on
// the bytes the run itself shows.
void check_run(const Observed& o, int dim, std::size_t m,
               std::span<const Key> input, const SftOptions& opts,
               const ResumeState* rs, Tally& tally) {
  const auto events_of = [&](obs::Ev kind, cube::NodeId p, int stage, int iter) {
    std::vector<const obs::TraceEvent*> out;
    for (const auto& e : o.tracer.events())
      if (e.kind == kind && e.node == static_cast<std::int32_t>(p) &&
          e.stage == stage && e.iter == iter)
        out.push_back(&e);
    return out;
  };
  const auto expect_verdict = [&](const std::vector<const obs::TraceEvent*>& got,
                                  const std::optional<Violation>& want,
                                  const char* what, cube::NodeId p, int stage) {
    ASSERT_EQ(got.size(), 1u) << what << " node " << p << " stage " << stage;
    EXPECT_EQ(got[0]->a, want ? 0 : 1) << what << " node " << p << " stage " << stage;
    EXPECT_EQ(got[0]->b, want ? want->position : 0)
        << what << " node " << p << " stage " << stage;
    EXPECT_EQ(got[0]->detail, want ? want->what : std::string{})
        << what << " node " << p << " stage " << stage;
  };

  // Φ_P and Φ_F at every boundary a node reported.  A node reports only
  // after its checks, so each snapshot holds the bytes they read.
  for (const auto& s : o.snaps) {
    if (rs == nullptr && s.stage == 0) continue;  // no bit_compare at stage 0
    const bool final_stage = s.stage == dim;
    const cube::Subcube inner =
        final_stage ? s.window : cube::home_subcube(s.stage, s.node);
    const bool inner_asc =
        final_stage || cube::subcube_sorted_ascending(s.stage, s.node);
    const std::size_t off = static_cast<std::size_t>(inner.start - s.window.start) * m;
    const std::size_t len = static_cast<std::size_t>(inner.size()) * m;
    const auto lbs_inner = std::span<const Key>(s.lbs_window).subspan(off, len);
    const auto llbs_inner = std::span<const Key>(s.llbs_window).subspan(off, len);
    const auto f = opts.node_faults.find(s.node);
    const bool silent = f != opts.node_faults.end() && f->second.silent_checker;
    std::optional<Violation> p_want;
    if (opts.check_progress) {
      p_want = phi_p(s.lbs_window, final_stage);
      expect_verdict(events_of(obs::Ev::kPhiP, s.node, s.stage, -1), p_want,
                     "phi_P", s.node, s.stage);
      ++tally.phi_p;
      tally.phi_p_fail += p_want.has_value();
    }
    if (opts.check_feasibility && (!p_want || silent)) {
      const auto f_want = phi_f(llbs_inner, lbs_inner, inner_asc);
      expect_verdict(events_of(obs::Ev::kPhiF, s.node, s.stage, -1), f_want,
                     "phi_F", s.node, s.stage);
      ++tally.phi_f;
      tally.phi_f_fail += f_want.has_value();
    }
  }

  // The passive partner's pair check, on the pair it received and the block
  // it had sent.
  for (const auto& e : o.tracer.events()) {
    if (e.kind != obs::Ev::kPairCheck) continue;
    const auto p = static_cast<cube::NodeId>(e.node);
    const cube::NodeId partner = p ^ (cube::NodeId{1} << e.iter);
    const auto* mine = o.links.find(p, partner, e.stage, e.iter);
    const auto* merged = o.links.find(partner, p, e.stage, e.iter);
    ASSERT_TRUE(mine && merged) << "node " << p << " at " << e.stage << ":" << e.iter;
    const bool asc = node_direction(opts, p, e.stage);
    const bool want =
        merged->size() == 2 * m && sorted_dir(*merged, asc) &&
        (asc ? std::includes(merged->begin(), merged->end(), mine->begin(),
                             mine->end())
             : std::includes(merged->begin(), merged->end(), mine->begin(),
                             mine->end(), std::greater<Key>{}));
    EXPECT_EQ(e.a, want ? 1 : 0) << "pair check, node " << p << " at " << e.stage
                                 << ":" << e.iter;
    ++tally.pairs;
    tally.pair_fail += !want;
  }

  // Replay each node that computes honestly (a silent checker does), its
  // block through the logged exchanges, and check every reply it merged.
  const int start = rs ? rs->stage : 0;
  const cube::NodeId nodes = cube::NodeId{1} << dim;
  for (cube::NodeId p = 0; p < nodes; ++p) {
    const auto f = opts.node_faults.find(p);
    if (f != opts.node_faults.end() &&
        (f->second.invert_direction_from || f->second.substitute_at ||
         f->second.halt_at))
      continue;
    const auto src = rs ? std::span<const Key>(rs->blocks) : input;
    std::vector<Key> block(src.begin() + static_cast<std::ptrdiff_t>(p * m),
                           src.begin() + static_cast<std::ptrdiff_t>((p + 1) * m));
    bool cur = cube::subcube_sorted_ascending(start, p);
    if (start == 0) {
      if (cur)
        std::sort(block.begin(), block.end());
      else
        std::sort(block.begin(), block.end(), std::greater<Key>{});
    }
    bool live = true;
    for (int i = start; i < dim && live; ++i) {
      const bool asc = cube::stage_ascending(p, i);
      if (asc != cur) {
        std::reverse(block.begin(), block.end());
        cur = asc;
      }
      for (int j = i; j >= 0 && live; --j) {
        const cube::NodeId partner = p ^ (cube::NodeId{1} << j);
        const auto* in = o.links.find(partner, p, i, j);
        const auto* out = o.links.find(p, partner, i, j);
        if (!in || !out) {
          live = false;
          break;
        }
        if (cube::node_bit(p, j)) {  // passive: sent its block, adopts the top
          EXPECT_EQ(*out, block) << "node " << p << " at " << i << ":" << j;
          if (in->size() >= 2 * m)
            block.assign(in->begin() + static_cast<std::ptrdiff_t>(m),
                         in->begin() + static_cast<std::ptrdiff_t>(2 * m));
          continue;
        }
        if (in->size() == m && sorted_dir(*in, cur)) {
          std::vector<Key> want(2 * m);
          kernels::detail::merge_reference(block.data(), m, in->data(), m, cur,
                                           want.data());
          EXPECT_EQ(*out, want) << "merge, node " << p << " at " << i << ":" << j;
          ++tally.merges;
        }
        block.assign(out->begin(), out->begin() + static_cast<std::ptrdiff_t>(m));
      }
    }
  }
}

struct Scenario {
  const char* name;
  std::function<void(SftOptions&)> setup;
};

void all_silent_but(SftOptions& o, cube::NodeId liar, int dim) {
  for (cube::NodeId p = 0; p < (cube::NodeId{1} << dim); ++p)
    if (p != liar) o.node_faults[p].silent_checker = true;
}

void all_silent(SftOptions& o, int dim) {
  for (cube::NodeId p = 0; p < (cube::NodeId{1} << dim); ++p)
    o.node_faults[p].silent_checker = true;
}

const Scenario kScenarios[] = {
    {"earned", [](SftOptions&) {}},
    {"silent checkers swallow Φ_P",
     [](SftOptions& o) {
       o.node_faults[1].invert_direction_from = fault::StagePoint{1, 0};
       all_silent_but(o, 1, 3);
     }},
    {"silent checkers swallow the pair check",
     [](SftOptions& o) {
       o.node_faults[0].invert_direction_from = fault::StagePoint{1, 1};
       o.node_faults[0].silent_checker = true;
       all_silent_but(o, 0, 3);
     }},
    {"progress off",
     [](SftOptions& o) {
       o.check_progress = false;
       o.node_faults[6].invert_direction_from = fault::StagePoint{2, 2};
       all_silent_but(o, 6, 3);
     }},
    {"exchange off",
     [](SftOptions& o) {
       // Node 4 adopts node 0's inverted half unchecked, then merges it as
       // the active side at 2:1.
       o.check_exchange = false;
       o.node_faults[0].invert_direction_from = fault::StagePoint{2, 2};
       o.node_faults[0].silent_checker = true;
     }},
    {"substitute re-sort",
     [](SftOptions& o) {
       o.node_faults[3].substitute_at = fault::StagePoint{1, 1};
       o.node_faults[3].substitute_value = 123456789;
       all_silent_but(o, 3, 3);
     }},
    {"substitute at stage 0",
     [](SftOptions& o) {
       o.node_faults[2].substitute_at = fault::StagePoint{0, 0};
       o.node_faults[2].substitute_value = -5;
       all_silent_but(o, 2, 3);
     }},
};

class SftCertificateTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SftCertificateTest, VerdictsAndMergesAreTheReferences) {
  const int dim = 3;
  const std::size_t m = GetParam();
  const auto input = util::random_keys_small_alphabet(77, (std::size_t{1} << dim) * m, 64);
  Tally tally;
  for (const auto& sc : kScenarios) {
    SCOPED_TRACE(sc.name);
    SftOptions opts;
    opts.block = m;
    sc.setup(opts);
    Observed o;
    observe(o, dim, input, opts, nullptr);
    check_run(o, dim, m, input, opts, nullptr, tally);
  }
  // The checks actually failed somewhere, so the withheld certificates were
  // exercised, and passed elsewhere.
  EXPECT_GT(tally.phi_p_fail, 0);
  EXPECT_GT(tally.phi_f_fail, 0);
  EXPECT_GT(tally.pair_fail, 0);
  EXPECT_GT(tally.phi_p, tally.phi_p_fail);
  EXPECT_GT(tally.pairs, tally.pair_fail);
  EXPECT_GT(tally.merges, 0);
}

TEST_P(SftCertificateTest, ResumedRunsEarnTheirOwn) {
  const int dim = 3;
  const std::size_t m = GetParam();
  const auto input = util::random_keys(78, (std::size_t{1} << dim) * m);
  SftOptions full;
  full.block = m;
  full.checkpoint = true;
  const auto whole = run_sft(dim, input, full);
  ASSERT_TRUE(whole.errors.empty());
  for (int k = 1; k < dim; ++k) {
    ResumeState rs;
    rs.stage = k;
    rs.blocks = whole.checkpoints[k].state;
    rs.llbs = whole.checkpoints[k - 1].state;
    for (const bool faulty : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "resume at " << k << " faulty " << faulty);
      SftOptions opts;
      opts.block = m;
      if (faulty) {
        opts.node_faults[5].invert_direction_from = fault::StagePoint{k, k};
        all_silent_but(opts, 5, dim);
      }
      Observed o;
      observe(o, dim, input, opts, &rs);
      Tally tally;
      check_run(o, dim, m, input, opts, &rs, tally);
      EXPECT_GT(tally.phi_f, 0);
      if (!faulty) {
        EXPECT_EQ(o.run.output, whole.output);
      }
    }
  }
}

// The lie a trusted certificate would miss: two keys adjacent in sorted
// order swap places in one llbs run of node 0, and in the same way in the
// lbs it checks next.  The merge of runs that were trusted sorted reproduces
// exactly that lbs, so a node that skipped the run's scan would see Φ_P pass
// on an unsorted window.  Every checker stays silent, so node 0 reaches that
// check although its gossip carries the lie on to its peers.
//   * "stage 2": node 3's block at stage 1 carries the swap; Φ_P rejects it
//     there, so node 0's stage-2 llbs must not be certified.
//   * "stage 1": node 1's block at stage 0 carries the swap; the operand
//     disagrees with the gossip, so node 0's stage-1 llbs must not be
//     certified either.
TEST_P(SftCertificateTest, LiesInTheLlbsRunsAreScannedNotTrusted) {
  const int dim = 3;
  const std::size_t m = GetParam();
  const auto input = util::random_keys(79, (std::size_t{1} << dim) * m);
  Observed clean;
  SftOptions plain;
  plain.block = m;
  observe(clean, dim, input, plain, nullptr);
  const auto window_of = [&](int stage) -> const std::vector<Key>& {
    for (const auto& s : clean.snaps)
      if (s.node == 0 && s.stage == stage) return s.lbs_window;
    throw std::logic_error("no snapshot");
  };
  const auto cell = [&](const std::vector<Key>& w, cube::NodeId p) {
    return std::vector<Key>(w.begin() + static_cast<std::ptrdiff_t>(p * m),
                            w.begin() + static_cast<std::ptrdiff_t>((p + 1) * m));
  };
  const auto holds = [](const std::vector<Key>& c, Key k) {
    return std::find(c.begin(), c.end(), k) != c.end();
  };
  struct Case {
    int lie_stage;        // the stage whose window first shows the swap
    cube::NodeId holder;  // whose block carries both keys then
  };
  for (const Case c : {Case{1, 3}, Case{0, 1}}) {
    SCOPED_TRACE(::testing::Message() << "swap shown at stage " << c.lie_stage);
    const int check = c.lie_stage + 1;  // where the llbs runs are read
    const auto& before = window_of(c.lie_stage);
    const auto& after = window_of(check);
    const std::size_t inner = (std::size_t{1} << check) * m;
    std::vector<Key> sorted(after.begin(),
                            after.begin() + static_cast<std::ptrdiff_t>(inner));
    std::sort(sorted.begin(), sorted.end());
    std::optional<LinkLog::Lie> lie;
    for (std::size_t k = 0; k + 1 < inner && !lie; ++k) {
      const Key x = sorted[k], y = sorted[k + 1];
      const auto held = cell(before, c.holder);
      const auto own = cell(after, 0);
      if (x != y && holds(held, x) && holds(held, y) && !holds(own, x) &&
          !holds(own, y))
        lie = LinkLog::Lie{0, {c.lie_stage, check}, x, y};
    }
    ASSERT_TRUE(lie.has_value());
    SftOptions opts;
    opts.block = m;
    all_silent(opts, dim);
    Observed o;
    observe(o, dim, input, opts, nullptr, lie);
    Tally tally;
    check_run(o, dim, m, input, opts, nullptr, tally);
    // The lie reached node 0's check: Φ_P fails on its window there.
    bool rejected = false;
    for (const auto& e : o.tracer.events())
      rejected |= e.kind == obs::Ev::kPhiP && e.node == 0 && e.stage == check &&
                  e.a == 0;
    EXPECT_TRUE(rejected);
  }
}

INSTANTIATE_TEST_SUITE_P(SftBlocks, SftCertificateTest,
                         ::testing::Values(std::size_t{64}, std::size_t{4096}));

}  // namespace
}  // namespace aoft::sort
