// Tests of the gossip-coverage mask algebra, including the Lemma 3 semantics:
// vect_mask must equal the set of elements actually deliverable by the stage-i
// exchange schedule.

#include "hypercube/masks.h"

#include <gtest/gtest.h>

#include "hypercube/subcube.h"

namespace aoft::cube {
namespace {

TEST(MasksTest, BaseCaseIsSelfAndPartner) {
  Topology t(4);
  for (NodeId p = 0; p < t.num_nodes(); ++p)
    for (int i = 0; i < t.dimension(); ++i) {
      const auto m = vect_mask(t, i, i, p);
      EXPECT_EQ(m.count(), 2u);
      EXPECT_TRUE(m.test(p));
      EXPECT_TRUE(m.test(p ^ (NodeId{1} << i)));
    }
}

TEST(MasksTest, RecursiveMatchesClosedFormEverywhere) {
  for (int dim = 1; dim <= 5; ++dim) {
    Topology t(dim);
    for (NodeId p = 0; p < t.num_nodes(); ++p)
      for (int i = 0; i < dim; ++i)
        for (int j = 0; j <= i; ++j)
          EXPECT_EQ(vect_mask_recursive(t, i, j, p), vect_mask(t, i, j, p))
              << "dim=" << dim << " i=" << i << " j=" << j << " p=" << p;
  }
}

// The labels a MaskCover names, straight from its definition: those that
// differ from `node` in bits lo..hi only.
BitVec cover_mask(const Topology& t, const MaskCover& c) {
  const NodeId free =
      c.lo > c.hi ? 0 : (NodeId{2} << c.hi) - (NodeId{1} << c.lo);
  BitVec m(t.num_nodes());
  for (NodeId l = 0; l < t.num_nodes(); ++l)
    if (((l ^ c.node) & ~free) == 0) m.set(l);
  return m;
}

// The closed-form covers the gossip sends pass to their link (sort/sft.cpp)
// name exactly the cells the receiver's vect_mask / pre_mask will read.
TEST(MasksTest, CoversMatchTheMasksEverywhere) {
  for (int dim = 1; dim <= 6; ++dim) {
    Topology t(dim);
    for (NodeId p = 0; p < t.num_nodes(); ++p)
      for (int i = 0; i < dim; ++i)
        for (int j = 0; j <= i; ++j) {
          EXPECT_EQ(cover_mask(t, vect_cover(i, j, p)), vect_mask(t, i, j, p))
              << "dim=" << dim << " p=" << p << " i=" << i << " j=" << j;
          EXPECT_EQ(cover_mask(t, pre_cover(i, j, p)), pre_mask(t, i, j, p))
              << "dim=" << dim << " p=" << p << " i=" << i << " j=" << j;
        }
  }
}

TEST(MasksTest, CountsMatchLemma) {
  Topology t(6);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j <= i; ++j) {
      EXPECT_EQ(vect_mask(t, i, j, 5 % t.num_nodes()).count(), vect_mask_count(i, j));
      EXPECT_EQ(pre_mask(t, i, j, 5 % t.num_nodes()).count(), pre_mask_count(i, j));
    }
}

TEST(MasksTest, PostExchangeIsUnionOfPartnersPreMasks) {
  Topology t(5);
  for (NodeId p = 0; p < t.num_nodes(); ++p)
    for (int i = 0; i < 5; ++i)
      for (int j = 0; j <= i; ++j) {
        const NodeId partner = p ^ (NodeId{1} << j);
        EXPECT_EQ(vect_mask(t, i, j, p),
                  pre_mask(t, i, j, p) | pre_mask(t, i, j, partner));
      }
}

TEST(MasksTest, PartnersPreMasksAreDisjoint) {
  // The same element never reaches both exchange partners before they talk:
  // within one stage each entry travels a unique route (the redundancy comes
  // from the active node's post-merge reply, not from the forward gossip).
  Topology t(5);
  for (NodeId p = 0; p < t.num_nodes(); ++p)
    for (int i = 0; i < 5; ++i)
      for (int j = 0; j <= i; ++j) {
        const NodeId partner = p ^ (NodeId{1} << j);
        EXPECT_FALSE(pre_mask(t, i, j, p).intersects(pre_mask(t, i, j, partner)));
      }
}

TEST(MasksTest, PartnersAgreeOnPostExchangeCoverage) {
  Topology t(4);
  for (NodeId p = 0; p < t.num_nodes(); ++p)
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j <= i; ++j)
        EXPECT_EQ(vect_mask(t, i, j, p), vect_mask(t, i, j, p ^ (NodeId{1} << j)));
}

TEST(MasksTest, PreMaskChainsThroughIterations) {
  // Before iteration j < i the coverage equals the post-coverage of j+1.
  Topology t(5);
  for (NodeId p = 0; p < t.num_nodes(); ++p)
    for (int i = 1; i < 5; ++i)
      for (int j = 0; j < i; ++j)
        EXPECT_EQ(pre_mask(t, i, j, p), vect_mask(t, i, j + 1, p));
}

TEST(MasksTest, StageEndCoversExactlyTheStageWindow) {
  // After iteration 0 of stage i, a node holds exactly SC_{i+1}.
  Topology t(6);
  for (NodeId p = 0; p < t.num_nodes(); ++p)
    for (int i = 0; i < 6; ++i) {
      const auto m = vect_mask(t, i, 0, p);
      const auto window = home_subcube(i + 1, p);
      EXPECT_EQ(m.count(), window.size());
      for (NodeId q = window.start; q <= window.end; ++q) EXPECT_TRUE(m.test(q));
    }
}

TEST(MasksTest, CoverageNeverLeavesTheWindow) {
  Topology t(5);
  for (NodeId p = 0; p < t.num_nodes(); ++p)
    for (int i = 0; i < 5; ++i)
      for (int j = 0; j <= i; ++j) {
        const auto window = home_subcube(i + 1, p);
        for (std::size_t b : vect_mask(t, i, j, p).set_bits())
          EXPECT_TRUE(window.contains(static_cast<NodeId>(b)));
      }
}

TEST(MasksTest, Lemma3AgainstSimulatedGossip) {
  // Directly simulate the stage-i exchange schedule on sets and compare with
  // the closed form — the literal statement of Lemma 3.
  const int dim = 5;
  Topology t(dim);
  const auto n = t.num_nodes();
  for (int i = 0; i < dim; ++i) {
    std::vector<util::BitVec> have(n);
    for (NodeId p = 0; p < n; ++p) have[p] = util::BitVec::single(n, p);
    for (int j = i; j >= 0; --j) {
      std::vector<util::BitVec> next = have;
      for (NodeId p = 0; p < n; ++p) next[p] |= have[p ^ (NodeId{1} << j)];
      have = std::move(next);
      for (NodeId p = 0; p < n; ++p)
        ASSERT_EQ(have[p], vect_mask(t, i, j, p)) << "i=" << i << " j=" << j;
    }
  }
}

}  // namespace
}  // namespace aoft::cube
