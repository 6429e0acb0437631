// Layout-generation SA tests (paper sect. IV-E): affinity pulls blocks
// together, terminals attract, penalties repair macro infeasibility.

#include <gtest/gtest.h>

#include "core/layout_optimizer.hpp"

namespace hidap {
namespace {

BudgetBlock soft(double at) {
  BudgetBlock b;
  b.at = at;
  b.am = at;
  return b;
}

AnnealOptions quick_anneal(std::uint64_t seed) {
  AnnealOptions a;
  a.seed = seed;
  a.moves_per_temperature = 150;
  a.cooling = 0.85;
  return a;
}

TEST(LayoutOptimizer, HighAffinityPairEndsUpAdjacent) {
  // Four equal blocks; only 0-3 have affinity: they must end closer to
  // each other than the average pair.
  LayoutProblem p;
  p.region = {0, 0, 20, 20};
  for (int i = 0; i < 4; ++i) p.blocks.push_back(soft(100));
  AffinityMatrix aff(4);
  aff.set(0, 3, 1.0);
  p.affinity = &aff;
  const LayoutSolution sol = optimize_layout(p, quick_anneal(3));
  ASSERT_EQ(sol.rects.size(), 4u);
  const double d03 = manhattan(sol.rects[0].center(), sol.rects[3].center());
  double other = 0.0;
  int pairs = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      if (i == 0 && j == 3) continue;
      other += manhattan(sol.rects[i].center(), sol.rects[j].center());
      ++pairs;
    }
  }
  EXPECT_LT(d03, other / pairs + 1e-9);
}

TEST(LayoutOptimizer, TerminalAttractsItsBlock) {
  // Two blocks, one tied to a terminal in the south-west corner.
  LayoutProblem p;
  p.region = {0, 0, 10, 10};
  p.blocks = {soft(50), soft(50)};
  p.terminals = {Point{0, 0}};
  AffinityMatrix aff(3);
  aff.set(0, 2, 1.0);  // block 0 <-> terminal
  p.affinity = &aff;
  const LayoutSolution sol = optimize_layout(p, quick_anneal(5));
  EXPECT_LT(manhattan(sol.rects[0].center(), Point{0, 0}),
            manhattan(sol.rects[1].center(), Point{0, 0}));
}

TEST(LayoutOptimizer, SingleBlockTakesWholeRegion) {
  LayoutProblem p;
  p.region = {2, 3, 8, 6};
  p.blocks = {soft(48)};
  AffinityMatrix aff(1);
  p.affinity = &aff;
  const LayoutSolution sol = optimize_layout(p, quick_anneal(1));
  ASSERT_EQ(sol.rects.size(), 1u);
  EXPECT_EQ(sol.rects[0], p.region);
  EXPECT_TRUE(sol.violations.clean());
}

TEST(LayoutOptimizer, MacroBlocksGetFeasibleRects) {
  // Three blocks with macros that fit comfortably: the final layout
  // should carry no macro violations.
  LayoutProblem p;
  p.region = {0, 0, 30, 30};
  for (int i = 0; i < 3; ++i) {
    BudgetBlock b;
    b.gamma = ShapeCurve::for_rect(8, 5);
    b.am = 40;
    b.at = 300;
    p.blocks.push_back(b);
  }
  AffinityMatrix aff(3);
  aff.set(0, 1, 0.5);
  aff.set(1, 2, 0.5);
  p.affinity = &aff;
  const LayoutSolution sol = optimize_layout(p, quick_anneal(7));
  EXPECT_DOUBLE_EQ(sol.violations.macro_deficit, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(p.blocks[i].gamma.fits(sol.rects[i].w, sol.rects[i].h))
        << "block " << i << " rect " << sol.rects[i].w << "x" << sol.rects[i].h;
  }
}

TEST(LayoutOptimizer, CostMatchesConnectivityHelper) {
  LayoutProblem p;
  p.region = {0, 0, 10, 10};
  p.blocks = {soft(50), soft(50)};
  AffinityMatrix aff(2);
  aff.set(0, 1, 2.0);
  p.affinity = &aff;
  const LayoutSolution sol = optimize_layout(p, quick_anneal(11));
  const double conn = layout_connectivity_cost(p, sol.rects);
  EXPECT_GT(conn, 0.0);
  // Clean layout: cost = 1.0 * (conn + base).
  EXPECT_NEAR(sol.cost, conn + 0.01 * 20.0, 1e-6);
}

TEST(LayoutOptimizer, DeterministicAcrossRuns) {
  LayoutProblem p;
  p.region = {0, 0, 12, 12};
  for (int i = 0; i < 5; ++i) p.blocks.push_back(soft(20 + 3 * i));
  AffinityMatrix aff(5);
  aff.set(0, 4, 1.0);
  aff.set(1, 2, 0.7);
  p.affinity = &aff;
  const LayoutSolution a = optimize_layout(p, quick_anneal(42));
  const LayoutSolution b = optimize_layout(p, quick_anneal(42));
  EXPECT_EQ(a.expression.elements(), b.expression.elements());
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(LayoutOptimizer, IncrementalAndFullRecomputeAreByteIdentical) {
  // The incremental engine must not change a single accept/reject
  // decision: same seed => same Polish expression, same rects, same
  // cost, bit for bit.
  LayoutProblem p;
  p.region = {0, 0, 40, 30};
  for (int i = 0; i < 7; ++i) {
    BudgetBlock b = soft(30 + 11.0 * i);
    if (i % 2 == 0) b.gamma = ShapeCurve::for_rect(4 + i, 6);
    p.blocks.push_back(b);
  }
  p.terminals = {Point{0, 0}, Point{40, 30}};
  AffinityMatrix aff(9);
  aff.set(0, 6, 1.0);
  aff.set(1, 3, 0.8);
  aff.set(2, 7, 0.4);  // block 2 <-> terminal 0
  aff.set(5, 8, 0.6);  // block 5 <-> terminal 1
  p.affinity = &aff;

  AnnealOptions on = quick_anneal(17);
  on.incremental = true;
  AnnealOptions off = on;
  off.incremental = false;

  const LayoutSolution a = optimize_layout(p, on);
  const LayoutSolution b = optimize_layout(p, off);
  EXPECT_EQ(a.expression.elements(), b.expression.elements());
  EXPECT_EQ(a.cost, b.cost);
  ASSERT_EQ(a.rects.size(), b.rects.size());
  for (std::size_t i = 0; i < a.rects.size(); ++i) EXPECT_EQ(a.rects[i], b.rects[i]);
}

TEST(LayoutOptimizer, EmptyProblem) {
  LayoutProblem p;
  p.region = {0, 0, 4, 4};
  AffinityMatrix aff(0);
  p.affinity = &aff;
  const LayoutSolution sol = optimize_layout(p, quick_anneal(1));
  EXPECT_TRUE(sol.rects.empty());
}

}  // namespace
}  // namespace hidap
