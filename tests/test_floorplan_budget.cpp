// Top-down budget layout tests (paper sect. IV-E, Fig. 8), including the
// paper's own 3x3 example and property sweeps on area conservation.

#include <gtest/gtest.h>

#include <numeric>

#include "floorplan/budget_layout.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

BudgetBlock soft_block(double at, double am = -1.0) {
  BudgetBlock b;
  b.at = at;
  b.am = am < 0 ? at : am;
  return b;
}

// The paper's Fig. 8: leaves with target areas 1, 2, 2, 4 in a 3x3 budget.
// Expression mirrors a tree with two internal cuts.
TEST(BudgetLayout, PaperFig8Example) {
  const std::vector<BudgetBlock> blocks = {soft_block(1), soft_block(2), soft_block(2),
                                           soft_block(4)};
  // ((a b H) (c d H) V): left column holds a over b, right column c over d.
  const PolishExpression expr({0, 1, kOpH, 2, 3, kOpH, kOpV});
  const BudgetResult res = budget_layout(expr, blocks, Rect{0, 0, 3, 3});
  ASSERT_EQ(res.leaf_rects.size(), 4u);
  // Areas must match the at proportions exactly (budget property).
  EXPECT_NEAR(res.leaf_rects[0].area(), 1.0, 1e-9);
  EXPECT_NEAR(res.leaf_rects[1].area(), 2.0, 1e-9);
  EXPECT_NEAR(res.leaf_rects[2].area(), 2.0, 1e-9);
  EXPECT_NEAR(res.leaf_rects[3].area(), 4.0, 1e-9);
  EXPECT_TRUE(res.violations.clean());
  // Left/right split: widths 1 and 2 (at sums 3 vs 6 over width 3).
  EXPECT_NEAR(res.leaf_rects[0].w, 1.0, 1e-9);
  EXPECT_NEAR(res.leaf_rects[3].w, 2.0, 1e-9);
}

TEST(BudgetLayout, FullBudgetAlwaysConsumed) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(6));
    std::vector<BudgetBlock> blocks;
    for (int i = 0; i < n; ++i) blocks.push_back(soft_block(rng.next_double(1, 10)));
    PolishExpression expr = PolishExpression::initial(n);
    for (int m = 0; m < 20; ++m) expr.perturb(rng);
    const Rect budget{0, 0, rng.next_double(5, 20), rng.next_double(5, 20)};
    const BudgetResult res = budget_layout(expr, blocks, budget);
    const double sum = std::accumulate(
        res.leaf_rects.begin(), res.leaf_rects.end(), 0.0,
        [](double acc, const Rect& r) { return acc + r.area(); });
    ASSERT_NEAR(sum, budget.area(), budget.area() * 1e-9);
    // No rect may leave the budget.
    for (const Rect& r : res.leaf_rects) ASSERT_TRUE(budget.contains(r, 1e-6));
  }
}

TEST(BudgetLayout, LeafRectsDisjoint) {
  Rng rng(9);
  const int n = 6;
  std::vector<BudgetBlock> blocks;
  for (int i = 0; i < n; ++i) blocks.push_back(soft_block(rng.next_double(1, 5)));
  PolishExpression expr = PolishExpression::initial(n);
  for (int m = 0; m < 30; ++m) expr.perturb(rng);
  const BudgetResult res = budget_layout(expr, blocks, Rect{0, 0, 10, 10});
  for (std::size_t i = 0; i < res.leaf_rects.size(); ++i) {
    for (std::size_t j = i + 1; j < res.leaf_rects.size(); ++j) {
      EXPECT_LT(res.leaf_rects[i].overlap_area(res.leaf_rects[j]), 1e-6);
    }
  }
}

TEST(BudgetLayout, MacroFeasibilityPullsAreaFromSibling) {
  // Left block holds a 6x2 macro; proportional split of a 8x2 budget
  // would give it width 4 only. The repair must widen it to 6.
  BudgetBlock left;
  left.gamma = ShapeCurve::for_rect(6, 2, false);
  left.am = 12;
  left.at = 8;  // lies: target smaller than macro demands at this height
  BudgetBlock right = soft_block(8);
  const PolishExpression expr({0, 1, kOpV});
  const BudgetResult res = budget_layout(expr, {left, right}, Rect{0, 0, 8, 2});
  EXPECT_GE(res.leaf_rects[0].w, 6.0 - 1e-9);
  EXPECT_TRUE(left.gamma.fits(res.leaf_rects[0].w, res.leaf_rects[0].h));
}

TEST(BudgetLayout, ImpossibleMacroChargedAsMacroDeficit) {
  BudgetBlock big;
  big.gamma = ShapeCurve::for_rect(10, 10, false);
  big.am = 100;
  big.at = 100;
  BudgetBlock other = soft_block(4);
  const PolishExpression expr({0, 1, kOpV});
  const BudgetResult res = budget_layout(expr, {big, other}, Rect{0, 0, 8, 8});
  EXPECT_GT(res.violations.macro_deficit, 0.0);
  EXPECT_EQ(res.violations.infeasible_leaves, 1);
}

TEST(BudgetLayout, AtDeficitWhenSiblingStarved) {
  // A macro block consuming most of the width leaves the sibling under
  // its target area -> at deficit, not am (am is small).
  BudgetBlock macro_block;
  macro_block.gamma = ShapeCurve::for_rect(9, 2, false);
  macro_block.am = 18;
  macro_block.at = 18;
  BudgetBlock soft;
  soft.at = 10.0;  // wants area 10 but only 2 remain
  soft.am = 1.0;
  const PolishExpression expr({0, 1, kOpV});
  const BudgetResult res = budget_layout(expr, {macro_block, soft}, Rect{0, 0, 10, 2});
  EXPECT_GT(res.violations.at_deficit, 5.0);
  EXPECT_DOUBLE_EQ(res.violations.am_deficit, 0.0);
  EXPECT_DOUBLE_EQ(res.violations.macro_deficit, 0.0);
}

TEST(BudgetLayout, AmDeficitMoreSevereCase) {
  BudgetBlock macro_block;
  macro_block.gamma = ShapeCurve::for_rect(9, 2, false);
  macro_block.am = 18;
  macro_block.at = 18;
  BudgetBlock soft;
  soft.at = 10.0;
  soft.am = 8.0;  // even the minimum is violated now
  const PolishExpression expr({0, 1, kOpV});
  const BudgetResult res = budget_layout(expr, {macro_block, soft}, Rect{0, 0, 10, 2});
  EXPECT_GT(res.violations.am_deficit, 0.0);
}

TEST(BudgetPenalty, GradedBySeverity) {
  BudgetViolations at_only;
  at_only.at_deficit = 10;
  BudgetViolations am_only;
  am_only.am_deficit = 10;
  BudgetViolations macro_only;
  macro_only.macro_deficit = 10;
  const double scale = 100.0;
  const double p_at = budget_penalty(at_only, scale);
  const double p_am = budget_penalty(am_only, scale);
  const double p_macro = budget_penalty(macro_only, scale);
  EXPECT_GT(p_at, 1.0);
  EXPECT_GT(p_am, p_at);
  EXPECT_GT(p_macro, p_am);
  EXPECT_DOUBLE_EQ(budget_penalty(BudgetViolations{}, scale), 1.0);
}

TEST(BudgetLayout, HorizontalCutSplitsHeight) {
  const std::vector<BudgetBlock> blocks = {soft_block(1), soft_block(3)};
  const PolishExpression expr({0, 1, kOpH});
  const BudgetResult res = budget_layout(expr, blocks, Rect{0, 0, 2, 4});
  EXPECT_NEAR(res.leaf_rects[0].h, 1.0, 1e-9);
  EXPECT_NEAR(res.leaf_rects[1].h, 3.0, 1e-9);
  EXPECT_NEAR(res.leaf_rects[0].w, 2.0, 1e-9);
  // Stacking order: first child at the bottom.
  EXPECT_NEAR(res.leaf_rects[0].y, 0.0, 1e-9);
  EXPECT_NEAR(res.leaf_rects[1].y, 1.0, 1e-9);
}

}  // namespace
}  // namespace hidap
