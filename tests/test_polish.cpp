// Normalized Polish expression tests: validity, Wong-Liu moves keep
// invariants (property sweep), slicing-tree decoding.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "floorplan/polish_expression.hpp"

namespace hidap {
namespace {

TEST(Polish, InitialIsValid) {
  for (int n = 1; n <= 12; ++n) {
    const PolishExpression e = PolishExpression::initial(n);
    EXPECT_TRUE(e.is_valid()) << e.to_string();
    EXPECT_EQ(e.operand_count(), n);
    EXPECT_EQ(e.size(), static_cast<std::size_t>(2 * n - 1));
  }
}

TEST(Polish, ValidityRejectsBadExpressions) {
  EXPECT_FALSE(PolishExpression(std::vector<int>{}).is_valid());
  EXPECT_FALSE(PolishExpression({kOpV}).is_valid());
  EXPECT_FALSE(PolishExpression({0, kOpV, 1}).is_valid());        // operator too early
  EXPECT_FALSE(PolishExpression({0, 1, 2, kOpV}).is_valid());     // missing operator
  EXPECT_FALSE(PolishExpression({0, 1, kOpV, 2, kOpV, kOpV}).is_valid());  // unbalanced
  // Non-normalized: two identical adjacent operators.
  EXPECT_FALSE(PolishExpression({0, 1, kOpV, 2, kOpV, 3, kOpV, kOpV}).is_valid());
  EXPECT_TRUE(PolishExpression({0, 1, kOpV, 2, kOpH}).is_valid());
}

TEST(Polish, SwapOperandsKeepsStructure) {
  Rng rng(1);
  PolishExpression e = PolishExpression::initial(6);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(e.move_swap_operands(rng));
    ASSERT_TRUE(e.is_valid()) << e.to_string();
  }
  // All operands still present exactly once.
  std::set<int> ops;
  for (const int el : e.elements()) {
    if (!is_operator(el)) ops.insert(el);
  }
  EXPECT_EQ(ops.size(), 6u);
}

TEST(Polish, InvertChainFlipsOperators) {
  Rng rng(2);
  PolishExpression e = PolishExpression::initial(2);  // "0 1 V"
  ASSERT_TRUE(e.move_invert_chain(rng));
  EXPECT_EQ(e.elements()[2], kOpH);
  ASSERT_TRUE(e.is_valid());
}

class PolishMoveProperty : public ::testing::TestWithParam<int> {};

TEST_P(PolishMoveProperty, RandomMoveSequencePreservesInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 3 + GetParam() % 9;
  PolishExpression e = PolishExpression::initial(n);
  int applied = 0;
  for (int i = 0; i < 500; ++i) {
    PolishExpression before = e;
    if (e.perturb(rng)) {
      ++applied;
      ASSERT_TRUE(e.is_valid()) << "after move " << i << ": " << e.to_string();
      ASSERT_EQ(e.operand_count(), n);
      ASSERT_EQ(e.size(), before.size());
    } else {
      ASSERT_EQ(e, before);  // failed move must not corrupt state
    }
  }
  EXPECT_GT(applied, 250);  // moves should mostly succeed
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolishMoveProperty, ::testing::Range(1, 13));

TEST(SlicingTree, DecodeSimple) {
  // "0 1 V 2 H": (0|1) stacked under 2... V = side by side, then H stacks.
  const PolishExpression e({0, 1, kOpV, 2, kOpH});
  const SlicingTree t = SlicingTree::from_polish(e);
  ASSERT_EQ(t.nodes.size(), 5u);
  const auto& root = t.nodes[static_cast<std::size_t>(t.root)];
  EXPECT_FALSE(root.is_leaf());
  EXPECT_EQ(root.op, kOpH);
  const auto& left = t.nodes[static_cast<std::size_t>(root.left)];
  EXPECT_EQ(left.op, kOpV);
  const auto& right = t.nodes[static_cast<std::size_t>(root.right)];
  EXPECT_TRUE(right.is_leaf());
  EXPECT_EQ(right.leaf, 2);
}

TEST(SlicingTree, InvalidExpressionThrows) {
  EXPECT_THROW(SlicingTree::from_polish(PolishExpression({0, kOpV})),
               std::invalid_argument);
  EXPECT_THROW(SlicingTree::from_polish(PolishExpression({0, 1})),
               std::invalid_argument);
}

TEST(Polish, ToStringReadable) {
  const PolishExpression e({0, 1, kOpV, 2, kOpH});
  EXPECT_EQ(e.to_string(), "0 1 V 2 H");
}

// Every valid normalized expression over n operands, by depth-first
// construction: an unused operand, or an operator that keeps the
// balloting property and differs from the element before it.
void enumerate_normalized(int n, std::vector<int>& elems, unsigned used, int operators,
                          std::vector<PolishExpression>& out) {
  const int operands = std::popcount(used);
  if (operands == n && operators == n - 1) {
    out.emplace_back(elems);
    return;
  }
  for (int k = 0; k < n; ++k) {
    if ((used & (1u << k)) != 0) continue;
    elems.push_back(k);
    enumerate_normalized(n, elems, used | (1u << k), operators, out);
    elems.pop_back();
  }
  for (const int op : {kOpH, kOpV}) {
    if (operators + 1 >= operands || elems.back() == op) continue;
    elems.push_back(op);
    enumerate_normalized(n, elems, used, operators + 1, out);
    elems.pop_back();
  }
}

TEST(ExpressionSpace, CountMatchesBruteForceAndTracksOnlyUpToThreeOperands) {
  const std::uint64_t expected[] = {1, 4, 36, 528, 10800};
  for (int n = 1; n <= 5; ++n) {
    std::vector<PolishExpression> all;
    std::vector<int> elems;
    enumerate_normalized(n, elems, 0, 0, all);
    for (const PolishExpression& e : all) ASSERT_TRUE(e.is_valid()) << e.to_string();
    EXPECT_EQ(all.size(), expected[n - 1]) << "n " << n;
    EXPECT_EQ(normalized_expression_count(n), all.size()) << "n " << n;

    ExpressionSpaceTracker tracker(n);
    EXPECT_EQ(tracker.tracking(), n <= 3) << "n " << n;
    // Each expression twice, the second pass in reverse: repeats never
    // count, and only the last new one exhausts the space.
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_FALSE(tracker.exhausted()) << "n " << n << " after " << i;
      tracker.record(all[i]);
      tracker.record(all[i / 2]);
    }
    EXPECT_EQ(tracker.exhausted(), n <= 3) << "n " << n;
  }
  EXPECT_EQ(normalized_expression_count(0), 0u);
  EXPECT_EQ(normalized_expression_count(12), 479001600ull * 5293446ull);
  EXPECT_EQ(normalized_expression_count(13), std::numeric_limits<std::uint64_t>::max());
}

// The annealers' walk stays inside the tracked space: random Polish
// moves from the initial expression reach all 4 and 36 expressions.
TEST(ExpressionSpace, RandomMovesReachEveryTinyExpression) {
  for (int n = 2; n <= 3; ++n) {
    ExpressionSpaceTracker tracker(n);
    PolishExpression e = PolishExpression::initial(n);
    tracker.record(e);
    Rng rng(static_cast<std::uint64_t>(n));
    int moves = 0;
    while (!tracker.exhausted() && moves < 10000) {
      e.perturb(rng);
      tracker.record(e);
      ++moves;
    }
    EXPECT_TRUE(tracker.exhausted()) << "n " << n;
  }
}

}  // namespace
}  // namespace hidap
