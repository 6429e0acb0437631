// Differential property tests for the incremental layout evaluator:
// thousands of randomized propose/commit/rollback sequences, each step
// checked against the full-recompute oracle. The contract is
// bit-identity (EXPECT_EQ on doubles, strictly stronger than the 1e-9
// tolerance the engine promises): cached subtree infos must reproduce
// the oracle's arithmetic exactly, including after rejected-move
// rollbacks, or the annealer's accept/reject sequence -- and the final
// placement -- would diverge between the two modes.

#include <gtest/gtest.h>

#include <vector>

#include "core/layout_optimizer.hpp"
#include "floorplan/incremental_eval.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

// --- randomized layout problems --------------------------------------

struct GeneratedProblem {
  LayoutProblem problem;
  std::vector<BudgetBlock> blocks;
  std::vector<Point> terminals;
  AffinityMatrix affinity{0, 0};
};

GeneratedProblem make_problem(std::uint64_t seed) {
  Rng rng(seed);
  GeneratedProblem g;
  const int n = rng.next_int(2, 12);
  const int t = rng.next_int(0, 3);
  const double side = rng.next_double(20, 200);
  g.problem.region = {rng.next_double(0, 10), rng.next_double(0, 10), side,
                      side * rng.next_double(0.6, 1.6)};
  for (int i = 0; i < n; ++i) {
    BudgetBlock b;
    b.at = rng.next_double(10, 0.2 * g.problem.region.area() / n * 4);
    b.am = b.at * rng.next_double(0.5, 1.0);
    if (rng.next_bool(0.5)) {
      // Macro block; occasionally too large to fit, so the penalty and
      // macro-deficit paths are exercised as well.
      const double w = rng.next_double(2, 0.45 * side);
      b.gamma = ShapeCurve::for_rect(w, rng.next_double(2, 0.45 * side));
    }
    g.blocks.push_back(b);
  }
  for (int i = 0; i < t; ++i) {
    g.terminals.push_back({rng.next_double(0, side), rng.next_double(0, side)});
  }
  const auto nodes = static_cast<std::size_t>(n + t);
  g.affinity = AffinityMatrix(nodes, nodes);
  const int edges = rng.next_int(1, n * 2);
  for (int e = 0; e < edges; ++e) {
    const auto i = static_cast<std::size_t>(rng.next_int(0, n + t - 1));
    const auto j = static_cast<std::size_t>(rng.next_int(0, n + t - 1));
    if (i != j) g.affinity.set(i, j, rng.next_double(0.05, 1.0));
  }
  g.problem.blocks = g.blocks;
  g.problem.terminals = g.terminals;
  // The affinity pointer is re-anchored by the caller: `g` is returned by
  // value and a move would leave the pointer at the expired temporary.
  g.problem.affinity = nullptr;
  return g;
}

void expect_layout_state_matches_oracle(const GeneratedProblem& g,
                                        const IncrementalLayoutEval& eval) {
  BudgetResult oracle_layout;
  const double oracle = evaluate_layout_full(g.problem, eval.expression(), &oracle_layout);
  EXPECT_EQ(eval.cost(), oracle);
  ASSERT_EQ(eval.rects().size(), oracle_layout.leaf_rects.size());
  for (std::size_t b = 0; b < eval.rects().size(); ++b) {
    EXPECT_EQ(eval.rects()[b], oracle_layout.leaf_rects[b]) << "block " << b;
  }
  EXPECT_EQ(eval.violations().at_deficit, oracle_layout.violations.at_deficit);
  EXPECT_EQ(eval.violations().am_deficit, oracle_layout.violations.am_deficit);
  EXPECT_EQ(eval.violations().macro_deficit, oracle_layout.violations.macro_deficit);
  EXPECT_EQ(eval.violations().infeasible_leaves, oracle_layout.violations.infeasible_leaves);
}

TEST(IncrementalLayoutEval, RandomWalkMatchesFullRecomputeBitForBit) {
  set_log_level(LogLevel::Warn);
  // 0.6 mixes rollbacks into the walk; 0.95 is the acceptance rate the
  // shipped anneal schedules run at.
  for (const double commit_p : {0.6, 0.95}) {
    for (std::uint64_t problem_seed = 1; problem_seed <= 12; ++problem_seed) {
      GeneratedProblem g = make_problem(problem_seed);
      g.problem.affinity = &g.affinity;
      const int n = static_cast<int>(g.blocks.size());
      IncrementalLayoutEval eval(g.problem.blocks, g.problem.region, g.problem.terminals,
                                 *g.problem.affinity, PolishExpression::initial(n));
      expect_layout_state_matches_oracle(g, eval);

      Rng rng(problem_seed * 7919 + 3);
      for (int step = 0; step < 250; ++step) {
        const double inc_cost = eval.propose([&rng](PolishExpression& expr) {
          for (int tries = 0; tries < 8; ++tries) {
            if (expr.perturb(rng)) break;
          }
        });
        ASSERT_TRUE(eval.proposed_expression().is_valid());
        // Oracle on the in-flight proposal: the spec allows 1e-9, the
        // implementation delivers exact equality -- assert the stronger.
        const double oracle = evaluate_layout_full(g.problem, eval.proposed_expression());
        ASSERT_EQ(inc_cost, oracle)
            << "commit_p " << commit_p << " problem " << problem_seed << " step " << step
            << " expr " << eval.proposed_expression().to_string();
        if (rng.next_bool(commit_p)) {
          eval.commit();
        } else {
          eval.rollback();
        }
        // The committed state must survive rollbacks unscathed.
        ASSERT_EQ(eval.cost(), evaluate_layout_full(g.problem, eval.expression()));
      }
      expect_layout_state_matches_oracle(g, eval);
    }
  }
}

TEST(IncrementalLayoutEval, RepeatedRollbacksLeaveCommittedStateIntact) {
  GeneratedProblem g = make_problem(42);
  g.problem.affinity = &g.affinity;
  const int n = static_cast<int>(g.blocks.size());
  IncrementalLayoutEval eval(g.problem.blocks, g.problem.region, g.problem.terminals,
                             *g.problem.affinity, PolishExpression::initial(n));
  const double cost0 = eval.cost();
  const PolishExpression expr0 = eval.expression();
  Rng rng(99);
  for (int i = 0; i < 64; ++i) {
    eval.propose([&rng](PolishExpression& expr) { expr.perturb(rng); });
    eval.rollback();
  }
  EXPECT_EQ(eval.cost(), cost0);
  EXPECT_EQ(eval.expression().elements(), expr0.elements());
  expect_layout_state_matches_oracle(g, eval);
}

TEST(IncrementalLayoutEval, NoOpProposalKeepsCost) {
  GeneratedProblem g = make_problem(7);
  g.problem.affinity = &g.affinity;
  const int n = static_cast<int>(g.blocks.size());
  IncrementalLayoutEval eval(g.problem.blocks, g.problem.region, g.problem.terminals,
                             *g.problem.affinity, PolishExpression::initial(n));
  const double cost0 = eval.cost();
  const double proposed = eval.propose([](PolishExpression&) {});
  EXPECT_EQ(proposed, cost0);
  eval.commit();
  EXPECT_EQ(eval.cost(), cost0);
}

}  // namespace
}  // namespace hidap
