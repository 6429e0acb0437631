// Differential property tests for the incremental move-evaluation
// engines: thousands of randomized propose/commit/rollback sequences,
// each step checked against the full-recompute oracle. The contract is
// bit-identity (EXPECT_EQ on doubles, strictly stronger than the 1e-9
// tolerance the engines promise): cached subtree infos and cached cost
// terms must reproduce the oracle's arithmetic exactly, including after
// rejected-move rollbacks, or the annealer's accept/reject sequence --
// and the final placement -- would diverge between the two modes.

#include <gtest/gtest.h>

#include <utility>
#include <array>
#include <span>
#include <vector>

#include "baseline/flat_cost.hpp"
#include "core/hidap.hpp"
#include "core/layout_optimizer.hpp"
#include "floorplan/incremental_eval.hpp"
#include "gen/suite.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

// --- randomized layout problems --------------------------------------

struct GeneratedProblem {
  LayoutProblem problem;
  std::vector<BudgetBlock> blocks;
  std::vector<Point> terminals;
  AffinityMatrix affinity{0};
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
  g.affinity = AffinityMatrix(static_cast<std::size_t>(n + t));
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

// --- multi-chain SA across pool threads -------------------------------

TEST(IncrementalLayoutEval, MultichainAcrossPoolThreadsMatchesOracle) {
  // Each SA chain owns one IncrementalLayoutEval and the chains run on
  // the global thread pool (sized by HIDAP_THREADS in CI's TSan leg, so
  // this walk is what surfaces cross-thread sharing bugs). The winning
  // solution must be byte-identical to the full-recompute run at any
  // thread count.
  set_log_level(LogLevel::Warn);
  GeneratedProblem g = make_problem(5);
  g.problem.affinity = &g.affinity;
  g.problem.num_threads = 0;  // pool default: HIDAP_THREADS or hardware

  AnnealOptions on;
  on.seed = 31;
  on.moves_per_temperature = 120;
  on.cooling = 0.85;
  on.chains = 4;
  on.incremental = true;
  AnnealOptions off = on;
  off.incremental = false;

  const LayoutSolution a = optimize_layout(g.problem, on);
  const LayoutSolution b = optimize_layout(g.problem, off);
  EXPECT_EQ(a.expression.elements(), b.expression.elements());
  EXPECT_EQ(a.cost, b.cost);
  ASSERT_EQ(a.rects.size(), b.rects.size());
  for (std::size_t i = 0; i < a.rects.size(); ++i) EXPECT_EQ(a.rects[i], b.rects[i]);

  // And the incremental run is thread-count independent.
  LayoutProblem serial = g.problem;
  serial.num_threads = 1;
  const LayoutSolution c = optimize_layout(serial, on);
  EXPECT_EQ(a.expression.elements(), c.expression.elements());
  EXPECT_EQ(a.cost, c.cost);
}

// --- flat SA delta evaluator ------------------------------------------

struct FlatFixture {
  Design design;
  PlacementContext ctx;
  FlatFixture() : design(generate_circuit(fig1_spec())), ctx(design) {
    set_log_level(LogLevel::Warn);
  }
};

FlatFixture& flat_fixture() {
  static FlatFixture* fx = new FlatFixture();
  return *fx;
}

std::vector<MacroPlacement> initial_flat_state(const Design& design, Rng& rng) {
  const Rect die{0, 0, design.die().w, design.die().h};
  std::vector<MacroPlacement> state;
  for (const CellId cell : design.macros()) {
    const MacroDef& def = design.macro_def_of(cell);
    state.push_back({cell,
                     Rect{rng.next_double(die.x, die.xmax() * 0.7),
                          rng.next_double(die.y, die.ymax() * 0.7), def.w, def.h},
                     Orientation::R0});
  }
  return state;
}

TEST(IncrementalFlatCost, RandomWalkMatchesFullRecomputeBitForBit) {
  FlatFixture& fx = flat_fixture();
  const Rect die{0, 0, fx.design.die().w, fx.design.die().h};
  const FlatCostModel model(fx.design, fx.ctx.seq, die, 4.0);

  Rng rng(1234);
  std::vector<MacroPlacement> state = initial_flat_state(fx.design, rng);
  ASSERT_GE(state.size(), 2u);
  IncrementalFlatCost inc(model, state);
  EXPECT_EQ(inc.cost(), model(state));

  for (int step = 0; step < 1500; ++step) {
    // One random move: swap two centers, displace, or rotate.
    std::array<std::size_t, 2> moved{};
    std::size_t count = 1;
    std::array<MacroPlacement, 2> saved{};
    const std::size_t i = rng.next_below(state.size());
    const int kind = rng.next_int(0, 2);
    if (kind == 0) {
      const std::size_t j = rng.next_below(state.size());
      moved = {i, j};
      count = j == i ? 1 : 2;
      saved = {state[i], state[j]};
      const Point ci = state[i].rect.center();
      const Point cj = state[j].rect.center();
      state[i].rect.x = cj.x - state[i].rect.w / 2;
      state[i].rect.y = cj.y - state[i].rect.h / 2;
      state[j].rect.x = ci.x - state[j].rect.w / 2;
      state[j].rect.y = ci.y - state[j].rect.h / 2;
    } else if (kind == 1) {
      moved = {i, i};
      saved[0] = state[i];
      state[i].rect.x += rng.next_double(-0.2, 0.2) * die.w;
      state[i].rect.y += rng.next_double(-0.2, 0.2) * die.h;
    } else {
      moved = {i, i};
      saved[0] = state[i];
      const Point c = state[i].rect.center();
      std::swap(state[i].rect.w, state[i].rect.h);
      state[i].rect.x = c.x - state[i].rect.w / 2;
      state[i].rect.y = c.y - state[i].rect.h / 2;
    }

    const double inc_cost =
        inc.propose(state, std::span<const std::size_t>(moved.data(), count));
    ASSERT_EQ(inc_cost, model(state)) << "step " << step << " kind " << kind;

    if (rng.next_bool(0.55)) {
      inc.commit();
    } else {
      for (std::size_t u = count; u-- > 0;) state[moved[u]] = saved[u];
      inc.rollback();
    }
    ASSERT_EQ(inc.cost(), model(state)) << "after commit/rollback, step " << step;
  }
}

TEST(IncrementalFlatCost, RollbackRestoresCachedTerms) {
  FlatFixture& fx = flat_fixture();
  const Rect die{0, 0, fx.design.die().w, fx.design.die().h};
  const FlatCostModel model(fx.design, fx.ctx.seq, die, 4.0);
  Rng rng(5);
  std::vector<MacroPlacement> state = initial_flat_state(fx.design, rng);
  IncrementalFlatCost inc(model, state);
  const double cost0 = inc.cost();
  for (int r = 0; r < 32; ++r) {
    const std::size_t i = rng.next_below(state.size());
    const MacroPlacement saved = state[i];
    state[i].rect.x += rng.next_double(-5, 5);
    const std::array<std::size_t, 1> moved{i};
    inc.propose(state, std::span<const std::size_t>(moved.data(), 1));
    state[i] = saved;
    inc.rollback();
  }
  EXPECT_EQ(inc.cost(), cost0);
  EXPECT_EQ(inc.cost(), model(state));
}

}  // namespace
}  // namespace hidap
