#include "core/layout_optimizer.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "floorplan/annealer.hpp"
#include "floorplan/incremental_eval.hpp"
#include "util/log.hpp"

namespace hidap {

namespace {

std::vector<Point> pair_centers(const LayoutProblem& problem,
                                const std::vector<Rect>& rects) {
  const std::size_t n = problem.blocks.size();
  std::vector<Point> centers(n + problem.terminals.size());
  for (std::size_t i = 0; i < n; ++i) centers[i] = rects[i].center();
  for (std::size_t t = 0; t < problem.terminals.size(); ++t) {
    centers[n + t] = problem.terminals[t];
  }
  return centers;
}

}  // namespace

double layout_connectivity_cost(const LayoutProblem& problem,
                                const std::vector<Rect>& rects) {
  const AffinityMatrix& aff = *problem.affinity;
  const std::size_t n = problem.blocks.size();
  const std::size_t total = n + problem.terminals.size();
  assert(aff.size() == total);

  const std::vector<Point> centers = pair_centers(problem, rects);
  double cost = 0.0;
  for (std::size_t i = 0; i < total; ++i) {
    // Pairs among terminals are constant: skip j >= n when i >= n.
    const std::size_t j_end = (i < n) ? total : n;
    for (std::size_t j = i + 1; j < j_end; ++j) {
      const double a = aff.at(i, j);
      if (a > 0) cost += a * manhattan(centers[i], centers[j]);
    }
  }
  return cost;
}

double evaluate_layout_full(const LayoutProblem& problem, const PolishExpression& expr,
                            BudgetResult* out_result) {
  BudgetResult res = budget_layout(expr, problem.blocks, problem.region);
  const double conn = layout_connectivity_cost(problem, res.leaf_rects);
  const double cost = layout_objective(res.violations, conn, problem.region);
  if (out_result) *out_result = std::move(res);
  return cost;
}

LayoutSolution optimize_layout(const LayoutProblem& problem,
                               const AnnealOptions& anneal_options) {
  assert(problem.affinity != nullptr);
  LayoutSolution solution;
  const std::size_t n = problem.blocks.size();
  if (n == 0) return solution;

  PolishExpression current = PolishExpression::initial(static_cast<int>(n));
  if (n == 1) {
    solution.expression = current;
    BudgetResult res;
    solution.cost = evaluate_layout_full(problem, current, &res);
    solution.rects = std::move(res.leaf_rects);
    solution.violations = res.violations;
    return solution;
  }

  AnnealOptions opts = anneal_options;
  opts.moves_per_temperature =
      std::max(opts.moves_per_temperature, static_cast<int>(n) * 12);
  opts.obs_site = "anneal_layout";

  // Chain-local SA state; chain c only ever touches states[c], so the
  // chains can run on pool threads without synchronization. Both
  // evaluation modes draw the identical RNG stream (the same perturb
  // retry loop) and produce bit-identical costs, so they accept and
  // reject the same moves and land on the same expression.
  struct ChainState {
    PolishExpression current, backup, best;
    std::unique_ptr<IncrementalLayoutEval> inc;
    Rng rng{0};
  };
  std::vector<ChainState> states(static_cast<std::size_t>(std::max(1, opts.chains)));
  const auto perturb_retry = [](PolishExpression& expr, Rng& rng) {
    for (int tries = 0; tries < 8; ++tries) {
      if (expr.perturb(rng)) break;
    }
  };
  const auto make_chain = [&problem, &states, n, perturb_retry,
                           incremental = opts.incremental](int c, std::uint64_t seed) {
    ChainState& st = states[static_cast<std::size_t>(c)];
    st.rng.reseed(seed ^ 0x7fb5d329728ea185ULL);
    AnnealChain chain;
    if (incremental) {
      st.inc = std::make_unique<IncrementalLayoutEval>(
          problem.blocks, problem.region, problem.terminals, *problem.affinity,
          PolishExpression::initial(static_cast<int>(n)));
      st.best = st.inc->expression();
      chain.initial_cost = st.inc->cost();
      chain.hooks.propose = [&st, perturb_retry]() {
        return st.inc->propose(
            [&st, perturb_retry](PolishExpression& expr) { perturb_retry(expr, st.rng); });
      };
      chain.hooks.commit = [&st]() { st.inc->commit(); };
      chain.hooks.reject = [&st]() { st.inc->rollback(); };
      chain.hooks.on_new_best = [&st](double) { st.best = st.inc->expression(); };
    } else {
      st.current = PolishExpression::initial(static_cast<int>(n));
      st.backup = st.current;
      st.best = st.current;
      chain.initial_cost = evaluate_layout_full(problem, st.current, nullptr);
      chain.hooks.propose = [&problem, &st, perturb_retry]() {
        st.backup = st.current;
        perturb_retry(st.current, st.rng);
        return evaluate_layout_full(problem, st.current, nullptr);
      };
      chain.hooks.reject = [&st]() { st.current = st.backup; };
      chain.hooks.on_new_best = [&st](double) { st.best = st.current; };
    }
    return chain;
  };

  int winner = 0;
  anneal_multichain(opts, make_chain, &winner, problem.num_threads);
  PolishExpression& best = states[static_cast<std::size_t>(winner)].best;

  BudgetResult res;
  solution.cost = evaluate_layout_full(problem, best, &res);
  solution.expression = std::move(best);
  solution.rects = std::move(res.leaf_rects);
  solution.violations = res.violations;
  return solution;
}

}  // namespace hidap
