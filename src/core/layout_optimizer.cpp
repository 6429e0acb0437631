#include "core/layout_optimizer.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "floorplan/annealer.hpp"
#include "floorplan/incremental_eval.hpp"

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

  // Both evaluation modes draw the identical RNG stream (the same
  // perturb retry loop) and produce bit-identical costs, so they accept
  // and reject the same moves and land on the same expression.
  Rng rng(opts.seed ^ 0x7fb5d329728ea185ULL);
  const auto perturb_retry = [&rng](PolishExpression& expr) {
    for (int tries = 0; tries < 8; ++tries) {
      if (expr.perturb(rng)) break;
    }
  };
  PolishExpression best, backup;
  std::unique_ptr<IncrementalLayoutEval> inc;
  double initial_cost = 0.0;
  AnnealHooks hooks;
  if (opts.incremental) {
    inc = std::make_unique<IncrementalLayoutEval>(problem.blocks, problem.region,
                                                  problem.terminals, *problem.affinity,
                                                  current);
    best = inc->expression();
    initial_cost = inc->cost();
    hooks.propose = [&]() { return inc->propose(perturb_retry); };
    hooks.commit = [&]() { inc->commit(); };
    hooks.reject = [&]() { inc->rollback(); };
    hooks.on_new_best = [&](double) { best = inc->expression(); };
  } else {
    best = current;
    initial_cost = evaluate_layout_full(problem, current, nullptr);
    hooks.propose = [&]() {
      backup = current;
      perturb_retry(current);
      return evaluate_layout_full(problem, current, nullptr);
    };
    hooks.reject = [&]() { current = backup; };
    hooks.on_new_best = [&](double) { best = current; };
  }
  anneal(initial_cost, opts, hooks);

  BudgetResult res;
  solution.cost = evaluate_layout_full(problem, best, &res);
  solution.expression = std::move(best);
  solution.rects = std::move(res.leaf_rects);
  solution.violations = res.violations;
  return solution;
}

}  // namespace hidap
