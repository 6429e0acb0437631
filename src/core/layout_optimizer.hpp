#pragma once
// Layout generation (paper sect. IV-E, Algorithm 2 step 6).
//
// Simulated annealing over normalized Polish expressions; every candidate
// is realized with the top-down budget layout and costed as
//     penalty * sum_{i,j} distance(center_i, center_j) * Maff[i][j]
// over all Gdf node pairs with at least one movable member. Fixed
// terminals (ports, outside macros) contribute distance from their given
// positions.

#include "core/options.hpp"
#include "dataflow/affinity.hpp"
#include "floorplan/budget_layout.hpp"
#include "geometry/geometry.hpp"

namespace hidap {

struct LayoutProblem {
  Rect region;
  std::vector<BudgetBlock> blocks;   ///< movable (affinity rows 0..n-1)
  std::vector<Point> terminals;      ///< fixed (affinity rows n..n+t-1)
  const AffinityMatrix* affinity = nullptr;  ///< size n + t
};

struct LayoutSolution {
  std::vector<Rect> rects;           ///< one per movable block
  PolishExpression expression;
  BudgetViolations violations;
  double cost = 0.0;
};

/// Connectivity cost of given block rectangles (exposed for tests and the
/// handFP refinement): penalty excluded.
double layout_connectivity_cost(const LayoutProblem& problem,
                                const std::vector<Rect>& rects);

/// Full-recompute SA objective of one candidate expression: budget layout
/// plus graded penalty times connectivity. This is the reference oracle
/// for IncrementalLayoutEval, which reproduces it bit for bit; the
/// differential suite (tests/test_incremental_eval.cpp) compares the two
/// on every move.
double evaluate_layout_full(const LayoutProblem& problem, const PolishExpression& expr,
                            BudgetResult* out_result = nullptr);

LayoutSolution optimize_layout(const LayoutProblem& problem,
                               const AnnealOptions& anneal_options);

}  // namespace hidap
