#pragma once
// Top-down area-budget layout generation (paper sect. IV-E, Fig. 8).
//
// Unlike bottom-up packing, the layout dimensions are a *budget*, not a
// constraint: the layout always occupies exactly the assigned rectangle.
// At every slicing-tree node the rectangle is split (direction given by
// the node operator) proportionally to the target areas `at` of the two
// subtrees. Macro feasibility (the subtree shape curve Gamma must fit in
// the assigned rectangle) is repaired by moving area from the sibling;
// the repair cost is graded by what kind of area the sibling yielded --
// free slack above at (cheapest), target area at, minimum area am, or
// outright macro infeasibility (most severe).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "floorplan/polish_expression.hpp"
#include "geometry/geometry.hpp"
#include "geometry/shape_curve.hpp"

namespace hidap {

/// Per-leaf characterization <Gamma, am, at> (paper sect. II-D).
struct BudgetBlock {
  ShapeCurve gamma;   ///< macro shape curve; empty for pure-soft blocks
  double am = 0.0;    ///< minimum area (macros + std cells)
  double at = 0.0;    ///< target area (am + assigned glue area)
};

/// Violation totals, graded by severity (um^2 of deficit).
struct BudgetViolations {
  double at_deficit = 0.0;     ///< leaf rect area below its target area
  double am_deficit = 0.0;     ///< leaf rect area below its minimum area
  double macro_deficit = 0.0;  ///< area by which macros overflow their rect
  int infeasible_leaves = 0;   ///< leaves whose Gamma does not fit at all

  bool clean() const {
    return at_deficit <= 0.0 && am_deficit <= 0.0 && macro_deficit <= 0.0;
  }
};

struct BudgetResult {
  std::vector<Rect> leaf_rects;  ///< indexed by operand id
  BudgetViolations violations;
};

/// Per-slicing-node aggregate computed bottom-up before the top-down pass
/// (the paper's Gamma_n, a^n_m, a^n_t characterization of subtrees).
///
/// Exposed so IncrementalLayoutEval can cache per-node infos across SA
/// moves; a node's info is a pure function of its subtree, so a cached
/// value is bit-identical to what a full recompute would produce.
struct BudgetNodeInfo {
  ShapeCurve gamma;
  double am = 0.0;
  double at = 0.0;
  /// Index of gamma's first minimum-area point (0 when gamma is empty):
  /// the demand of a subtree whose curve fits no cross extent.
  std::uint32_t min_area_point = 0;
};

/// Info of a leaf node (no curve pruning; mirrors the full recompute).
BudgetNodeInfo budget_leaf_info(const BudgetBlock& block);

/// Info of an internal node with operator `op` from its children's
/// infos, written into `out` (reusing its curve capacity; `out` must not
/// alias a child).
void budget_compose_info(int op, const BudgetNodeInfo& l, const BudgetNodeInfo& r,
                         BudgetNodeInfo& out);

/// Largest point count budget_compose_info holds in `out` while
/// composing children of at most `child_points` points each; reserving
/// it keeps a reused info slot off the heap.
std::size_t budget_compose_capacity(std::size_t child_points);

/// Top-down assignment pass: splits `budget` down the slicing tree using
/// the precomputed per-node infos (`infos[i]` describes `tree.nodes[i]`),
/// writing leaf rectangles and graded violations into `result` (which
/// must have `leaf_rects` pre-sized to the block count). This is the
/// second half of budget_layout(), shared with the incremental engine so
/// both produce bit-identical rects and violation totals.
void budget_assign(const SlicingTree& tree, const BudgetNodeInfo* const* infos,
                   const std::vector<BudgetBlock>& blocks, const Rect& budget,
                   BudgetResult& result);

/// Lays out `blocks` (operand id -> block) inside `budget` according to
/// the slicing structure of `expr`.
BudgetResult budget_layout(const PolishExpression& expr,
                           const std::vector<BudgetBlock>& blocks, const Rect& budget);

/// Multiplicative penalty derived from the violations: 1 for a clean
/// layout, growing with graded severity. `scale_area` normalizes deficits
/// (usually the budget area).
double budget_penalty(const BudgetViolations& v, double scale_area);

/// The layout SA objective combiner: graded penalty times connectivity
/// cost. Shared (inline, single definition) by the full-recompute oracle
/// (evaluate_layout_full) and IncrementalLayoutEval so both compute
/// bit-identical costs. A small base keeps the penalty gradient alive
/// when connectivity is zero (degenerate affinity), so SA still repairs
/// infeasible layouts.
inline double layout_objective(const BudgetViolations& violations, double connectivity,
                               const Rect& region) {
  const double penalty = budget_penalty(violations, region.area());
  const double base = 0.01 * (region.w + region.h);
  return penalty * (connectivity + base);
}

}  // namespace hidap
