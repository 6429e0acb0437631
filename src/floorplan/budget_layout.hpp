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

struct BudgetOptions {
  std::size_t curve_points = 24;  ///< pruning cap for composed curves
  /// Incremental engine only: let clean subtrees skip their top-down
  /// split recomputation (see BudgetSkipContext). Bit-compatible with the
  /// full recompute by construction; the switch exists for benchmarking
  /// and differential testing, not as a safety valve.
  bool skip_splits = true;
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
};

/// Info of a leaf node (no curve pruning; mirrors the full recompute).
BudgetNodeInfo budget_leaf_info(const BudgetBlock& block);

/// Info of an internal node with operator `op` from its children's infos.
BudgetNodeInfo budget_compose_info(int op, const BudgetNodeInfo& l, const BudgetNodeInfo& r,
                                   std::size_t curve_points);

/// The violation adds one leaf fired during a pass, stored so a later
/// pass can replay them without re-deriving the values. Each accumulator
/// field is touched by at most one add per leaf, and whether an add fires
/// depends only on the block and its rectangle -- never on the running
/// totals -- so replaying the stored operands in the stored order from
/// ANY accumulator state reproduces the exact operation sequence (and
/// therefore the exact bits) of a fresh walk over identical rectangles.
struct BudgetLeafAdds {
  static constexpr std::uint8_t kAt = 1;     ///< at_deficit add fired
  static constexpr std::uint8_t kAm = 2;     ///< am_deficit add fired
  static constexpr std::uint8_t kMacro = 4;  ///< infeasible count + macro add fired
  double at_add = 0.0;
  double am_add = 0.0;
  double macro_add = 0.0;
  std::uint8_t flags = 0;

  bool fired() const { return flags != 0; }
};

/// Per-node record of one top-down assignment pass: the rectangle handed
/// to every slicing-tree node, plus a position-sorted journal of the
/// violation adds the pass's leaves fired. Node indexing follows the
/// element-position convention of the incremental engine (node i parses
/// from element position i, its subtree spanning positions
/// [span_start[i], i]); because the top-down walk visits left spans
/// before right spans, ascending element position IS the walk's visit
/// order, so the journal slice of span [span_start[i], i] replays node
/// i's subtree verbatim.
struct BudgetSplitCache {
  struct FiredLeaf {
    std::uint32_t pos = 0;  ///< element position of the leaf
    BudgetLeafAdds adds;
  };

  std::vector<Rect> node_rect;
  /// Leaves that fired at least one violation add, ascending by pos.
  std::vector<FiredLeaf> fired;

  void resize(std::size_t nodes) { node_rect.resize(nodes); }
};

/// Skippable top-down budget splits (ROADMAP perf item): when a subtree's
/// content is unchanged (`clean[i]`) and the rectangle handed to it is
/// bit-equal to the committed pass, the subtree is not walked. Its leaf
/// rects are the committed ones, and its violation adds replay from the
/// committed journal slice of its span -- the identical operands in the
/// identical order, which is bit-exact from any accumulator entry state
/// (see BudgetLeafAdds). The caller must pre-seed `result.leaf_rects`
/// with the committed leaf rects so the skipped span's leaves already
/// hold their (identical) values, unless `committed_leaf_rects` is set.
///
/// `record`, when set, captures this pass's per-node rects and fired-add
/// journal (skipped spans are copied over from `committed`) so it can
/// serve as the `committed` side of a later pass. The incremental engine
/// leaves it null while proposing and records only when a proposal is
/// committed, so rejected moves never pay for snapshot stores.
struct BudgetSkipContext {
  const BudgetSplitCache* committed = nullptr;  ///< skip source; may be null
  const std::uint8_t* clean = nullptr;  ///< per node: subtree content unchanged
  const int* span_start = nullptr;      ///< per node: first element position of its span
  BudgetSplitCache* record = nullptr;   ///< this pass's snapshots; may be null
  /// Committed leaf rects (indexed by leaf id). When set, a skipped
  /// span's leaf rects are copied into the result right in the skip
  /// branch; when null, the caller must have pre-seeded
  /// `result.leaf_rects` with them instead.
  const std::vector<Rect>* committed_leaf_rects = nullptr;
};

/// Top-down assignment pass: splits `budget` down the slicing tree using
/// the precomputed per-node infos (`infos[i]` describes `tree.nodes[i]`),
/// writing leaf rectangles and graded violations into `result` (which
/// must have `leaf_rects` pre-sized to the block count). This is the
/// second half of budget_layout(), shared with the incremental engine so
/// both produce bit-identical rects and violation totals. `skip`
/// optionally enables clean-subtree split skipping and per-node
/// recording; passing nullptr is the plain full pass.
void budget_assign(const SlicingTree& tree, const BudgetNodeInfo* const* infos,
                   const std::vector<BudgetBlock>& blocks, const Rect& budget,
                   BudgetResult& result, const BudgetSkipContext* skip = nullptr);

/// Lays out `blocks` (operand id -> block) inside `budget` according to
/// the slicing structure of `expr`.
BudgetResult budget_layout(const PolishExpression& expr,
                           const std::vector<BudgetBlock>& blocks, const Rect& budget,
                           const BudgetOptions& options = {});

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
