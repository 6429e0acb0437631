#pragma once
// Bottom-up Wong-Liu area floorplanner over shape curves.
//
// Used for shape-curve generation (paper sect. IV-A): given the shape
// curves of the components under a hierarchy node, simulated annealing
// over slicing structures finds packings with small area; the Pareto
// union of the root shape curves of the best solutions becomes the
// node's curve in S_Gamma.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "floorplan/annealer.hpp"
#include "floorplan/polish_expression.hpp"
#include "floorplan/slicing_cache.hpp"
#include "geometry/shape_curve.hpp"

namespace hidap {

struct AreaFloorplanOptions {
  AnnealOptions anneal;
  std::size_t curve_points = 32;    ///< pruning cap for intermediate curves
  int best_solutions_merged = 4;    ///< root curves merged into the result
};

/// One slicing node's curve: the composition for `op` (V: side by side,
/// H: stacked) of its children's curves, pruned to `curve_points`,
/// written into `out` (which must not alias a child).
void compose_slicing_curve(int op, const ShapeCurve& left, const ShapeCurve& right,
                           std::size_t curve_points, ShapeCurve& out);

/// Root shape curve of a fixed slicing structure (no search): pure
/// composition of the children curves in expression order. The
/// full-recompute oracle of IncrementalCurveEval.
ShapeCurve compose_curve(const std::vector<ShapeCurve>& leaves,
                         const PolishExpression& expr, std::size_t curve_points = 32);

/// The shape-curve SA's cost: the root curve's smallest area, infinity
/// for an empty curve.
double root_min_area(const ShapeCurve& root);

/// Incremental move evaluation for the shape-curve SA: the same
/// SlicingCache as the layout engine (IncrementalLayoutEval), so a
/// proposal recomposes only the curves on the paths from its mutated
/// positions to the root, into reused slots -- a warm
/// propose/commit/rollback cycle does not allocate. Every curve is the
/// same arithmetic compose_curve() performs, so costs match it bit for
/// bit and the annealer's accept/reject stream is unchanged.
class IncrementalCurveEval {
 public:
  /// `leaves` must outlive this object.
  IncrementalCurveEval(const std::vector<ShapeCurve>& leaves, std::size_t curve_points,
                       PolishExpression initial);

  /// Copies the committed expression, lets `mutate` perturb it, and
  /// returns the proposal's cost. Exactly one commit() or rollback()
  /// must follow before the next propose().
  double propose(const std::function<void(PolishExpression&)>& mutate);
  void commit();
  void rollback();

  // Committed-state accessors.
  double cost() const { return committed_cost_; }
  const PolishExpression& expression() const { return cache_.expression(); }
  const ShapeCurve& curve() const { return cache_.committed_root(); }

  /// Slicing-tree nodes recomposed so far (the initial full evaluation
  /// included); the shape SA flushes it as `sa.recomposed_nodes`.
  std::uint64_t recomposed_nodes() const { return cache_.recomposed_nodes(); }

 private:
  void evaluate_proposed();

  SlicingCache<ShapeCurve> cache_;
  std::size_t curve_points_;
  double committed_cost_ = 0.0;
  double proposed_cost_ = 0.0;
};

/// The lowest-cost expressions an annealing walk has reported, lowest
/// first, at most `keep` of them. The annealer reports a new best only
/// when it beats every earlier one (anneal_improves_best is strict), so a
/// record always goes to the front; once the set is full, the dropped
/// last entry's storage takes the copy, so recording allocates only while
/// the set fills.
class BestExpressions {
 public:
  explicit BestExpressions(std::size_t keep);

  /// `cost` must be lower than every cost recorded before.
  void record(double cost, const PolishExpression& expr);

  const std::vector<std::pair<double, PolishExpression>>& entries() const { return entries_; }

 private:
  std::size_t keep_;
  std::vector<std::pair<double, PolishExpression>> entries_;
};

/// Runs SA minimizing the root min-area; returns the merged Pareto curve
/// of the best slicing structures encountered. options.anneal.incremental
/// selects IncrementalCurveEval or, when off, compose_curve() on every
/// proposal; both give the same curve.
ShapeCurve pack_shape_curve(const std::vector<ShapeCurve>& leaves,
                            const AreaFloorplanOptions& options = {});

}  // namespace hidap
