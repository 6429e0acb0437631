#pragma once
// Incremental SA move evaluation for the layout annealer (paper sect.
// IV-E).
//
// The full-recompute objective (evaluate_layout_full) pays, per proposed
// Polish move, a complete bottom-up shape-curve composition pass (one
// sweep merge per tree node) plus an O(n^2) affinity scan. Both are
// wasteful: the three Polish moves (M1/M2/M3) change only a handful of
// element positions, so
//
//   * every slicing-tree subtree whose element span avoids the mutated
//     positions keeps its <Gamma, am, at> characterization verbatim, and
//   * every affinity pair whose two endpoints keep their centers keeps
//     its cost term verbatim.
//
// IncrementalLayoutEval caches both. On propose() its SlicingCache
// (floorplan/slicing_cache.hpp, shared with the shape-curve annealer)
// re-parses the expression (O(n), no curve work) and recomposes node
// infos only along the paths from mutated positions to the root, into
// reused slots -- the root itself excepted, as the top-down budget split
// reads only children's infos. The split reruns in full (a cheap O(n)
// walk). One pass over the affinity pairs then refreshes the terms of
// pairs with a relocated endpoint and adds every term left to right, in
// the oracle's exact accumulation order. A warm propose/commit/rollback
// cycle does not allocate.
//
// Bit-identity contract: every number this class produces is the result
// of the same arithmetic, in the same order, as the full recompute --
// cached values are pure functions of unchanged inputs, and everything
// else is recomputed through the shared budget_layout primitives and the
// shared layout_objective() combiner. Costs therefore match the oracle
// bit for bit (not merely within a tolerance), which is what keeps the
// annealer's accept/reject sequence -- and so the final placement --
// byte-identical whether AnnealOptions::incremental is on or off.
// tests/test_incremental_eval.cpp enforces this differentially.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "dataflow/affinity.hpp"
#include "floorplan/budget_layout.hpp"
#include "floorplan/polish_expression.hpp"
#include "floorplan/slicing_cache.hpp"
#include "floorplan/soa_terms.hpp"
#include "geometry/geometry.hpp"

namespace hidap {

class IncrementalLayoutEval {
 public:
  /// The referenced blocks / terminals / affinity must outlive this
  /// object. `affinity` is indexed like layout_connectivity_cost(): rows
  /// 0..blocks-1 are the movable blocks, rows blocks.. are terminals.
  IncrementalLayoutEval(const std::vector<BudgetBlock>& blocks, const Rect& region,
                        const std::vector<Point>& terminals, const AffinityMatrix& affinity,
                        PolishExpression initial);

  /// Copies the committed expression, lets `mutate` perturb it, and
  /// re-evaluates incrementally, returning the proposal's cost. Exactly
  /// one commit() or rollback() must follow before the next propose().
  double propose(const std::function<void(PolishExpression&)>& mutate);

  /// Keeps the last proposal as the new committed state.
  void commit();

  /// Discards the last proposal; the committed state is untouched.
  void rollback();

  // Committed-state accessors.
  double cost() const { return committed_cost_; }
  const PolishExpression& expression() const { return cache_.expression(); }
  const std::vector<Rect>& rects() const { return committed_layout_.leaf_rects; }
  const BudgetViolations& violations() const { return committed_layout_.violations; }

  /// The in-flight proposal (valid between propose() and commit /
  /// rollback); exposed for differential testing.
  const PolishExpression& proposed_expression() const {
    return cache_.proposed_expression();
  }

  /// Slicing-tree nodes recomposed so far (the initial full evaluation
  /// included); the layout SA flushes it as `sa.recomposed_nodes`.
  std::uint64_t recomposed_nodes() const { return cache_.recomposed_nodes(); }

 private:
  /// Evaluates the cache's open proposal: dirty node infos, top-down
  /// budget split, centers, connectivity terms and the final objective
  /// into the proposed_* overlay.
  void evaluate_proposed();

  const std::vector<BudgetBlock>& blocks_;
  const Rect region_;

  /// Affinity pairs with a positive weight, in the oracle's iteration
  /// order (i ascending, then j ascending; only pairs with at least one
  /// movable endpoint contribute), as parallel endpoint/weight arrays.
  PairsSoA pairs_;

  std::vector<BudgetNodeInfo> leaf_infos_;  ///< per block, computed once
  SlicingCache<BudgetNodeInfo> cache_;

  // Committed state. Center arrays span blocks then terminals; the
  // terminal tail is constant (written once in the constructor), so pair
  // terms index one array with no branch.
  BudgetResult committed_layout_;
  CentersSoA committed_centers_;
  std::vector<double> committed_terms_;
  double committed_cost_ = 0.0;

  // Proposal overlay; commit() swaps it in. `moved_` flags the centers
  // the proposal relocated (all of them before the first commit; the
  // terminal tail stays 0).
  BudgetResult proposed_layout_;
  CentersSoA proposed_centers_;
  std::vector<double> proposed_terms_;
  std::vector<std::uint8_t> moved_;
  double proposed_cost_ = 0.0;
};

}  // namespace hidap
