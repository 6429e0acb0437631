#pragma once
// Incremental SA move evaluation for the layout annealer (paper sect.
// IV-E).
//
// The full-recompute objective (evaluate_layout_full) pays, per proposed
// Polish move, a complete bottom-up shape-curve composition pass (sweep
// merges since PR 4, but still one per tree node) plus an O(n^2)
// affinity scan. Both are wasteful: the three Polish moves (M1/M2/M3)
// change only a handful of element positions, so
//
//   * every slicing-tree subtree whose element span avoids the mutated
//     positions keeps its <Gamma, am, at> characterization verbatim, and
//   * every affinity pair whose two endpoints keep their centers keeps
//     its cost term verbatim.
//
// IncrementalLayoutEval caches both. On propose() it re-parses the
// expression (O(n), no curve work), recomputes node infos only along the
// paths from mutated positions to the root, reruns the top-down budget
// split with clean-subtree skipping (a subtree whose content, rectangle
// and violation-accumulator entry state are bit-equal to the committed
// pass jumps straight to its recorded exit state; see BudgetSkipContext),
// and refreshes only the connectivity terms of blocks whose center
// moved. The cheap final reduction (the left-to-right term sum) is rerun
// in full, in the oracle's exact accumulation order.
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
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataflow/affinity.hpp"
#include "floorplan/budget_layout.hpp"
#include "floorplan/polish_expression.hpp"
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
                        PolishExpression initial, const BudgetOptions& options = {});

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
  const PolishExpression& expression() const { return committed_expr_; }
  const std::vector<Rect>& rects() const { return committed_layout_.leaf_rects; }
  const BudgetViolations& violations() const { return committed_layout_.violations; }

  /// The in-flight proposal (valid between propose() and commit /
  /// rollback); exposed for differential testing.
  const PolishExpression& proposed_expression() const { return proposed_expr_; }

 private:
  void rebuild_tree(const PolishExpression& expr);
  /// Re-evaluates proposed_expr_: expression diff, bottom-up infos,
  /// top-down budget split, centers, connectivity terms and the final
  /// objective into the proposed_* overlay.
  void evaluate_proposed(bool reuse_committed);

  const std::vector<BudgetBlock>& blocks_;
  const Rect region_;
  const AffinityMatrix& affinity_;
  BudgetOptions options_;

  /// Affinity pairs with a positive weight, in the oracle's iteration
  /// order (i ascending, then j ascending; only pairs with at least one
  /// movable endpoint contribute), as parallel endpoint/weight arrays.
  PairsSoA pairs_;
  std::vector<std::vector<std::uint32_t>> block_pairs_;  ///< block id -> pair indices

  // Committed state. `infos_[p]` characterizes the committed subtree
  // ending at element position p; `ids_[p]` is its value-provenance id
  // (see the compose memo below). Center arrays span blocks then
  // terminals; the terminal tail is constant (written once in the
  // constructor), so pair terms index one array with no branch.
  PolishExpression committed_expr_;
  std::vector<BudgetNodeInfo> infos_;
  std::vector<std::uint32_t> ids_;
  BudgetResult committed_layout_;
  CentersSoA committed_centers_;
  std::vector<double> committed_terms_;
  double committed_cost_ = 0.0;

  // Composition memo. Every distinct info value we produce carries an id
  // (leaves: the block id; compositions: a monotone counter). A
  // composition is a pure function of (op, child values), and ids map
  // injectively to values for the lifetime of the evaluator, so the key
  // (op, id_l, id_r) -> result is sound forever -- ids are never
  // recycled, even across evictions. Keys are canonicalized to the
  // unordered child pair: the Wong-Liu curve algebra is exactly
  // commutative in IEEE arithmetic (widths/heights add or max
  // symmetrically and the Pareto frontier is unique), so an M1 sibling
  // swap re-uses its parent's entry -- and, since the memo then returns
  // the committed id, every ancestor hits as well. SA walks toggle
  // through the same neighborhoods constantly (rejected moves above all),
  // which makes this the difference between recomposing O(depth) curves
  // per move and a handful of hash lookups.
  struct MemoEntry {
    BudgetNodeInfo info;
    std::uint32_t id = 0;
  };
  /// One memo per operator; the key packs the canonical (hi, lo) child
  /// id pair into 64 bits with full 32-bit fields, so distinct id pairs
  /// can never collide.
  std::unordered_map<std::uint64_t, MemoEntry> memo_h_, memo_v_;
  std::vector<BudgetNodeInfo> leaf_infos_;  ///< per block, computed once
  std::uint32_t next_id_ = 0;

  /// Sentinel for "no id": assigned if the id counter is ever exhausted;
  /// nodes carrying it (and their ancestors) bypass the memo.
  static constexpr std::uint32_t kNoId = 0xffffffffu;

  /// Admission filter: a key is memoized only on its second sighting, so
  /// the hot (high-acceptance) phase of the anneal -- whose drifting walk
  /// produces mostly novel compositions -- pays a word write instead of a
  /// map insert plus curve copy. The frozen phase, which re-proposes
  /// moves around a fixed base over and over, promotes its neighborhood
  /// into the memo immediately. Collisions merely delay or hasten
  /// admission; values are never taken from the filter.
  std::vector<std::uint64_t> seen_once_;
  static constexpr std::size_t kSeenOnceBits = 12;

  /// Eviction cap: the maps are simply cleared when they outgrow this
  /// (committed state holds values, not references, so clearing is always
  /// safe; subsequent lookups just miss and recompute).
  static constexpr std::size_t kMemoCapacity = 1 << 13;

  // Proposal overlay: dirty nodes get freshly computed infos in
  // `scratch_infos_` (reserved to full length up front -- push_back must
  // never reallocate, `info_ptrs_` aliases the elements); clean nodes
  // alias `infos_`. commit() folds the scratch entries back into
  // `infos_`; rollback() just drops them.
  PolishExpression proposed_expr_;
  std::vector<std::uint32_t> dirty_nodes_;
  std::vector<BudgetNodeInfo> scratch_infos_;
  std::vector<std::uint32_t> proposed_ids_;
  std::vector<const BudgetNodeInfo*> info_ptrs_;
  BudgetResult proposed_layout_;
  CentersSoA proposed_centers_;
  std::vector<double> proposed_terms_;
  double proposed_cost_ = 0.0;
  bool pending_ = false;

  // Skippable top-down budget splits (see BudgetSkipContext): per-node
  // rects plus the fired-adds journal of the committed assignment pass,
  // so a clean subtree whose rect is bit-equal replays its violation
  // adds from the journal slice of its span without being walked.
  // Proposals run read-only against the committed cache; commit()
  // records the accepted pass into proposed_split_ (clean spans copy
  // wholesale from the old cache) and promotes it, so rejected
  // proposals never pay for recording stores.
  BudgetSplitCache committed_split_, proposed_split_;
  std::vector<std::uint8_t> clean_nodes_;  ///< per node: span untouched by the diff

  // Reused scratch (no steady-state allocation on the move hot path).
  SlicingTree tree_;
  std::vector<int> parse_stack_;
  std::vector<int> span_start_;          ///< per node: first element of its span
  std::vector<std::uint32_t> changed_prefix_;  ///< prefix count of mutated positions
};

}  // namespace hidap
