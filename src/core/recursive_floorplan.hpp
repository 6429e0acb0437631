#pragma once
// Recursive block floorplanning (paper Algorithms 1-2, Fig. 1), run as a
// hierarchical task graph.
//
// The multi-level /\-style flow: at each level the subtree of nh is
// declustered into blocks, glue area is folded into block target areas,
// dataflow affinity is inferred, and the slicing-tree annealer assigns a
// rectangle to every block. Blocks with more than one macro recurse into
// their rectangle; single-macro blocks pin their macro into the corner of
// the rectangle that minimizes attraction distance.
//
// Scheduling model (HiDaPOptions::parallel_levels): the recursion is an
// explicit task graph over runtime::ThreadPool rather than an implicit
// DFS. Three ingredients make sibling subtrees data-independent, so the
// scheduler can run them in any order -- including concurrently -- with
// bit-identical results:
//
//  1. Snapshot estimate semantics. Every level's dataflow inference
//     reads an EstimateSnapshot of its parent's committed layout (the
//     paper's prototype positions), passed down the recursion by value;
//     there is no live estimate store. The only shared mutable state is
//     the per-HT-node region table flip_macros reads, and its writes are
//     slot-disjoint: a subtree writes only the regions of nodes in its
//     own HT subtree, and sibling subtrees are rooted at disjoint HT
//     subtrees, so concurrent siblings need no synchronization (the
//     valid flags are std::uint8_t, one byte per slot; never
//     std::vector<bool>, whose packed bits would race).
//  2. Precomputed anneal ordinals. The recursion structure depends only
//     on the hierarchy tree and the preplaced set, so plan() assigns
//     each level its DFS-preorder ordinal (and its blocks' target areas)
//     up front and seeds are identical regardless of execution order
//     (they equal the ++counter seeds of a sequential DFS by
//     construction).
//  3. Slot-indexed result collection. Each subtree fills a private
//     SubtreeResult; fragments are spliced in DFS block order after the
//     join, so PlacementResult is byte-stable at any thread count.
//
// parallel_levels = false runs the identical computation as a plain
// sequential DFS -- the differential oracle for the scheduler.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dataflow_inference.hpp"
#include "core/options.hpp"
#include "core/result.hpp"
#include "dataflow/seq_graph.hpp"
#include "geometry/shape_curve.hpp"
#include "hier/hier_tree.hpp"

namespace hidap {

/// Static per-level schedule, computed up front by plan():
/// the declustering (a pure function of the hierarchy tree, the
/// declustering thresholds and the preplaced set -- never of seeds or
/// evolving estimates), the level's DFS-preorder anneal ordinal and its
/// blocks' target areas (Algorithm 2, step 4: a function of the design,
/// its adjacency, the hierarchy and the declustering). One entry per
/// HtNodeId; reusable across jobs with the same inputs, which is why the
/// artifact cache stores it (see PlacementArtifacts).
struct LevelPlan {
  std::vector<HtNodeId> hcb;
  std::vector<double> minimum_area;  ///< per hcb block: am
  std::vector<double> target_area;   ///< per hcb block: am + claimed glue
  std::uint64_t ordinal = 0;  ///< 1-based; 0 on fallback levels
  bool planned = false;
  bool fallback = false;      ///< empty declustering or depth cap
};
using RecursionPlan = std::vector<LevelPlan>;

/// Reusable precomputes of one (design, options) combination that a
/// session caches across jobs so a warm repeat skips straight to
/// annealing. Both are pure functions of their cache-key inputs, so
/// adopting them is bit-identical to recomputing: shape curves depend
/// on (design, seed, macro_halo, shape_fp), the recursion plan on
/// (design, declustering thresholds, preplaced cells). Neither depends
/// on lambda, so a lambda sweep shares one of each.
struct PlacementArtifacts {
  std::shared_ptr<const std::vector<ShapeCurve>> shape_curves;
  std::shared_ptr<const RecursionPlan> recursion_plan;
};

class RecursiveFloorplanner {
 public:
  RecursiveFloorplanner(const Design& design, const CellAdjacency& adjacency,
                        const HierTree& ht, const SeqGraph& seq,
                        const HiDaPOptions& options);

  /// Runs the recursion over the die, first generating the shape curves
  /// if neither generate_shape_curves() nor adopt_shape_curves() did, and
  /// the plan if neither plan() nor adopt_recursion_plan() did.
  PlacementResult run(const Rect& die);

  /// Adopts cached precomputes instead of recomputing them in run().
  /// The caller asserts they were produced by a run with equal inputs
  /// (the artifact cache keys guarantee it); results are then
  /// bit-identical to a cold run.
  void adopt_shape_curves(const std::vector<ShapeCurve>& curves);
  void adopt_recursion_plan(const RecursionPlan& plan);

  /// The schedule, computed if it was neither computed nor adopted yet.
  /// Sibling levels' target areas are computed as pool tasks.
  const RecursionPlan& plan();
  /// The schedule used by the last run() (or adopted); exposed so the
  /// session can cache it for warm repeats.
  const RecursionPlan& recursion_plan() const { return plan_; }

  /// S_Gamma: per-HT-node macro shape curves (valid after run() or
  /// generate_shape_curves()). Equal-depth nodes are composed as
  /// independent pool tasks; curves are bit-identical at any thread
  /// count (each node is seeded by its own index).
  const std::vector<ShapeCurve>& shape_curves() const { return shape_curves_; }
  void generate_shape_curves();

  /// Rectangle assigned to each HT node during the recursion (empty
  /// entries for nodes never floorplanned). Used by macro flipping to
  /// estimate standard-cell positions.
  const std::vector<Rect>& region_of_node() const { return region_; }
  const std::vector<std::uint8_t>& region_valid() const { return region_valid_; }

 private:
  /// Per-level placements produced by one recursion subtree; spliced
  /// into the parent's fragment in DFS block order after the join.
  struct SubtreeResult {
    std::vector<MacroPlacement> macros;
    std::vector<LevelSnapshot> snapshots;
  };

  void plan_level(HtNodeId nh, int depth, std::uint64_t& counter,
                  std::vector<HtNodeId>& levels);
  void floorplan_level(HtNodeId nh, const Rect& region, int depth,
                       const EstimateSnapshot& inherited, SubtreeResult& out);
  void fix_single_macro(HtNodeId block, const Rect& rect, const Point& attract,
                        SubtreeResult& out);
  void update_estimates(HtNodeId block, const Point& center, EstimateSnapshot& child);
  void fallback_grid_place(HtNodeId nh, const Rect& region, SubtreeResult& out);
  /// Macros below `node` not preplaced by the user (Algorithm 2's
  /// recursion predicate counts only macros HiDaP still has to place).
  int unfixed_macro_count(HtNodeId node) const;
  bool is_preplaced(CellId macro) const { return preplaced_[ht_.macro_ordinal(macro)] != 0; }
  /// Region write; see the slot-disjointness contract in the file comment.
  void set_region(HtNodeId node, const Rect& r) {
    region_[static_cast<std::size_t>(node)] = r;
    region_valid_[static_cast<std::size_t>(node)] = 1;
  }

  const Design& design_;
  const CellAdjacency& adjacency_;
  const HierTree& ht_;
  const SeqGraph& seq_;
  HiDaPOptions options_;

  std::vector<ShapeCurve> shape_curves_;
  std::vector<std::uint8_t> preplaced_;  // per macro ordinal: engineer-fixed macro
  int preplaced_count_ = 0;
  std::vector<Rect> region_;                // per HtNodeId
  std::vector<std::uint8_t> region_valid_;  // per HtNodeId
  RecursionPlan plan_;  // per HtNodeId
  PlacementResult result_;
  Rect die_{};  // run()'s die; bounds the stop-path grid fallback
  bool curves_ready_ = false;
  bool plan_ready_ = false;
};

}  // namespace hidap
