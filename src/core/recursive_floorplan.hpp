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
//     paper's prototype positions), never the live store; each subtree
//     writes only its own disjoint macros_under() slots (estimate_store.hpp).
//  2. Precomputed anneal ordinals. The recursion structure depends only
//     on the hierarchy tree and the preplaced set, so plan_recursion()
//     assigns each level its DFS-preorder ordinal up front and seeds are
//     identical regardless of execution order (they equal the ++counter
//     seeds of a sequential DFS by construction).
//  3. Slot-indexed result collection. Each subtree fills a private
//     SubtreeResult; fragments are spliced in DFS block order after the
//     join, so PlacementResult is byte-stable at any thread count.
//
// parallel_levels = false runs the identical computation as a plain
// sequential DFS -- the differential oracle for the scheduler.

#include <atomic>
#include <future>
#include <memory>
#include <vector>

#include "core/dataflow_inference.hpp"
#include "core/estimate_store.hpp"
#include "core/options.hpp"
#include "core/result.hpp"
#include "dataflow/seq_graph.hpp"
#include "geometry/shape_curve.hpp"
#include "hier/hier_tree.hpp"

namespace hidap {

/// Static per-level schedule, computed up front by plan_recursion():
/// the declustering (a pure function of the hierarchy tree, the
/// declustering thresholds and the preplaced set -- never of seeds or
/// evolving estimates) and the level's DFS-preorder anneal ordinal.
/// One entry per HtNodeId; reusable across jobs with the same inputs,
/// which is why the artifact cache stores it (see PlacementArtifacts).
struct LevelPlan {
  std::vector<HtNodeId> hcb;
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
/// (design, declustering thresholds, preplaced cells).
struct PlacementArtifacts {
  std::shared_ptr<const std::vector<ShapeCurve>> shape_curves;
  std::shared_ptr<const RecursionPlan> recursion_plan;
};

class RecursiveFloorplanner {
 public:
  RecursiveFloorplanner(const Design& design, const CellAdjacency& adjacency,
                        const HierTree& ht, const SeqGraph& seq,
                        const HiDaPOptions& options);
  ~RecursiveFloorplanner();  // joins an in-flight curve dispatch

  /// Runs shape-curve generation followed by the recursion over the die.
  /// With more than one lane the curve shards run as a sibling pool task
  /// overlapped with recursion planning and the level-0 target-area /
  /// dataflow work, joined just before the level-0 anneal first reads a
  /// curve; with one lane they run eagerly. Curves and placements are
  /// bit-identical either way (the shards write only shape_curves_,
  /// which nothing in the overlap window reads, and per-node seeds
  /// ignore scheduling).
  PlacementResult run(const Rect& die);

  /// Adopts cached precomputes instead of recomputing them in run().
  /// The caller asserts they were produced by a run with equal inputs
  /// (the artifact cache keys guarantee it); results are then
  /// bit-identical to a cold run.
  void adopt_shape_curves(const std::vector<ShapeCurve>& curves);
  void adopt_recursion_plan(const RecursionPlan& plan);

  /// The schedule used by the last run() (or adopted); exposed so the
  /// session can cache it for warm repeats.
  const RecursionPlan& recursion_plan() const { return plan_; }

  /// S_Gamma: per-HT-node macro shape curves (valid after run() or
  /// generate_shape_curves()). Equal-depth nodes are composed as
  /// independent pool tasks; curves are bit-identical at any thread
  /// count (each node is seeded by its own index).
  const std::vector<ShapeCurve>& shape_curves() const { return shape_curves_; }
  void generate_shape_curves();

  /// Wall seconds the last generate_shape_curves() spent (the phase's
  /// own clock: overlapped, the work runs concurrently with the
  /// recursion front, so an outer timer would misattribute it).
  double curves_seconds() const { return curves_seconds_; }

  /// Rectangle assigned to each HT node during the recursion (empty
  /// entries for nodes never floorplanned). Used by macro flipping to
  /// estimate standard-cell positions.
  const std::vector<Rect>& region_of_node() const { return store_.region_of_node(); }
  const std::vector<std::uint8_t>& region_valid() const { return store_.region_valid(); }

 private:
  /// Per-level placements produced by one recursion subtree; spliced
  /// into the parent's fragment in DFS block order after the join.
  struct SubtreeResult {
    std::vector<MacroPlacement> macros;
    std::vector<LevelSnapshot> snapshots;
  };

  /// Joins the overlapped curve dispatch (no-op when the curves were
  /// generated inline or adopted). Called at every first-read site; only
  /// the level-0 invocation -- which runs on the run() thread before any
  /// child task is spawned -- can actually observe a pending future.
  void ensure_shape_curves();

  void plan_recursion();
  void plan_level(HtNodeId nh, int depth, std::uint64_t& counter);
  void floorplan_level(HtNodeId nh, const Rect& region, int depth,
                       const EstimateSnapshot& inherited, SubtreeResult& out);
  void fix_single_macro(HtNodeId block, const Rect& rect, const Point& attract,
                        SubtreeResult& out);
  void update_estimates(HtNodeId block, const Point& center, EstimateSnapshot* mirror);
  void fallback_grid_place(HtNodeId nh, const Rect& region, SubtreeResult& out);
  /// Macros below `node` not preplaced by the user (Algorithm 2's
  /// recursion predicate counts only macros HiDaP still has to place).
  int unfixed_macro_count(HtNodeId node) const;

  const Design& design_;
  const CellAdjacency& adjacency_;
  const HierTree& ht_;
  const SeqGraph& seq_;
  HiDaPOptions options_;

  std::vector<ShapeCurve> shape_curves_;
  EstimateStore store_;
  RecursionPlan plan_;  // per HtNodeId
  PlacementResult result_;
  Rect die_{};  // run()'s die; bounds the stop-path grid fallback
  bool curves_ready_ = false;
  bool plan_adopted_ = false;
  /// Overlapped curve generation in flight (see run()); the shards
  /// write only shape_curves_ / curves_seconds_, which nothing in the
  /// overlap window reads, and the join publishes them. The claim flag
  /// decides who runs the generation -- the first of the pool task and
  /// the joiner to flip it wins -- so the joiner NEVER blocks on a
  /// still-queued task: on a saturated pool (every lane inside its own
  /// placement) all lanes may be joiners at once, and queue-blocking
  /// would deadlock the pool. Shared so an abandoned no-op task never
  /// dereferences *this.
  std::future<void> curves_task_;
  std::shared_ptr<std::atomic<bool>> curves_claimed_;
  double curves_seconds_ = 0.0;
};

}  // namespace hidap
