#pragma once
// Per-level dataflow inference (paper Algorithm 2, step 5).
//
// For a recursion level nh with blocks HCB, builds the level's Gdf over
// the global Gseq: one movable node per block (members = Gseq elements
// under the block subtree), one fixed node per multi-bit port group and
// one per already-estimated macro outside nh (sect. IV-E: "the position
// of ports and macros outside the subtree are considered a fixed point").
// Runs the block-flow/macro-flow searches and scores the affinity matrix.

#include <memory>
#include <vector>

#include "core/estimate_store.hpp"
#include "core/options.hpp"
#include "dataflow/affinity.hpp"
#include "dataflow/dataflow_graph.hpp"
#include "hier/hier_tree.hpp"

namespace hidap {

struct LevelDataflow {
  std::unique_ptr<DataflowGraph> gdf;  ///< nodes: blocks first, then terminals
  AffinityMatrix affinity{0};
  std::size_t movable_count = 0;
  std::vector<Point> terminal_positions;  ///< gdf node movable_count + i

  /// Center of Gdf node `j` given this level's block rectangles: movable
  /// nodes (j < movable_count) read the layout rects, fixed terminals
  /// their stored positions. The single implementation behind every
  /// attraction computation, so the scheduler and sequential recursion
  /// paths cannot drift apart on the terminal index offset.
  Point node_center(std::size_t j, const std::vector<Rect>& block_rects) const;

  /// Affinity-weighted centroid of every Gdf node other than block `b`
  /// (Algorithm 2, line 11's attraction point for single-macro blocks);
  /// `fallback` is returned when block b has no positive affinity.
  Point attraction_point(std::size_t b, const std::vector<Rect>& block_rects,
                         const Point& fallback) const;
};

/// `estimates` carries the current position guess of every macro cell
/// (block-center prototypes refined during the recursion): the parent
/// level's committed snapshot. Macros outside nh without an estimate are
/// skipped (only possible at the first level, where there is no outside).
LevelDataflow infer_level_dataflow(const Design& design, const HierTree& ht,
                                   const SeqGraph& seq, HtNodeId nh,
                                   const std::vector<HtNodeId>& hcb,
                                   const EstimateSnapshot& estimates,
                                   const HiDaPOptions& options);

}  // namespace hidap
