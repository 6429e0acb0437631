#pragma once
// Per-level dataflow inference (paper Algorithm 2, step 5).
//
// For a recursion level nh with blocks HCB, builds the level's Gdf over
// the global Gseq: one movable node per block (members = Gseq elements
// under the block subtree), one fixed node per multi-bit port group and
// one per already-estimated macro outside nh (sect. IV-E: "the position
// of ports and macros outside the subtree are considered a fixed point").
// Runs the block-flow/macro-flow searches and scores the affinity matrix.

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/options.hpp"
#include "dataflow/affinity.hpp"
#include "dataflow/dataflow_graph.hpp"
#include "geometry/geometry.hpp"
#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

/// Immutable macro-center estimates as of one commit point of the
/// recursion (paper Algorithm 2's prototype positions): the root's
/// holds the preplaced centers, and each level derives its children's
/// by copying its own and writing the centers of its committed block
/// rectangles. The recursion passes it down by value, so sibling
/// subtrees read their parent's commit and never each other's writes.
/// Storage is one slot per macro, keyed by HierTree::macro_ordinal, so
/// a copy costs O(macros), not O(cells). Default-constructed snapshots
/// carry no estimates at all (every has_estimate() is false).
class EstimateSnapshot {
 public:
  EstimateSnapshot() = default;
  /// Room for every macro of `ht`, none estimated yet; `ht` must outlive
  /// the snapshot and its copies.
  explicit EstimateSnapshot(const HierTree& ht)
      : ht_(&ht), pos_(ht.total_macros(), Point{}), has_(ht.total_macros(), 0) {}

  /// Macro slots (0 for a default-constructed snapshot).
  std::size_t macro_count() const { return pos_.size(); }

  /// False for cells that are not macros.
  bool has_estimate(CellId cell) const {
    if (ht_ == nullptr) return false;
    const std::uint32_t k = ht_->macro_ordinal(cell);
    return k != HierTree::kNoMacroOrdinal && has_[k] != 0;
  }

  const Point& estimate(CellId cell) const {
    assert(has_estimate(cell));
    return pos_[ht_->macro_ordinal(cell)];
  }

  /// Overwrites one macro's estimate (used to derive a child level's
  /// snapshot from its parent's: copy, then apply the level's prototype
  /// writes).
  void set(CellId macro, const Point& p) {
    assert(ht_ != nullptr);
    const std::uint32_t k = ht_->macro_ordinal(macro);
    assert(k != HierTree::kNoMacroOrdinal && "estimates are kept for macros only");
    pos_[k] = p;
    has_[k] = 1;
  }

 private:
  const HierTree* ht_ = nullptr;
  std::vector<Point> pos_;         ///< per macro ordinal
  std::vector<std::uint8_t> has_;  ///< per macro ordinal
};

struct LevelDataflow {
  std::unique_ptr<DataflowGraph> gdf;  ///< nodes: blocks first, then terminals
  AffinityMatrix affinity{0, 0};
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
