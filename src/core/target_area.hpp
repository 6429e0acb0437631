#pragma once
// Target-area assignment (paper sect. IV-C / Fig. 6).
//
// A multi-source BFS over the bit-level netlist starts simultaneously
// from every cell inside an HCB block and claims the glue cells (anything
// under nh outside the blocks) for the block that reaches them first.
// After the sweep the sum of block target areas covers the whole area of
// the floorplanning instance.
//
// The areas depend only on the design, the hierarchy and the level's
// declustering, so the recursion computes them once per level when it
// builds its RecursionPlan (core/recursive_floorplan.hpp) and a cached
// plan carries them to every later placement.

#include <cstdint>
#include <utility>
#include <vector>

#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

struct TargetAreaResult {
  std::vector<double> target_area;    ///< per HCB block: am + claimed glue area
  std::vector<double> minimum_area;   ///< per HCB block: am (subtree area)
};

/// Per-cell scratch of assign_target_areas, reusable across levels of
/// one design: a scope bitmap plus an owner per cell. A level writes
/// only the cells under its nh and clears its bitmap words on exit, so
/// its cost follows the level's subtree, not the design.
class TargetAreaScratch {
 public:
  explicit TargetAreaScratch(std::size_t cell_count)
      : scope_((cell_count + 63) / 64, 0), zone_(cell_count, 0) {}

 private:
  friend TargetAreaResult assign_target_areas(const Design&, const CellAdjacency&,
                                              const HierTree&, HtNodeId,
                                              const std::vector<HtNodeId>&,
                                              TargetAreaScratch&);
  std::vector<std::uint64_t> scope_;  // bit per cell: under nh
  std::vector<int> zone_;             // read only where the scope bit is set
  std::vector<std::pair<CellId, int>> queue_;
};

/// BFS sources are seeded and unreachable glue is summed in ascending
/// CellId order, so the areas are bit-identical whatever scratch served.
/// Adds the cells it dequeues to the `target_area.bfs_visits` counter.
TargetAreaResult assign_target_areas(const Design& design, const CellAdjacency& adjacency,
                                     const HierTree& ht, HtNodeId nh,
                                     const std::vector<HtNodeId>& hcb,
                                     TargetAreaScratch& scratch);

}  // namespace hidap
