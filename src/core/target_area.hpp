#pragma once
// Target-area assignment (paper sect. IV-C / Fig. 6).
//
// A multi-source BFS over the bit-level netlist starts simultaneously
// from every cell inside an HCB block and claims the glue cells (anything
// under nh outside the blocks) for the block that reaches them first.
// After the sweep the sum of block target areas covers the whole area of
// the floorplanning instance.

#include <vector>

#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

struct TargetAreaResult {
  std::vector<double> target_area;    ///< per HCB block: am + claimed glue area
  std::vector<double> minimum_area;   ///< per HCB block: am (subtree area)
};

TargetAreaResult assign_target_areas(const Design& design, const CellAdjacency& adjacency,
                                     const HierTree& ht, HtNodeId nh,
                                     const std::vector<HtNodeId>& hcb);

}  // namespace hidap
