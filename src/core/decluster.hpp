#pragma once
// Hierarchical declustering (paper Algorithm 3 / Fig. 5).
//
// Finds the hierarchy cut for floorplanning level nh: HCB holds the nodes
// modeled as blocks (big area or containing macros), HCG the small glue
// nodes whose area is later folded into blocks by target-area assignment.
//
// Two readings of Algorithm 3 that the paper leaves open: the queue is
// seeded with children(nh) -- nh itself is always opened, otherwise a
// macro-bearing root would degenerate into a single block -- and
// childless nodes that satisfy the "open" condition are classified by
// the block test instead.

#include <vector>

#include "hier/hier_tree.hpp"

namespace hidap {

struct Declustering {
  std::vector<HtNodeId> hcb;  ///< blocks for layout generation
  std::vector<HtNodeId> hcg;  ///< glue nodes
};

/// `open_area` and `min_area` are absolute areas (the caller multiplies
/// the paper's fractions by area(nh)).
Declustering hierarchical_declustering(const HierTree& ht, HtNodeId nh,
                                       double open_area, double min_area);

}  // namespace hidap
