#pragma once
// Standard-cell clustering for the placement proxy.
//
// The paper measures wirelength *after standard-cell placement with the
// same industrial tool*; our downstream evaluator places hierarchy-based
// cell clusters instead of individual cells, which preserves the relative
// comparison between macro-placement flows at a tiny fraction of the
// cost. Clusters follow the RTL hierarchy: subtrees are cut once their
// standard-cell area drops below a threshold derived from the requested
// cluster count. A clustering keeps each cell's cluster and each
// cluster's area; a cluster's members are the cells whose cluster_of
// names it.

#include <vector>

#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

struct CellCluster {
  double area = 0.0;  ///< summed area of the member std cells (flops + comb)
};

struct Clustering {
  std::vector<CellCluster> clusters;
  std::vector<int> cluster_of;  ///< per cell; -1 for macros, ports and other non-std cells
};

/// Splits the design into roughly `target_clusters` clusters.
Clustering cluster_cells(const Design& design, const HierTree& ht, int target_clusters);

}  // namespace hidap
