#pragma once
// "IndEDA" baseline: periphery wall packing.
//
// The paper describes industrial floorplanners as considering "cell area
// implicitly by having macros close to circuit walls" and Fig. 9a shows
// the commercial tool placing every macro on the block walls. This proxy
// reproduces that strategy: macro groups (hierarchy banks) are packed in
// rings along the die boundary, keeping the center free for standard
// cells, with a short annealing pass on the ring order to reduce
// sequential-graph wirelength -- a competent but dataflow-blind flow.

#include "core/result.hpp"
#include "dataflow/seq_graph.hpp"
#include "floorplan/annealer.hpp"
#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

struct WallPackOptions {
  AnnealOptions anneal;  ///< ring-order optimization effort
};

PlacementResult place_macros_walls(const Design& design, const HierTree& ht,
                                   const SeqGraph& seq,
                                   const WallPackOptions& options = {});

}  // namespace hidap
