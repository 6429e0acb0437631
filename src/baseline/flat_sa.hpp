#pragma once
// Flat simulated-annealing macro placer (ablation baseline).
//
// No hierarchy, no dataflow: macros move freely on the die and the cost
// is bit-weighted sequential wirelength plus overlap and boundary
// penalties. Used by the ablation bench to quantify what the multi-level
// structure and the affinity metric buy over plain annealing.

#include "core/result.hpp"
#include "dataflow/seq_graph.hpp"
#include "floorplan/annealer.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

struct FlatSaOptions {
  AnnealOptions anneal;
};

PlacementResult place_macros_flat_sa(const Design& design, const SeqGraph& seq,
                                     const FlatSaOptions& options = {});

}  // namespace hidap
