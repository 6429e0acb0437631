#pragma once
// Gnet -> Gseq extraction (paper sect. IV-D, steps 1-4):
//   1. combinational cells are bypassed (predecessors connected to
//      successors) by a forward BFS through comb-only cones,
//   2. flops and port bits are clustered into arrays by name,
//   3. edges between sequential elements are inferred from the discovered
//      comb paths,
//   4. registers narrower than `bit_threshold` are discarded (macros and
//      ports are always kept).

#include "dataflow/seq_graph.hpp"
#include "netlist/netlist.hpp"

namespace hidap {

struct SeqExtractOptions {
  int bit_threshold = 4;  ///< drop registers narrower than this
};

/// Builds Gseq. `adjacency` must be built from `design`.
SeqGraph extract_seq_graph(const Design& design, const CellAdjacency& adjacency,
                           const SeqExtractOptions& options = {});

}  // namespace hidap
