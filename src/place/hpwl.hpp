#pragma once
// Half-perimeter wirelength over the bit-level netlist.

#include "place/quadratic_placer.hpp"

namespace hidap {

struct WirelengthReport {
  double total_um = 0.0;
  double total_m = 0.0;     ///< the paper's "WL (m)" column
  std::size_t nets = 0;     ///< nets with >= 2 endpoints
};

/// Sums the HPWL of the model's net template (CellPlacementModel): each
/// kept net's box over its distinct sources, in net order. Bit-identical
/// to total_hpwl_per_net.
WirelengthReport total_hpwl(const PlacedDesign& placed);

/// The same report from every pin of every net: the differential oracle
/// of total_hpwl.
WirelengthReport total_hpwl_per_net(const PlacedDesign& placed);

/// HPWL of a single net (0 for degenerate nets).
double net_hpwl(const PlacedDesign& placed, NetId net);

}  // namespace hidap
