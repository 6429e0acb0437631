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
/// to a walk over every pin of every net (tests/test_net_template.cpp
/// holds that oracle).
WirelengthReport total_hpwl(const PlacedDesign& placed);

}  // namespace hidap
