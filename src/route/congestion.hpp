#pragma once
// Probabilistic global-routing congestion estimate (the paper's "Cong.
// GRC%" column: global routing overflow percentage).
//
// Each net spreads uniform horizontal/vertical demand over its bounding
// box on a tile grid; tile-edge capacity is proportional to tile extent
// and derated where macros block routing resources. GRC% is the fraction
// of tile edges whose demand exceeds capacity.

#include "place/quadratic_placer.hpp"

namespace hidap {

struct CongestionOptions {
  int grid = 32;
  double tracks_per_um = 6.0;      ///< routing supply per layer bundle
  double macro_blockage = 0.8;        ///< fraction of capacity lost over macros
};

struct CongestionReport {
  double grc_percent = 0.0;       ///< % of overflowing tile edges
  double worst_overflow = 0.0;    ///< max demand/capacity ratio
  double total_demand = 0.0;
};

/// Spreads the demand of the model's net template (CellPlacementModel):
/// each kept net's box over its distinct sources, in net order.
/// Bit-identical to estimate_congestion_per_net.
CongestionReport estimate_congestion(const PlacedDesign& placed,
                                     const CongestionOptions& options = {});

/// The same report from every pin of every net: the differential oracle
/// of estimate_congestion.
CongestionReport estimate_congestion_per_net(const PlacedDesign& placed,
                                             const CongestionOptions& options = {});

}  // namespace hidap
