#pragma once
// The three floorplanning flows compared in the paper's evaluation:
//
//   IndEDA  -- commercial-floorplanner proxy (periphery wall packing),
//   HiDaP   -- this library, best wirelength of lambda in {0.2, 0.5, 0.8},
//   handFP  -- expert-handcrafted proxy: oracle-assisted high-effort
//              search (seed x lambda sweep at ~3x SA effort, winner
//              selected by wirelength after cell placement).
//
// Each proxy keeps the trait the paper's comparison rests on: IndEDA is
// wall-constrained and blind to dataflow, handFP buys quality by search.

#include "core/hidap.hpp"
#include "eval/metrics.hpp"

namespace hidap {

struct FlowOptions {
  HiDaPOptions hidap;          ///< base options; lambda is swept internally
  EvalOptions eval;
  double indeda_effort = 1.0;  ///< SA effort scale for the wall packer
  double handfp_effort = 3.0;  ///< SA effort scale for the handFP proxy
  int handfp_seeds = 3;
  std::uint64_t seed = 1;
};

PlacementResult run_indeda_flow(const Design& design, const PlacementContext& context,
                                const FlowOptions& options = {});

/// Lambda sweep; selection by wirelength after cell placement (paper:
/// "best WL of three"), the sweep's slots evaluated as one batch.
/// runtime_seconds is the sweep's precompute plus the sum of its
/// placement times.
PlacementResult run_hidap_flow(const Design& design, const PlacementContext& context,
                               const FlowOptions& options = {});

PlacementResult run_handfp_flow(const Design& design, const PlacementContext& context,
                                const FlowOptions& options = {});

/// All three flows evaluated through one shared PlacementEvaluator. The
/// two sweeps share one recursion plan; each sweep's slots are evaluated
/// as one batch that measures every slot's wirelength and the rest only
/// for its winner, and IndEDA's result is a batch of one. wl_norm is
/// filled relative to handFP (handFP = 1.000, like Table III); runtime_s
/// is placement time only.
struct FlowComparison {
  Metrics indeda;
  Metrics hidap;
  Metrics handfp;
};
FlowComparison compare_flows(const Design& design, const FlowOptions& options = {});

}  // namespace hidap
