#pragma once
// The three floorplanning flows compared in the paper's evaluation:
//
//   IndEDA  -- commercial-floorplanner proxy (periphery wall packing),
//   HiDaP   -- this library, best wirelength of lambda in {0.2, 0.5, 0.8},
//   handFP  -- expert-handcrafted proxy: oracle-assisted high-effort
//              search (seed x lambda sweep at ~3x SA effort, winner
//              selected by fully evaluated wirelength).
//
// See DESIGN.md for why the proxies preserve the paper's comparison.

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

/// Lambda sweep; selection by fully evaluated wirelength (paper: "best WL
/// of three"). runtime_seconds is the sum of the sweep's placement times.
PlacementResult run_hidap_flow(const Design& design, const PlacementContext& context,
                               const FlowOptions& options = {});

PlacementResult run_handfp_flow(const Design& design, const PlacementContext& context,
                                const FlowOptions& options = {});

/// All three flows evaluated through one shared PlacementEvaluator; the
/// sweep winners keep the metrics their slot computed, so only the IndEDA
/// result is evaluated after its flow. wl_norm is filled relative to
/// handFP (handFP = 1.000, like Table III); runtime_s is placement time
/// only.
struct FlowComparison {
  Metrics indeda;
  Metrics hidap;
  Metrics handfp;
};
FlowComparison compare_flows(const Design& design, const FlowOptions& options = {});

}  // namespace hidap
