#pragma once
// Static-timing proxy over the sequential graph (the paper's WNS% / TNS
// columns).
//
// Every Gseq edge is a reg-to-reg (or port/macro) transfer whose delay is
//     clk_to_q + comb_depth * gate_delay + manhattan_distance * wire_delay.
// Slack = clock_period - delay. WNS is reported as a percentage of the
// clock period (negative = violating, like Table III); TNS sums the
// worst negative slack per endpoint in nanoseconds.

#include "dataflow/seq_graph.hpp"
#include "place/quadratic_placer.hpp"

namespace hidap {

// The terms of the delay model above: clk_to_q and gate_delay in ns,
// wire_delay in ns per um.
inline constexpr double kClkToQNs = 0.08;
inline constexpr double kGateDelayNs = 0.045;
inline constexpr double kWireDelayNsPerUm = 0.0018;

struct TimingOptions {
  /// Clock period; <= 0 selects it automatically from the design (see
  /// derive_clock_period).
  double clock_period_ns = 0.0;
};

struct TimingReport {
  double clock_period_ns = 0.0;
  double wns_ns = 0.0;       ///< worst slack (can be positive)
  double wns_percent = 0.0;  ///< wns / period * 100
  double tns_ns = 0.0;       ///< sum of negative endpoint slacks (<= 0)
  std::size_t violating_endpoints = 0;
  std::size_t paths = 0;
};

/// Placement-independent period choice: logic delay of the deepest edge
/// plus a die-geometry wire allowance. All flows of a circuit share it.
double derive_clock_period(const Design& design, const SeqGraph& seq);

TimingReport analyze_timing(const PlacedDesign& placed, const SeqGraph& seq,
                            const TimingOptions& options = {});

}  // namespace hidap
