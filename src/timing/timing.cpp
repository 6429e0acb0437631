#include "timing/timing.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace hidap {

double derive_clock_period(const Design& design, const SeqGraph& seq) {
  int max_depth = 0;
  for (const SeqEdge& e : seq.edges()) max_depth = std::max(max_depth, e.comb_depth);
  const double logic = kClkToQNs + max_depth * kGateDelayNs;
  // Wire allowance: roughly half of the half-perimeter of the die --
  // tight enough that wall-hugging placements of dataflow pipelines
  // violate, generous enough that good placements get close to closing
  // timing (calibrated so suite WNS lands in the paper's -10..-50% band).
  const double wire =
      0.55 * (design.die().w + design.die().h) / 2.0 * kWireDelayNsPerUm;
  return logic + wire;
}

namespace {

Point seq_node_position(const PlacedDesign& placed, const SeqNode& node) {
  if (node.kind == SeqKind::Macro) {
    if (const MacroPlacement* m = placed.macro_of(node.macro_cell)) {
      return m->rect.center();
    }
    return placed.cell_position(node.macro_cell);
  }
  // Registers/ports: average the bit positions (bits of one array share a
  // cluster almost always, so this is effectively the cluster site).
  Point pos;
  if (node.bits.empty()) return pos;
  for (const CellId bit : node.bits) {
    const Point p = placed.cell_position(bit);
    pos.x += p.x;
    pos.y += p.y;
  }
  pos.x /= static_cast<double>(node.bits.size());
  pos.y /= static_cast<double>(node.bits.size());
  return pos;
}

}  // namespace

TimingReport analyze_timing(const PlacedDesign& placed, const SeqGraph& seq,
                            const TimingOptions& options) {
  TimingReport report;
  report.clock_period_ns = options.clock_period_ns > 0
                               ? options.clock_period_ns
                               : derive_clock_period(placed.design(), seq);

  // Cache node positions.
  std::vector<Point> pos(seq.node_count());
  for (std::size_t i = 0; i < seq.node_count(); ++i) {
    pos[i] = seq_node_position(placed, seq.node(static_cast<SeqNodeId>(i)));
  }

  std::unordered_map<SeqNodeId, double> endpoint_worst;
  double wns = std::numeric_limits<double>::max();
  for (const SeqEdge& e : seq.edges()) {
    const double dist = manhattan(pos[static_cast<std::size_t>(e.from)],
                                  pos[static_cast<std::size_t>(e.to)]);
    const double delay = kClkToQNs + e.comb_depth * kGateDelayNs + dist * kWireDelayNsPerUm;
    const double slack = report.clock_period_ns - delay;
    ++report.paths;
    wns = std::min(wns, slack);
    auto [it, inserted] = endpoint_worst.try_emplace(e.to, slack);
    if (!inserted) it->second = std::min(it->second, slack);
  }
  if (report.paths == 0) {
    report.wns_ns = 0.0;
    report.wns_percent = 0.0;
    return report;
  }
  report.wns_ns = wns;
  report.wns_percent = 100.0 * wns / report.clock_period_ns;
  for (const auto& [node, slack] : endpoint_worst) {
    if (slack < 0) {
      report.tns_ns += slack;
      ++report.violating_endpoints;
    }
  }
  return report;
}

}  // namespace hidap
