#include "eval/metrics.hpp"

#include <unordered_map>

#include "util/log.hpp"

namespace hidap {

PlacementEvaluator::PlacementEvaluator(const Design& design, const HierTree& ht,
                                       const SeqGraph& seq, const EvalOptions& options)
    : model_(std::make_shared<const CellPlacementModel>(design, ht, options.place)),
      seq_(&seq),
      options_(options) {}

Metrics PlacementEvaluator::evaluate(const PlacementResult& placement) const {
  Metrics m;
  m.flow = placement.flow_name;
  m.runtime_s = placement.runtime_seconds;

  const PlacedDesign placed = place_cells(model_, placement);

  const WirelengthReport wl = total_hpwl(placed);
  m.wl_m = wl.total_m;

  const CongestionReport cong = estimate_congestion(placed, options_.congestion);
  m.grc_percent = cong.grc_percent;

  const TimingReport timing = analyze_timing(placed, *seq_, options_.timing);
  m.wns_percent = timing.wns_percent;
  m.tns_ns = timing.tns_ns;

  const DensityMap density = compute_density(placed, options_.density_grid);
  m.peak_density_near_macros = density.peak_density_near_macros();
  return m;
}

Metrics evaluate_placement(const Design& design, const HierTree& ht,
                           const SeqGraph& seq, const PlacementResult& placement,
                           const EvalOptions& options) {
  return PlacementEvaluator(design, ht, seq, options).evaluate(placement);
}

double quick_wirelength(const Design& design, const HierTree& ht, const SeqGraph& seq,
                        const PlacementResult& placement) {
  std::unordered_map<CellId, Point> macro_pos;
  for (const MacroPlacement& mp : placement.macros) {
    macro_pos[mp.cell] = mp.rect.center();
  }
  // Registers and ports: average of port pins / die center fallback is
  // too blunt; use the centroid of the macros of the register's subsystem
  // (walk up to a depth-1 HT node and average its macros).
  std::vector<Point> node_pos(seq.node_count());
  std::vector<bool> node_ok(seq.node_count(), false);
  const Point die_center{design.die().w / 2, design.die().h / 2};

  std::unordered_map<HtNodeId, Point> subsystem_centroid;
  const auto centroid_of = [&](HtNodeId top) {
    const auto it = subsystem_centroid.find(top);
    if (it != subsystem_centroid.end()) return it->second;
    Point c{};
    int count = 0;
    for (const CellId mc : ht.macros_under(top)) {
      const auto mp = macro_pos.find(mc);
      if (mp != macro_pos.end()) {
        c.x += mp->second.x;
        c.y += mp->second.y;
        ++count;
      }
    }
    const Point out = count ? Point{c.x / count, c.y / count} : die_center;
    subsystem_centroid.emplace(top, out);
    return out;
  };

  for (SeqNodeId n = 0; n < static_cast<SeqNodeId>(seq.node_count()); ++n) {
    const SeqNode& node = seq.node(n);
    if (node.kind == SeqKind::Macro) {
      const auto it = macro_pos.find(node.macro_cell);
      if (it != macro_pos.end()) {
        node_pos[static_cast<std::size_t>(n)] = it->second;
        node_ok[static_cast<std::size_t>(n)] = true;
      }
    } else if (node.kind == SeqKind::Port) {
      Point p{};
      int counted = 0;
      for (const CellId bit : node.bits) {
        if (design.cell(bit).fixed_pos) {
          p.x += design.cell(bit).fixed_pos->x;
          p.y += design.cell(bit).fixed_pos->y;
          ++counted;
        }
      }
      if (counted) {
        node_pos[static_cast<std::size_t>(n)] = {p.x / counted, p.y / counted};
        node_ok[static_cast<std::size_t>(n)] = true;
      }
    } else {
      // Register: subsystem = ancestor at depth 1 under the root.
      HtNodeId walk = ht.node_of_hier(node.hier);
      HtNodeId top = walk;
      while (walk != ht.root()) {
        top = walk;
        walk = ht.node(walk).parent;
      }
      node_pos[static_cast<std::size_t>(n)] = centroid_of(top);
      node_ok[static_cast<std::size_t>(n)] = true;
    }
  }

  double total = 0.0;
  for (const SeqEdge& e : seq.edges()) {
    if (!node_ok[static_cast<std::size_t>(e.from)] ||
        !node_ok[static_cast<std::size_t>(e.to)]) {
      continue;
    }
    total += e.bits * manhattan(node_pos[static_cast<std::size_t>(e.from)],
                                node_pos[static_cast<std::size_t>(e.to)]);
  }
  return total;
}

}  // namespace hidap
