#include "eval/metrics.hpp"

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace hidap {

PlacementEvaluator::PlacementEvaluator(const Design& design, const HierTree& ht,
                                       const SeqGraph& seq, const EvalOptions& options)
    : model_(std::make_shared<const CellPlacementModel>(design, ht, options.place)),
      seq_(&seq),
      options_(options) {}

Metrics PlacementEvaluator::evaluate(const PlacementResult& placement) const {
  const PlacementResult* one[] = {&placement};
  return evaluate_sweep(one).best;
}

SweepMetrics PlacementEvaluator::evaluate_sweep(
    std::span<const PlacementResult* const> placements) const {
  static obs::Counter& evaluated = obs::default_registry().counter("eval.placements");
  static obs::Counter& link_sweeps = obs::default_registry().counter("eval.link_sweeps");
  SweepMetrics out;
  out.winner = placements.size();
  if (placements.empty()) return out;
  const obs::Phase phase("eval");
  evaluated.add(placements.size());
  link_sweeps.add(model_->link_count() * static_cast<std::uint64_t>(model_->sweeps()) *
                  placements.size());

  const std::vector<PlacedDesign> placed = [&] {
    const obs::Span span("place_cells", "eval");
    return place_cells(model_, placements);
  }();

  // Rank by wirelength, first index on ties; the first placement when
  // none compares below the largest double (all NaN).
  out.wl_m.reserve(placements.size());
  {
    const obs::Span span("hpwl", "eval");
    for (const PlacedDesign& p : placed) out.wl_m.push_back(total_hpwl(p).total_m);
  }
  out.winner = 0;
  double best_wl = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < out.wl_m.size(); ++i) {
    if (out.wl_m[i] < best_wl) {
      best_wl = out.wl_m[i];
      out.winner = i;
    }
  }

  const PlacementResult& placement = *placements[out.winner];
  const PlacedDesign& winner = placed[out.winner];
  Metrics& m = out.best;
  m.flow = placement.flow_name;
  m.runtime_s = placement.runtime_seconds;
  m.wl_m = out.wl_m[out.winner];
  {
    const obs::Span span("congestion", "eval");
    m.grc_percent = estimate_congestion(winner, options_.congestion).grc_percent;
  }
  {
    const obs::Span span("timing", "eval");
    const TimingReport timing = analyze_timing(winner, *seq_, options_.timing);
    m.wns_percent = timing.wns_percent;
    m.tns_ns = timing.tns_ns;
  }
  {
    const obs::Span span("density", "eval");
    m.peak_density_near_macros =
        compute_density(winner, options_.density_grid).peak_density_near_macros();
  }
  return out;
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
      if (const auto p = port_centroid(design, node)) {
        node_pos[static_cast<std::size_t>(n)] = *p;
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
