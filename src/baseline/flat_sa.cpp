#include "baseline/flat_sa.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/log.hpp"
#include "util/timer.hpp"

namespace hidap {

namespace {

// Bit-weighted sequential wirelength between macro centers and fixed
// port centroids, plus overlap and out-of-die area, recomputed from
// scratch on every call.
class FlatCostModel {
 public:
  FlatCostModel(const Design& design, const SeqGraph& seq, const Rect& die,
                double overlap_weight)
      : die_(die), overlap_weight_(overlap_weight) {
    // Edges between macros / macro and port, precomputed.
    for (const SeqEdge& e : seq.edges()) {
      const SeqNode& a = seq.node(e.from);
      const SeqNode& b = seq.node(e.to);
      if (a.kind == SeqKind::Macro && b.kind == SeqKind::Macro) {
        macro_edges_.push_back({a.macro_cell, b.macro_cell, double(e.bits)});
      } else if (a.kind == SeqKind::Macro && b.kind == SeqKind::Port) {
        if (const auto p = port_centroid(design, b)) {
          port_edges_.push_back({a.macro_cell, *p, double(e.bits)});
        }
      } else if (a.kind == SeqKind::Port && b.kind == SeqKind::Macro) {
        if (const auto p = port_centroid(design, a)) {
          port_edges_.push_back({b.macro_cell, *p, double(e.bits)});
        }
      }
    }
  }

  double operator()(const std::vector<MacroPlacement>& macros) const {
    std::unordered_map<CellId, Point> pos;
    for (const MacroPlacement& m : macros) pos[m.cell] = m.rect.center();
    double wl = 0.0;
    for (const auto& [a, b, w] : macro_edges_) {
      wl += w * manhattan(pos.at(a), pos.at(b));
    }
    for (const auto& [a, p, w] : port_edges_) wl += w * manhattan(pos.at(a), p);
    double overlap = 0.0;
    for (std::size_t i = 0; i < macros.size(); ++i) {
      for (std::size_t j = i + 1; j < macros.size(); ++j) {
        overlap += macros[i].rect.overlap_area(macros[j].rect);
      }
      // Out-of-die is treated as overlap with the outside.
      const Rect& r = macros[i].rect;
      const double inside = r.overlap_area(die_);
      overlap += r.area() - inside;
    }
    return wl + overlap_weight_ * overlap;
  }

 private:
  struct MacroEdge {
    CellId a, b;
    double w;
  };
  struct PortEdge {
    CellId a;
    Point p;
    double w;
  };
  Rect die_;
  double overlap_weight_;
  std::vector<MacroEdge> macro_edges_;
  std::vector<PortEdge> port_edges_;
};

}  // namespace

PlacementResult place_macros_flat_sa(const Design& design, const SeqGraph& seq,
                                     const FlatSaOptions& options) {
  Timer timer;
  const Rect die{0, 0, design.die().w, design.die().h};

  std::vector<MacroPlacement> state;
  {
    // Initial grid.
    const std::vector<CellId> macros = design.macros();
    const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(macros.size()))));
    for (std::size_t i = 0; i < macros.size(); ++i) {
      const MacroDef& def = design.macro_def_of(macros[i]);
      const int c = static_cast<int>(i) % cols;
      const int r = static_cast<int>(i) / cols;
      state.push_back({macros[i],
                       Rect{die.x + die.w * (c + 0.15) / cols,
                            die.y + die.h * (r + 0.15) / cols, def.w, def.h},
                       Orientation::R0});
    }
  }

  const FlatCostModel cost(design, seq, die, options.overlap_weight);
  std::vector<MacroPlacement> best = state;
  const double initial = cost(state);

  Rng rng(options.anneal.seed ^ 0xe7037ed1a0b428dbULL);

  // One random move, applied to `state` in place.
  const auto propose_move = [&rng, &die](std::vector<MacroPlacement>& s) {
    const std::size_t i = rng.next_below(s.size());
    const int kind = rng.next_int(0, 2);
    if (kind == 0 && s.size() >= 2) {
      // Swap centers of two macros.
      const std::size_t j = rng.next_below(s.size());
      const Point ci = s[i].rect.center();
      const Point cj = s[j].rect.center();
      auto recenter = [](MacroPlacement& m, const Point& c) {
        m.rect.x = c.x - m.rect.w / 2;
        m.rect.y = c.y - m.rect.h / 2;
      };
      recenter(s[i], cj);
      recenter(s[j], ci);
    } else if (kind == 1) {
      // Random displacement (up to 20% of the die).
      s[i].rect.x += rng.next_double(-0.2, 0.2) * die.w;
      s[i].rect.y += rng.next_double(-0.2, 0.2) * die.h;
      s[i].rect.x = std::clamp(s[i].rect.x, die.x,
                               std::max(die.x, die.xmax() - s[i].rect.w));
      s[i].rect.y = std::clamp(s[i].rect.y, die.y,
                               std::max(die.y, die.ymax() - s[i].rect.h));
    } else {
      // Rotate 90 degrees in place.
      MacroPlacement& m = s[i];
      const Point c = m.rect.center();
      std::swap(m.rect.w, m.rect.h);
      m.rect.x = c.x - m.rect.w / 2;
      m.rect.y = c.y - m.rect.h / 2;
      m.orientation = swaps_dimensions(m.orientation) ? Orientation::R0 : Orientation::R90;
    }
  };

  std::vector<MacroPlacement> backup;
  AnnealHooks hooks;
  hooks.propose = [&]() {
    backup = state;
    propose_move(state);
    return cost(state);
  };
  hooks.reject = [&]() { state = backup; };
  hooks.on_new_best = [&](double) { best = state; };

  AnnealOptions anneal_options = options.anneal;
  anneal_options.obs_site = "anneal_flat";
  anneal(initial, anneal_options, hooks);

  PlacementResult result;
  result.macros = std::move(best);
  result.runtime_seconds = timer.seconds();
  result.flow_name = "FlatSA";
  HIDAP_LOG_INFO("FlatSA placed %zu macros in %.2fs", result.macros.size(),
                 result.runtime_seconds);
  return result;
}

}  // namespace hidap
