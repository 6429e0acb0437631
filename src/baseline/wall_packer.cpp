#include "baseline/wall_packer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace hidap {

namespace {

// Places macros in `order` along the die walls in a pinwheel: west wall
// bottom-up, north wall left-right, east wall top-down, south wall
// right-left; the first ring touches the die edge and overflow starts a
// second ring right inside it. Each ring reserves a uniform band of
// thickness t = max min-dimension of the remaining macros, and every
// side stops one band short of the next side's corner, which makes rings
// overlap-free by construction. Orientation keeps the
// smaller dimension perpendicular to the wall (thin rings, maximal open
// center).
std::vector<MacroPlacement> pack_ring(const Design& design,
                                      const std::vector<CellId>& order, const Rect& die) {
  std::vector<MacroPlacement> placements;
  placements.reserve(order.size());

  const auto footprint = [&](CellId cell, bool long_side_vertical) {
    const MacroDef& def = design.macro_def_of(cell);
    const double depth = std::min(def.w, def.h);
    const double length = std::max(def.w, def.h);
    const bool swapped = long_side_vertical ? (def.h < def.w) : (def.w < def.h);
    return std::tuple{depth, length, swapped ? Orientation::R90 : Orientation::R0};
  };

  double inset = 0.0;
  std::size_t idx = 0;
  while (idx < order.size()) {
    // Band thickness for this ring.
    double t = 0.0;
    for (std::size_t i = idx; i < order.size(); ++i) {
      const MacroDef& def = design.macro_def_of(order[i]);
      t = std::max(t, std::min(def.w, def.h));
    }
    const double x0 = die.x + inset, x1 = die.xmax() - inset;
    const double y0 = die.y + inset, y1 = die.ymax() - inset;
    if (x1 - x0 <= 2 * t || y1 - y0 <= 2 * t) break;  // ring too small

    const std::size_t ring_start = idx;
    int side = 0;
    double cursor = 0.0;
    while (idx < order.size() && side < 4) {
      const bool vertical_side = (side == 0 || side == 2);
      const auto [depth, length, orient] = footprint(order[idx], vertical_side);
      Rect r;
      bool placed = false;
      switch (side) {
        case 0:  // west, y cursor upward in [y0, y1 - t]
          if (y0 + cursor + length <= y1 - t) {
            r = {x0, y0 + cursor, depth, length};
            placed = true;
          }
          break;
        case 1:  // north, x cursor rightward in [x0, x1 - t]
          if (x0 + cursor + length <= x1 - t) {
            r = {x0 + cursor, y1 - depth, length, depth};
            placed = true;
          }
          break;
        case 2:  // east, y cursor downward in [y0 + t, y1]
          if (y1 - cursor - length >= y0 + t) {
            r = {x1 - depth, y1 - cursor - length, depth, length};
            placed = true;
          }
          break;
        default:  // south, x cursor leftward in [x0 + t, x1]
          if (x1 - cursor - length >= x0 + t) {
            r = {x1 - cursor - length, y0, length, depth};
            placed = true;
          }
          break;
      }
      if (placed) {
        placements.push_back({order[idx], r, orient});
        cursor += length;
        ++idx;
      } else {
        ++side;
        cursor = 0.0;
      }
    }
    if (idx == ring_start) break;  // no progress: fall through to grid dump
    inset += t;
  }

  // Remainder (pathological shapes / ring exhaustion): center grid.
  if (idx < order.size()) {
    const std::size_t left = order.size() - idx;
    const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(left))));
    double max_w = 0, max_h = 0;
    for (std::size_t i = idx; i < order.size(); ++i) {
      max_w = std::max(max_w, design.macro_def_of(order[i]).w);
      max_h = std::max(max_h, design.macro_def_of(order[i]).h);
    }
    for (std::size_t i = idx; i < order.size(); ++i) {
      const MacroDef& def = design.macro_def_of(order[i]);
      const int c = static_cast<int>(i - idx) % cols;
      const int rr = static_cast<int>(i - idx) / cols;
      placements.push_back({order[i],
                            Rect{die.x + inset + c * max_w * 1.02,
                                 die.y + inset + rr * max_h * 1.02, def.w, def.h},
                            Orientation::R0});
    }
  }
  return placements;
}

// Wirelength surrogate for ring-order optimization: bits * distance over
// Gseq edges whose endpoints are macros or ports.
double seq_wirelength(const Design& design, const SeqGraph& seq,
                      const std::vector<MacroPlacement>& placements) {
  std::map<CellId, Point> pos;
  for (const MacroPlacement& m : placements) pos[m.cell] = m.rect.center();
  const auto position_of = [&](SeqNodeId n, Point* out) {
    const SeqNode& node = seq.node(n);
    if (node.kind == SeqKind::Macro) {
      const auto it = pos.find(node.macro_cell);
      if (it == pos.end()) return false;
      *out = it->second;
      return true;
    }
    if (node.kind == SeqKind::Port) {
      const auto p = port_centroid(design, node);
      if (!p) return false;
      *out = *p;
      return true;
    }
    return false;
  };
  double total = 0.0;
  for (const SeqEdge& e : seq.edges()) {
    Point a, b;
    if (position_of(e.from, &a) && position_of(e.to, &b)) {
      total += e.bits * manhattan(a, b);
    }
  }
  return total;
}

}  // namespace

PlacementResult place_macros_walls(const Design& design, const HierTree& ht,
                                   const SeqGraph& seq, const WallPackOptions& options) {
  const obs::Phase phase("wall_pack", "baseline");
  const Rect die{0, 0, design.die().w, design.die().h};

  // Initial order: hierarchy preorder keeps banks contiguous.
  std::vector<CellId> order;
  for (const HtNodeId n : ht.preorder(ht.root())) {
    if (ht.node(n).is_macro_leaf()) order.push_back(ht.node(n).macro_cell);
  }

  std::vector<CellId> current = order;
  std::vector<CellId> backup = current;
  std::vector<CellId> best = current;

  const auto cost_of = [&](const std::vector<CellId>& o) {
    return seq_wirelength(design, seq, pack_ring(design, o, die));
  };
  const double initial = cost_of(current);

  Rng rng(options.anneal.seed ^ 0xa0761d6478bd642fULL);
  AnnealHooks hooks;
  hooks.propose = [&]() {
    backup = current;
    if (current.size() >= 2) {
      if (rng.next_bool(0.5)) {
        // Swap two macros.
        const std::size_t i = rng.next_below(current.size());
        const std::size_t j = rng.next_below(current.size());
        std::swap(current[i], current[j]);
      } else {
        // Rotate a random span (moves a bank around the ring).
        std::size_t i = rng.next_below(current.size());
        std::size_t j = rng.next_below(current.size());
        if (i > j) std::swap(i, j);
        if (i < j) std::rotate(current.begin() + static_cast<long>(i),
                               current.begin() + static_cast<long>(i) + 1,
                               current.begin() + static_cast<long>(j) + 1);
      }
    }
    return cost_of(current);
  };
  hooks.reject = [&]() { current = backup; };
  hooks.on_new_best = [&](double) { best = current; };

  AnnealOptions anneal_options = options.anneal;
  anneal_options.obs_site = "anneal_wall";
  anneal(initial, anneal_options, hooks);

  PlacementResult result;
  result.macros = pack_ring(design, best, die);
  result.runtime_seconds = phase.seconds();
  result.flow_name = "IndEDA";
  HIDAP_LOG_INFO("IndEDA (wall packer) placed %zu macros in %.2fs",
                 result.macros.size(), result.runtime_seconds);
  return result;
}

}  // namespace hidap
