#include "core/macro_flipping.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace hidap {

namespace {

// Orientation candidates sharing the footprint of `current`.
std::array<Orientation, 4> candidates_for(Orientation current) {
  switch (current) {
    case Orientation::R0:
    case Orientation::MX:
    case Orientation::MY:
    case Orientation::R180:
      return {Orientation::R0, Orientation::MX, Orientation::MY, Orientation::R180};
    default:
      return {Orientation::R90, Orientation::MX90, Orientation::MY90, Orientation::R270};
  }
}

// The four candidates of a footprint group put a pin at one of two x
// and one of two y positions: candidate 0 takes the first of each,
// candidate 3 the second of each, and kPick[group][c] says which x
// (first) and which y (second) candidate c takes. Group 0 is {R0, MX,
// MY, R180}, group 1 {R90, MX90, MY90, R270} (see transform_pin).
constexpr std::uint8_t kPick[2][4][2] = {{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
                                         {{0, 0}, {1, 0}, {0, 1}, {1, 1}}};

// One placement's view of the MacroNets index: each net's fixed
// endpoints folded into one box and its count of placed pins. Nets none
// of whose macros are placed drop out.
class FlipEvaluator {
 public:
  FlipEvaluator(const Design& design, const HierTree& ht, const MacroNets& nets,
                const std::vector<Rect>& region,
                const std::vector<std::uint8_t>& region_valid,
                std::vector<MacroPlacement>& macros)
      : ht_(ht), nets_(nets), macros_(macros), slot_(ht.total_macros(), -1) {
    // Placement index of each macro; the last entry of a cell wins.
    for (std::size_t i = 0; i < macros.size(); ++i) {
      const std::uint32_t m = ht.macro_ordinal(macros[i].cell);
      if (m != HierTree::kNoMacroOrdinal) slot_[m] = static_cast<int>(i);
    }
    // Estimated position of every HT node's cells: the center of its
    // innermost valid region (the origin when not even the root has
    // one). HT ids put parents before children.
    std::vector<Point> center(ht.size());
    for (std::size_t id = 0; id < ht.size(); ++id) {
      if (region_valid[id]) {
        center[id] = region[id].center();
      } else if (static_cast<HtNodeId>(id) != ht.root()) {
        const auto parent = static_cast<std::size_t>(ht.node(static_cast<HtNodeId>(id)).parent);
        assert(parent < id);
        center[id] = center[parent];
      }
    }

    fixed_.reserve(nets.net_count());
    for (std::size_t n = 0; n < nets.net_count(); ++n) {
      FixedNet& net = fixed_.emplace_back(FixedNet{nets.port_boxes[nets.port_box_of[n]], 0});
      for (std::uint32_t k = nets.node_start[n]; k < nets.node_start[n + 1]; ++k) {
        net.box.absorb(center[static_cast<std::size_t>(nets.nodes[k])]);
      }
      for (std::uint32_t k = nets.pin_start[n]; k < nets.pin_start[n + 1]; ++k) {
        const std::uint32_t m = nets.pins[k].macro;
        if (slot_[m] >= 0) {
          ++net.placed;
          continue;
        }
        // An unplaced macro is a fixed endpoint like any other cell.
        const CellId cell = design.macros()[m];
        const Cell& c = design.cell(cell);
        net.box.absorb(c.fixed_pos ? *c.fixed_pos
                                   : center[static_cast<std::size_t>(ht.node_of_cell(cell))]);
      }
      if (net.placed == 0) continue;
      ++live_nets_;
      initial_hpwl_ += net_hpwl(n);
    }
  }

  std::size_t net_count() const { return live_nets_; }

  /// total_hpwl() as the placement came in, summed while indexing.
  double initial_hpwl() const { return initial_hpwl_; }

  double total_hpwl() const {
    double sum = 0.0;
    for (std::size_t n = 0; n < fixed_.size(); ++n) {
      if (fixed_[n].placed > 0) sum += net_hpwl(n);
    }
    return sum;
  }

  /// Writes into `cost[c]` the HPWL of the nets of placement entry `pl`
  /// (once per pin) with it in orientation `candidates[c]`, the other
  /// macros as placed. An entry that is not its cell's last scores 0.
  void score(std::size_t pl, const std::array<Orientation, 4>& candidates,
             std::array<double, 4>& cost) const {
    cost = {0.0, 0.0, 0.0, 0.0};
    const std::uint32_t m = ht_.macro_ordinal(macros_[pl].cell);
    if (m == HierTree::kNoMacroOrdinal || slot_[m] != static_cast<int>(pl)) return;
    // pin_position() of candidates[0] and [3] (R0 and R180, or R90 and
    // R270) with the footprint work hoisted out of the pin loop.
    const bool rotated = swaps_dimensions(candidates[0]);
    const int group = rotated ? 1 : 0;
    const Rect& rect = macros_[pl].rect;
    const double w0 = rotated ? rect.h : rect.w;
    const double h0 = rotated ? rect.w : rect.h;
    const auto corner = [&](const Point& offset, Orientation o) {
      const Point local = transform_pin(offset, w0, h0, o);
      return Point{rect.x + local.x, rect.y + local.y};
    };
    for (const MacroNets::MacroPin& pin : nets_.macro_pins[m]) {
      const FixedNet& net = fixed_[pin.net];
      if (net.placed == 1) {
        // This pin is the net's only placed one: each candidate's box is
        // the fixed box plus one of two x and one of two y positions.
        const Point offset{pin.dx, pin.dy};
        const Point a =
            rotated ? corner(offset, Orientation::R90) : corner(offset, Orientation::R0);
        const Point b =
            rotated ? corner(offset, Orientation::R270) : corner(offset, Orientation::R180);
        const double xs[2] = {std::max(net.box.xmax, a.x) - std::min(net.box.xmin, a.x),
                              std::max(net.box.xmax, b.x) - std::min(net.box.xmin, b.x)};
        const double ys[2] = {std::max(net.box.ymax, a.y) - std::min(net.box.ymin, a.y),
                              std::max(net.box.ymax, b.y) - std::min(net.box.ymin, b.y)};
        for (std::size_t c = 0; c < 4; ++c) {
          cost[c] += xs[kPick[group][c][0]] + ys[kPick[group][c][1]];
        }
        continue;
      }
      for (std::size_t c = 0; c < 4; ++c) {
        BoundingBox box = net.box;
        for (std::uint32_t q = nets_.pin_start[pin.net]; q < nets_.pin_start[pin.net + 1]; ++q) {
          const MacroNets::Pin& other = nets_.pins[q];
          if (slot_[other.macro] < 0) continue;
          const auto at = static_cast<std::size_t>(slot_[other.macro]);
          const Orientation o = at == pl ? candidates[c] : macros_[at].orientation;
          box.absorb(pin_position(at, other.dx, other.dy, o));
        }
        cost[c] += box.half_perimeter();
      }
    }
  }

 private:
  struct FixedNet {
    BoundingBox box;
    std::uint32_t placed = 0;  ///< pins whose macro this placement places
  };

  // HPWL of net `n` with every placed macro in its current orientation.
  double net_hpwl(std::size_t n) const {
    BoundingBox box = fixed_[n].box;
    for (std::uint32_t k = nets_.pin_start[n]; k < nets_.pin_start[n + 1]; ++k) {
      const MacroNets::Pin& pin = nets_.pins[k];
      if (slot_[pin.macro] < 0) continue;
      const auto at = static_cast<std::size_t>(slot_[pin.macro]);
      box.absorb(pin_position(at, pin.dx, pin.dy, macros_[at].orientation));
    }
    return box.half_perimeter();
  }

  // Where the pin at R0 offset (dx, dy) of placement entry `pl` lands in
  // orientation `o`, which shares the placed footprint.
  Point pin_position(std::size_t pl, float dx, float dy, Orientation o) const {
    const MacroPlacement& m = macros_[pl];
    // The placed rect stores the oriented footprint; recover the R0 size.
    const bool swapped = swaps_dimensions(o);
    const double w0 = swapped ? m.rect.h : m.rect.w;
    const double h0 = swapped ? m.rect.w : m.rect.h;
    const Point local = transform_pin(Point{dx, dy}, w0, h0, o);
    return {m.rect.x + local.x, m.rect.y + local.y};
  }

  const HierTree& ht_;
  const MacroNets& nets_;
  const std::vector<MacroPlacement>& macros_;
  std::vector<int> slot_;        // per macro ordinal: placement index, -1 = unplaced
  std::vector<FixedNet> fixed_;  // per indexed net
  std::size_t live_nets_ = 0;
  double initial_hpwl_ = 0.0;
};

}  // namespace

MacroNets::MacroNets(const Design& design, const HierTree& ht) {
  assert(design.macro_count() == ht.total_macros());
  // Per HT node: the stamp of the last net that listed it.
  std::vector<std::uint32_t> listed(ht.size(), 0);
  pin_start.push_back(0);
  node_start.push_back(0);
  port_boxes.emplace_back();  // the empty box of nets without ports
  const auto is_macro = [&](const NetPin& p) {
    return design.cell(p.cell).kind == CellKind::Macro;
  };
  for (std::size_t n = 0; n < design.net_count(); ++n) {
    const std::span<const NetPin> net_pins = design.pins(static_cast<NetId>(n));
    if (std::none_of(net_pins.begin(), net_pins.end(), is_macro)) continue;
    const auto stamp = static_cast<std::uint32_t>(pin_start.size());
    BoundingBox ports;
    bool has_ports = false;
    const auto add = [&](const NetPin& p) {
      const Cell& c = design.cell(p.cell);
      if (c.kind == CellKind::Macro) {
        pins.push_back({ht.macro_ordinal(p.cell), p.dx, p.dy});
      } else if (c.fixed_pos) {
        ports.absorb(*c.fixed_pos);
        has_ports = true;
      } else {
        const HtNodeId node = ht.node_of_cell(p.cell);
        std::uint32_t& last = listed[static_cast<std::size_t>(node)];
        if (last != stamp) {
          last = stamp;
          nodes.push_back(node);
        }
      }
    };
    for (const NetPin& p : net_pins) add(p);
    pin_start.push_back(static_cast<std::uint32_t>(pins.size()));
    port_box_of.push_back(has_ports ? static_cast<std::uint32_t>(port_boxes.size()) : 0);
    if (has_ports) port_boxes.push_back(ports);
    node_start.push_back(static_cast<std::uint32_t>(nodes.size()));
  }
  // Each macro's pins in net order.
  macro_pins = Csr<MacroPin>::group(ht.total_macros(), [&](auto&& emit) {
    for (std::uint32_t n = 0; n + 1 < pin_start.size(); ++n) {
      for (std::uint32_t k = pin_start[n]; k < pin_start[n + 1]; ++k) {
        emit(pins[k].macro, MacroPin{n, pins[k].dx, pins[k].dy});
      }
    }
  });
  // The index lives as long as its cached context.
  pin_start.shrink_to_fit();
  pins.shrink_to_fit();
  port_box_of.shrink_to_fit();
  port_boxes.shrink_to_fit();
  node_start.shrink_to_fit();
  nodes.shrink_to_fit();
}

FlippingStats flip_macros(const Design& design, const HierTree& ht, const MacroNets& nets,
                          const std::vector<Rect>& region,
                          const std::vector<std::uint8_t>& region_valid,
                          std::vector<MacroPlacement>& macros, int max_passes,
                          const std::set<CellId>* skip) {
  FlippingStats stats;
  FlipEvaluator eval(design, ht, nets, region, region_valid, macros);
  static obs::Counter& evaluated = obs::default_registry().counter("flip.macro_nets");
  evaluated.add(eval.net_count());
  stats.hpwl_before = eval.initial_hpwl();
  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    int flips_this_pass = 0;
    for (std::size_t i = 0; i < macros.size(); ++i) {
      if (skip && skip->count(macros[i].cell)) continue;
      const Orientation current = macros[i].orientation;
      const std::array<Orientation, 4> candidates = candidates_for(current);
      std::array<double, 4> cost;
      eval.score(i, candidates, cost);
      // The current orientation first, then the others in candidate order.
      const auto at = static_cast<std::size_t>(
          std::find(candidates.begin(), candidates.end(), current) - candidates.begin());
      Orientation best = current;
      double best_cost = cost[at];
      for (std::size_t c = 0; c < 4; ++c) {
        if (c == at) continue;
        if (cost[c] + 1e-9 < best_cost) {
          best_cost = cost[c];
          best = candidates[c];
        }
      }
      if (best != current) {
        macros[i].orientation = best;
        ++flips_this_pass;
      }
    }
    stats.flips += flips_this_pass;
    if (flips_this_pass == 0) break;
  }
  stats.hpwl_after = eval.total_hpwl();
  HIDAP_LOG_DEBUG("flipping: %d flips in %d passes, macro-net HPWL %.3g -> %.3g",
                  stats.flips, stats.passes, stats.hpwl_before, stats.hpwl_after);
  return stats;
}

FlippingStats flip_macros(const Design& design, const HierTree& ht,
                          const std::vector<Rect>& region,
                          const std::vector<std::uint8_t>& region_valid,
                          std::vector<MacroPlacement>& macros, int max_passes,
                          const std::set<CellId>* skip) {
  return flip_macros(design, ht, MacroNets(design, ht), region, region_valid, macros,
                     max_passes, skip);
}

}  // namespace hidap
