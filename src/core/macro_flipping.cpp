#include "core/macro_flipping.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>

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

// Bounding box of a point set; min/max do not depend on absorb order.
struct Box {
  double xmin = std::numeric_limits<double>::max();
  double xmax = -std::numeric_limits<double>::max();
  double ymin = std::numeric_limits<double>::max();
  double ymax = -std::numeric_limits<double>::max();

  void absorb(const Point& p) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
};

// One placement's view of the MacroNets index: each net's fixed
// endpoints folded into one box, and the pins of the macros this
// placement holds. Nets none of whose macros are placed drop out.
class FlipEvaluator {
 public:
  FlipEvaluator(const Design& design, const HierTree& ht, const MacroNets& nets,
                const std::vector<Rect>& region,
                const std::vector<std::uint8_t>& region_valid,
                std::vector<MacroPlacement>& macros)
      : macros_(macros) {
    // Placement index of each indexed macro; the last entry of a cell
    // wins.
    std::vector<int> slot(nets.macro_cells.size(), -1);
    for (std::size_t i = 0; i < macros.size(); ++i) {
      const auto it = std::lower_bound(nets.macro_cells.begin(), nets.macro_cells.end(),
                                       macros[i].cell);
      if (it != nets.macro_cells.end() && *it == macros[i].cell) {
        slot[static_cast<std::size_t>(it - nets.macro_cells.begin())] = static_cast<int>(i);
      }
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

    for (std::size_t n = 0; n < nets.net_count(); ++n) {
      Box fixed;
      for (std::uint32_t k = nets.port_start[n]; k < nets.port_start[n + 1]; ++k) {
        fixed.absorb(nets.ports[k]);
      }
      for (std::uint32_t k = nets.node_start[n]; k < nets.node_start[n + 1]; ++k) {
        fixed.absorb(center[static_cast<std::size_t>(nets.nodes[k])]);
      }
      const auto first = static_cast<std::uint32_t>(pins_.size());
      for (std::uint32_t k = nets.pin_start[n]; k < nets.pin_start[n + 1]; ++k) {
        const MacroNets::Pin& pin = nets.pins[k];
        const int pl = slot[pin.macro];
        if (pl >= 0) {
          pins_.push_back({pl, pin.dx, pin.dy});
          continue;
        }
        // An unplaced macro is a fixed endpoint like any other cell.
        const CellId cell = nets.macro_cells[pin.macro];
        const Cell& c = design.cell(cell);
        fixed.absorb(c.fixed_pos ? *c.fixed_pos
                                 : center[static_cast<std::size_t>(ht.node_of_cell(cell))]);
      }
      const auto last = static_cast<std::uint32_t>(pins_.size());
      if (last == first) continue;
      live_.push_back({fixed, first, last});
    }

    // Nets of each placed macro in net order, once per pin (CSR).
    net_start_.assign(macros.size() + 1, 0);
    for (const LivePin& p : pins_) ++net_start_[static_cast<std::size_t>(p.pl) + 1];
    for (std::size_t i = 0; i < macros.size(); ++i) net_start_[i + 1] += net_start_[i];
    nets_of_.resize(pins_.size());
    std::vector<std::uint32_t> fill(net_start_.begin(), net_start_.end() - 1);
    for (std::size_t n = 0; n < live_.size(); ++n) {
      for (std::uint32_t k = live_[n].pin_begin; k < live_[n].pin_end; ++k) {
        nets_of_[fill[static_cast<std::size_t>(pins_[k].pl)]++] = static_cast<std::uint32_t>(n);
      }
    }
  }

  std::size_t net_count() const { return live_.size(); }

  double total_hpwl() const {
    double sum = 0.0;
    for (std::size_t n = 0; n < live_.size(); ++n) sum += net_hpwl(n);
    return sum;
  }

  /// HPWL of the nets touching macro `pl` if it had orientation `o`.
  double macro_hpwl(std::size_t pl, Orientation o) const {
    const Orientation saved = macros_[pl].orientation;
    macros_[pl].orientation = o;
    double sum = 0.0;
    for (std::uint32_t k = net_start_[pl]; k < net_start_[pl + 1]; ++k) {
      sum += net_hpwl(nets_of_[k]);
    }
    macros_[pl].orientation = saved;
    return sum;
  }

 private:
  struct LiveNet {
    Box fixed;
    std::uint32_t pin_begin;
    std::uint32_t pin_end;
  };
  struct LivePin {
    int pl;  // placement index
    float dx;
    float dy;
  };

  Point macro_pin_position(const LivePin& pin) const {
    const MacroPlacement& m = macros_[static_cast<std::size_t>(pin.pl)];
    // The placed rect stores the oriented footprint; recover the R0 size.
    const bool swapped = swaps_dimensions(m.orientation);
    const double w0 = swapped ? m.rect.h : m.rect.w;
    const double h0 = swapped ? m.rect.w : m.rect.h;
    const Point local = transform_pin(Point{pin.dx, pin.dy}, w0, h0, m.orientation);
    return {m.rect.x + local.x, m.rect.y + local.y};
  }

  double net_hpwl(std::size_t n) const {
    const LiveNet& net = live_[n];
    Box box = net.fixed;
    for (std::uint32_t k = net.pin_begin; k < net.pin_end; ++k) {
      box.absorb(macro_pin_position(pins_[k]));
    }
    if (box.xmax < box.xmin) return 0.0;
    return (box.xmax - box.xmin) + (box.ymax - box.ymin);
  }

  std::vector<MacroPlacement>& macros_;
  std::vector<LiveNet> live_;
  std::vector<LivePin> pins_;
  std::vector<std::uint32_t> net_start_;  // per placement index, into nets_of_
  std::vector<std::uint32_t> nets_of_;    // live net indices
};

}  // namespace

MacroNets::MacroNets(const Design& design, const HierTree& ht) : macro_cells(design.macros()) {
  assert(macro_cells.size() == ht.total_macros());
  // Per HT node: the stamp of the last net that listed it.
  std::vector<std::uint32_t> listed(ht.size(), 0);
  pin_start.push_back(0);
  port_start.push_back(0);
  node_start.push_back(0);
  for (const Net& net : design.nets()) {
    const auto is_macro = [&](const NetPin& p) {
      return design.cell(p.cell).kind == CellKind::Macro;
    };
    if (!(net.driver.cell != kInvalidId && is_macro(net.driver)) &&
        std::none_of(net.sinks.begin(), net.sinks.end(), is_macro)) {
      continue;
    }
    const auto stamp = static_cast<std::uint32_t>(pin_start.size());
    const auto add = [&](const NetPin& p) {
      const Cell& c = design.cell(p.cell);
      if (c.kind == CellKind::Macro) {
        pins.push_back({ht.macro_ordinal(p.cell), p.dx, p.dy});
      } else if (c.fixed_pos) {
        ports.push_back(*c.fixed_pos);
      } else {
        const HtNodeId node = ht.node_of_cell(p.cell);
        std::uint32_t& last = listed[static_cast<std::size_t>(node)];
        if (last != stamp) {
          last = stamp;
          nodes.push_back(node);
        }
      }
    };
    if (net.driver.cell != kInvalidId) add(net.driver);
    for (const NetPin& p : net.sinks) add(p);
    pin_start.push_back(static_cast<std::uint32_t>(pins.size()));
    port_start.push_back(static_cast<std::uint32_t>(ports.size()));
    node_start.push_back(static_cast<std::uint32_t>(nodes.size()));
  }
  // The index lives as long as its cached context.
  pin_start.shrink_to_fit();
  pins.shrink_to_fit();
  port_start.shrink_to_fit();
  ports.shrink_to_fit();
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
  stats.hpwl_before = eval.total_hpwl();
  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    int flips_this_pass = 0;
    for (std::size_t i = 0; i < macros.size(); ++i) {
      if (skip && skip->count(macros[i].cell)) continue;
      const Orientation current = macros[i].orientation;
      Orientation best = current;
      double best_cost = eval.macro_hpwl(i, current);
      for (const Orientation o : candidates_for(current)) {
        if (o == current) continue;
        const double cost = eval.macro_hpwl(i, o);
        if (cost + 1e-9 < best_cost) {
          best_cost = cost;
          best = o;
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
