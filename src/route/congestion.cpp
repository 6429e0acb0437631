#include "route/congestion.hpp"

#include <algorithm>

namespace hidap {

namespace {

// The congestion report of the net boxes `each_box` yields, in its order.
// `each_box(demand)` calls demand(box) once per net.
template <typename EachBox>
CongestionReport congestion(const PlacedDesign& placed, const CongestionOptions& options,
                            EachBox&& each_box) {
  const Rect die = placed.die();
  const int g = options.grid;
  const double bw = die.w / g, bh = die.h / g;

  // Horizontal edges: between (x,y) and (x+1,y); vertical likewise.
  std::vector<double> hdemand(static_cast<std::size_t>(g) * g, 0.0);
  std::vector<double> vdemand(static_cast<std::size_t>(g) * g, 0.0);
  std::vector<double> hcap(static_cast<std::size_t>(g) * g, bh * options.tracks_per_um);
  std::vector<double> vcap(static_cast<std::size_t>(g) * g, bw * options.tracks_per_um);

  // Derate capacity over macros.
  for (const Rect& macro : placed.macro_blockages()) {
    const int x0 = std::clamp(static_cast<int>((macro.x - die.x) / bw), 0, g - 1);
    const int x1 = std::clamp(static_cast<int>((macro.xmax() - die.x) / bw), 0, g - 1);
    const int y0 = std::clamp(static_cast<int>((macro.y - die.y) / bh), 0, g - 1);
    const int y1 = std::clamp(static_cast<int>((macro.ymax() - die.y) / bh), 0, g - 1);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        const Rect bin{die.x + x * bw, die.y + y * bh, bw, bh};
        const double frac = bin.overlap_area(macro) / bin.area();
        const double derate = 1.0 - options.macro_blockage * frac;
        hcap[static_cast<std::size_t>(y) * g + x] *= derate;
        vcap[static_cast<std::size_t>(y) * g + x] *= derate;
      }
    }
  }

  // Net demand over bounding boxes.
  CongestionReport report;
  each_box([&](const BoundingBox& box) {
    const int x0 = std::clamp(static_cast<int>((box.xmin - die.x) / bw), 0, g - 1);
    const int x1 = std::clamp(static_cast<int>((box.xmax - die.x) / bw), 0, g - 1);
    const int y0 = std::clamp(static_cast<int>((box.ymin - die.y) / bh), 0, g - 1);
    const int y1 = std::clamp(static_cast<int>((box.ymax - die.y) / bh), 0, g - 1);
    const int rows = y1 - y0 + 1;
    const int cols = x1 - x0 + 1;
    // One horizontal traversal spread over the rows of the box, one
    // vertical traversal spread over the columns.
    if (cols > 1) {
      const double per_row = 1.0 / rows;
      for (int y = y0; y <= y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          hdemand[static_cast<std::size_t>(y) * g + x] += per_row;
          report.total_demand += per_row;
        }
      }
    }
    if (rows > 1) {
      const double per_col = 1.0 / cols;
      for (int x = x0; x <= x1; ++x) {
        for (int y = y0; y < y1; ++y) {
          vdemand[static_cast<std::size_t>(y) * g + x] += per_col;
          report.total_demand += per_col;
        }
      }
    }
  });

  long edges = 0, overflowed = 0;
  const auto tally = [&](const std::vector<double>& demand,
                         const std::vector<double>& cap) {
    for (std::size_t i = 0; i < demand.size(); ++i) {
      if (cap[i] <= 0) continue;
      ++edges;
      const double ratio = demand[i] / cap[i];
      report.worst_overflow = std::max(report.worst_overflow, ratio);
      if (ratio > 1.0) ++overflowed;
    }
  };
  tally(hdemand, hcap);
  tally(vdemand, vcap);
  report.grc_percent = edges > 0 ? 100.0 * overflowed / edges : 0.0;
  return report;
}

}  // namespace

CongestionReport estimate_congestion(const PlacedDesign& placed,
                                     const CongestionOptions& options) {
  return congestion(placed, options,
                    [&](const auto& demand) { placed.for_each_net_box(demand); });
}

CongestionReport estimate_congestion_per_net(const PlacedDesign& placed,
                                             const CongestionOptions& options) {
  const Design& design = placed.design();
  return congestion(placed, options, [&](const auto& demand) {
    for (std::size_t n = 0; n < design.net_count(); ++n) {
      const std::span<const NetPin> pins = design.pins(static_cast<NetId>(n));
      if (pins.size() < 2) continue;
      BoundingBox box;
      for (const NetPin& p : pins) box.absorb(placed.pin_position(p));
      demand(box);
    }
  });
}

}  // namespace hidap
