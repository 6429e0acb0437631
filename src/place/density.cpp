#include "place/density.hpp"

#include <algorithm>
#include <cmath>

namespace hidap {

double DensityMap::peak_cell_density() const {
  double peak = 0.0;
  for (const double d : cell) peak = std::max(peak, d);
  return peak;
}

namespace {
// "Near" = within 2 bins of any macro-covered bin while not being mostly
// macro itself; the radius absorbs the quantization of the spreading grid
// so boundary bins are not missed.
constexpr int kNearRadius = 2;
constexpr double kMacroBin = 0.05;
constexpr double kInsideMacro = 0.5;
}  // namespace

double DensityMap::peak_density_near_macros() const {
  double peak = 0.0;
  for_each_near_macro_bin([&](double density) { peak = std::max(peak, density); });
  return peak;
}

double DensityMap::mean_density_near_macros() const {
  double sum = 0.0;
  long count = 0;
  for_each_near_macro_bin([&](double density) {
    sum += density;
    ++count;
  });
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

template <typename Fn>
void DensityMap::for_each_near_macro_bin(Fn&& fn) const {
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      if (at_macro(x, y) > kInsideMacro) continue;  // inside macro area
      bool near = false;
      for (int dy = -kNearRadius; dy <= kNearRadius && !near; ++dy) {
        for (int dx = -kNearRadius; dx <= kNearRadius && !near; ++dx) {
          const int px = x + dx, py = y + dy;
          if (px < 0 || py < 0 || px >= nx || py >= ny) continue;
          if (at_macro(px, py) > kMacroBin) near = true;
        }
      }
      if (near) fn(at_cell(x, y));
    }
  }
}

DensityMap compute_density(const PlacedDesign& placed, int grid) {
  DensityMap map;
  map.nx = map.ny = grid;
  map.cell.assign(static_cast<std::size_t>(grid) * grid, 0.0);
  map.macro.assign(static_cast<std::size_t>(grid) * grid, 0.0);

  const Rect die = placed.die();
  const double bw = die.w / grid, bh = die.h / grid;
  const double bin_area = bw * bh;

  // Macro coverage: exact overlap.
  for (const Rect& macro : placed.macro_blockages()) {
    const int x0 = std::clamp(static_cast<int>((macro.x - die.x) / bw), 0, grid - 1);
    const int x1 = std::clamp(static_cast<int>((macro.xmax() - die.x) / bw), 0, grid - 1);
    const int y0 = std::clamp(static_cast<int>((macro.y - die.y) / bh), 0, grid - 1);
    const int y1 = std::clamp(static_cast<int>((macro.ymax() - die.y) / bh), 0, grid - 1);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        const Rect bin{die.x + x * bw, die.y + y * bh, bw, bh};
        map.macro[static_cast<std::size_t>(y) * grid + x] +=
            bin.overlap_area(macro) / bin_area;
      }
    }
  }

  // Each cluster occupies (approximately) a square of its own area
  // centered at its position; the overlap with every bin is accumulated,
  // which avoids point-mass artifacts at coarse spreading grids.
  const auto& clusters = placed.clustering().clusters;
  const auto& pos = placed.cluster_positions();
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const double side = std::sqrt(clusters[i].area);
    Rect foot{pos[i].x - side / 2, pos[i].y - side / 2, side, side};
    foot.x = std::clamp(foot.x, die.x, std::max(die.x, die.xmax() - side));
    foot.y = std::clamp(foot.y, die.y, std::max(die.y, die.ymax() - side));
    const int x0 = std::clamp(static_cast<int>((foot.x - die.x) / bw), 0, grid - 1);
    const int x1 = std::clamp(static_cast<int>((foot.xmax() - die.x) / bw), 0, grid - 1);
    const int y0 = std::clamp(static_cast<int>((foot.y - die.y) / bh), 0, grid - 1);
    const int y1 = std::clamp(static_cast<int>((foot.ymax() - die.y) / bh), 0, grid - 1);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        const Rect bin{die.x + x * bw, die.y + y * bh, bw, bh};
        map.cell[static_cast<std::size_t>(y) * grid + x] +=
            bin.overlap_area(foot) / bin_area;
      }
    }
  }
  return map;
}

}  // namespace hidap
