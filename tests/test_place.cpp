// Cell-placement proxy tests: clustering, quadratic solve, spreading,
// HPWL, density maps, and the shared per-design placement model.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/hidap.hpp"
#include "gen/suite.hpp"
#include "place/density.hpp"
#include "place/hpwl.hpp"
#include "place/quadratic_placer.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

struct PlacedFixture {
  Design d;
  PlacementContext ctx;
  PlacementResult placement;

  PlacedFixture() : d(make()), ctx(d) {
    set_log_level(LogLevel::Warn);
    HiDaPOptions o;
    o.layout_anneal.moves_per_temperature = 60;
    o.layout_anneal.cooling = 0.8;
    o.shape_fp.anneal.moves_per_temperature = 40;
    placement = place_macros(d, ctx, o);
  }
  static Design make() {
    CircuitSpec spec = fig1_spec();
    spec.target_cells = 4000;
    return generate_circuit(spec);
  }
};

PlacedFixture& fixture() {
  static PlacedFixture* fx = new PlacedFixture();
  return *fx;
}

TEST(Clustering, RoughlyTargetCount) {
  auto& fx = fixture();
  const Clustering c = cluster_cells(fx.d, fx.ctx.ht, 50);
  EXPECT_GE(c.clusters.size(), 10u);
  EXPECT_LE(c.clusters.size(), 400u);
}

TEST(Clustering, EveryStdCellAssignedExactlyOnce) {
  auto& fx = fixture();
  const Clustering c = cluster_cells(fx.d, fx.ctx.ht, 50);
  std::vector<int> seen(fx.d.cell_count(), 0);
  for (std::size_t i = 0; i < c.clusters.size(); ++i) {
    for (const CellId cell : c.clusters[i].cells) {
      ++seen[static_cast<std::size_t>(cell)];
      EXPECT_EQ(c.cluster_of[static_cast<std::size_t>(cell)], static_cast<int>(i));
    }
  }
  for (std::size_t i = 0; i < fx.d.cell_count(); ++i) {
    const CellKind k = fx.d.cell(static_cast<CellId>(i)).kind;
    if (k == CellKind::Flop || k == CellKind::Comb) {
      EXPECT_EQ(seen[i], 1) << "cell " << i;
    } else {
      EXPECT_EQ(seen[i], 0);
      EXPECT_EQ(c.cluster_of[i], -1);
    }
  }
}

TEST(Clustering, AreasAddUp) {
  auto& fx = fixture();
  const Clustering c = cluster_cells(fx.d, fx.ctx.ht, 50);
  double cluster_area = 0.0;
  for (const CellCluster& cl : c.clusters) cluster_area += cl.area;
  double std_area = 0.0;
  for (const Cell& cell : fx.d.cells()) {
    if (cell.kind == CellKind::Flop || cell.kind == CellKind::Comb) {
      std_area += cell.area;
    }
  }
  EXPECT_NEAR(cluster_area, std_area, 1e-6);
}

TEST(QuadraticPlacer, ClustersLandInsideDie) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  const Rect die = placed.die();
  for (const Point& p : placed.cluster_positions()) {
    EXPECT_TRUE(die.contains(p)) << p.x << "," << p.y;
  }
}

TEST(QuadraticPlacer, PositionsFollowAnchors) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  // Clusters must not all collapse to the center: anchored quadratic
  // placement spreads them.
  const Point center = placed.die().center();
  double max_dist = 0.0;
  for (const Point& p : placed.cluster_positions()) {
    max_dist = std::max(max_dist, manhattan(p, center));
  }
  EXPECT_GT(max_dist, placed.die().w * 0.1);
}

TEST(QuadraticPlacer, MacroPinPositionsUseOffsets) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  const CellId macro = fx.d.macros()[0];
  const MacroPlacement* mp = placed.macro_of(macro);
  ASSERT_NE(mp, nullptr);
  const NetPin pin{macro, 0.0f, 2.0f};
  const Point p = placed.pin_position(pin);
  const Rect grown{mp->rect.x - 1e-6, mp->rect.y - 1e-6, mp->rect.w + 2e-6,
                   mp->rect.h + 2e-6};
  EXPECT_TRUE(grown.contains(p));
}

TEST(Hpwl, PositiveAndScaledToMeters) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  const WirelengthReport wl = total_hpwl(placed);
  EXPECT_GT(wl.total_um, 0.0);
  EXPECT_NEAR(wl.total_m, wl.total_um * 1e-6, 1e-12);
  EXPECT_GT(wl.nets, 100u);
}

TEST(Hpwl, SingleNetBoundingBox) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  // Any net's HPWL must be at most the die half-perimeter.
  const double cap = placed.die().w + placed.die().h;
  for (std::size_t i = 0; i < std::min<std::size_t>(fx.d.net_count(), 500); ++i) {
    EXPECT_LE(net_hpwl(placed, static_cast<NetId>(i)), cap + 1e-6);
  }
}

TEST(Density, MacroCoverageMatchesFootprint) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  const DensityMap map = compute_density(placed, 32);
  double covered = 0.0;
  const double bin_area = (placed.die().w / 32) * (placed.die().h / 32);
  for (const double v : map.macro) covered += v * bin_area;
  double macro_area = 0.0;
  for (const MacroPlacement& m : fx.placement.macros) macro_area += m.rect.area();
  EXPECT_NEAR(covered, macro_area, macro_area * 0.02);
}

TEST(Density, CellAreaConserved) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  const DensityMap map = compute_density(placed, 32);
  double mapped = 0.0;
  const double bin_area = (placed.die().w / 32) * (placed.die().h / 32);
  for (const double v : map.cell) mapped += v * bin_area;
  double std_area = 0.0;
  for (const Cell& c : fx.d.cells()) {
    if (c.kind == CellKind::Flop || c.kind == CellKind::Comb) std_area += c.area;
  }
  EXPECT_NEAR(mapped, std_area, std_area * 0.02);
}

TEST(Density, PeakNearMacrosBounded) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  const DensityMap map = compute_density(placed, 32);
  EXPECT_GE(map.peak_cell_density(), map.peak_density_near_macros() * 0.999);
}


// --- Shared per-design model: differential checks ---

// Macros packed row by row from the die origin, in the given order. Not a
// good floorplan, but a deterministic one that needs no annealing.
PlacementResult row_placement(const Design& d, const std::vector<CellId>& macros) {
  PlacementResult r;
  double x = 0.0, y = 0.0, row_h = 0.0;
  for (const CellId m : macros) {
    const MacroDef& def = d.macro_def_of(m);
    if (x + def.w > d.die().w) {
      x = 0.0;
      y += row_h;
      row_h = 0.0;
    }
    r.macros.push_back({m, Rect{x, y, def.w, def.h}, Orientation::R0});
    x += def.w;
    row_h = std::max(row_h, def.h);
  }
  return r;
}

PlaceOptions small_place_options() {
  PlaceOptions o;
  o.grid = 16;
  o.target_clusters = 300;
  o.solver_iterations = 20;
  return o;
}

void expect_same_positions(const PlacedDesign& a, const PlacedDesign& b) {
  ASSERT_EQ(a.cluster_positions().size(), b.cluster_positions().size());
  for (std::size_t i = 0; i < a.cluster_positions().size(); ++i) {
    EXPECT_EQ(a.cluster_positions()[i].x, b.cluster_positions()[i].x) << "cluster " << i;
    EXPECT_EQ(a.cluster_positions()[i].y, b.cluster_positions()[i].y) << "cluster " << i;
  }
}

TEST(PlacementModel, SharedModelMatchesStandaloneWrapper) {
  set_log_level(LogLevel::Warn);
  for (const char* name : {"c1", "c5", "c8"}) {
    SCOPED_TRACE(name);
    Design d = generate_circuit(suite_circuit(name, 0.002).spec);
    // Every other port loses its die-boundary pin: such fixed endpoints
    // resolve to the die center.
    bool drop = false;
    for (std::size_t c = 0; c < d.cell_count(); ++c) {
      Cell& cell = d.cell_mutable(static_cast<CellId>(c));
      if (!is_port(cell.kind)) continue;
      drop = !drop;
      if (drop) cell.fixed_pos.reset();
    }
    const HierTree ht(d);
    const PlaceOptions options = small_place_options();

    std::vector<CellId> macros = d.macros();
    const PlacementResult full = row_placement(d, macros);
    const PlacementResult partial = [&] {
      std::reverse(macros.begin(), macros.end());
      PlacementResult r = row_placement(d, macros);
      r.macros.resize(r.macros.size() / 2);  // the rest are unplaced
      return r;
    }();

    // One model serves every placement, in any order; each result equals
    // a model built for that placement alone.
    const auto model = std::make_shared<const CellPlacementModel>(d, ht, options);
    EXPECT_GT(model->link_count(), 0u);
    for (const PlacementResult* placement : {&full, &partial, &full}) {
      const PlacedDesign shared = place_cells(model, *placement);
      const PlacedDesign standalone = place_cells(d, ht, *placement, options);
      expect_same_positions(shared, standalone);
      EXPECT_EQ(total_hpwl(shared).total_um, total_hpwl(standalone).total_um);
    }
    // The two placements really differ, so the fixed pins were re-resolved.
    EXPECT_NE(total_hpwl(place_cells(model, full)).total_um,
              total_hpwl(place_cells(model, partial)).total_um);
  }
}

TEST(PlacementModel, HoistedBlockageCapacityEqualsPerBinMacroScan) {
  auto& fx = fixture();
  const PlaceOptions options = small_place_options();
  // Placement entries out of CellId order, one macro listed twice (the
  // later entry wins) and one left unplaced: the hoisted list must still
  // sum each bin in CellId order over the placed footprints.
  PlacementResult shuffled = fx.placement;
  std::reverse(shuffled.macros.begin(), shuffled.macros.end());
  MacroPlacement moved = shuffled.macros.front();
  moved.rect.x = std::max(0.0, moved.rect.x - moved.rect.w / 2);
  shuffled.macros.push_back(moved);
  shuffled.macros.erase(shuffled.macros.begin() + 1);
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, shuffled, options);

  const std::vector<double> capacity = bin_capacity(placed, options);
  const Rect die = placed.die();
  const int g = options.grid;
  const double bw = die.w / g, bh = die.h / g;
  ASSERT_EQ(capacity.size(), static_cast<std::size_t>(g) * g);
  for (int by = 0; by < g; ++by) {
    for (int bx = 0; bx < g; ++bx) {
      const Rect bin{die.x + bx * bw, die.y + by * bh, bw, bh};
      double blocked = 0.0;
      for (const CellId m : fx.d.macros()) {
        if (const MacroPlacement* mp = placed.macro_of(m)) blocked += bin.overlap_area(mp->rect);
      }
      const double expected = std::max(0.0, (bin.area() - blocked) * options.bin_capacity_ratio);
      EXPECT_EQ(capacity[static_cast<std::size_t>(by) * g + bx], expected)
          << "bin " << bx << "," << by;
    }
  }
}

}  // namespace
}  // namespace hidap
