// Cell-placement proxy tests: clustering, quadratic solve, spreading,
// HPWL, density maps, the shared per-design placement model, spreading
// against an all-rounds reference, and the batched solve and sweep
// evaluation against a one-placement oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/hidap.hpp"
#include "eval/metrics.hpp"
#include "force_pool_lanes.hpp"
#include "gen/suite.hpp"
#include "obs/metrics.hpp"
#include "place/density.hpp"
#include "place/hpwl.hpp"
#include "place/quadratic_placer.hpp"
#include "runtime/thread_pool.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

// Enough lanes that a 4-lane sweep evaluation really runs concurrently,
// even on a single-core host.
const int kForcedPoolLanes = test_support::force_pool_lanes();

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
    for (const CellId port : d.ports()) {
      drop = !drop;
      if (drop) d.set_fixed_pos(port, std::nullopt);
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

// --- Spreading: differential checks against an all-rounds reference ---

// spread_clusters as it was before its cycle exit: one std::vector stack
// per bin, and every one of the spreading_rounds rounds run unless one
// moves nothing.
void reference_spread(const Rect& die, std::span<const CellCluster> clusters,
                      const std::vector<double>& capacity, std::vector<Point>& pos,
                      const PlaceOptions& options) {
  const int g = options.grid;
  const double bw = die.w / g, bh = die.h / g;
  const auto bin_of = [&](const Point& p) {
    const int bx = std::clamp(static_cast<int>((p.x - die.x) / bw), 0, g - 1);
    const int by = std::clamp(static_cast<int>((p.y - die.y) / bh), 0, g - 1);
    return std::pair{bx, by};
  };
  std::vector<double> load(capacity.size(), 0.0);
  std::vector<std::vector<int>> content(capacity.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const auto [bx, by] = bin_of(pos[i]);
    load[static_cast<std::size_t>(by) * g + bx] += clusters[i].area;
    content[static_cast<std::size_t>(by) * g + bx].push_back(static_cast<int>(i));
  }
  for (int round = 0; round < options.spreading_rounds; ++round) {
    bool moved = false;
    for (int by = 0; by < g; ++by) {
      for (int bx = 0; bx < g; ++bx) {
        const std::size_t b = static_cast<std::size_t>(by) * g + bx;
        while (load[b] > capacity[b] && !content[b].empty()) {
          std::size_t best = b;
          double best_free = -1e30;
          for (const auto& [dx, dy] : {std::pair{1, 0}, {-1, 0}, {0, 1}, {0, -1}}) {
            const int nx = bx + dx, ny = by + dy;
            if (nx < 0 || ny < 0 || nx >= g || ny >= g) continue;
            const std::size_t nb = static_cast<std::size_t>(ny) * g + nx;
            const double free = capacity[nb] - load[nb];
            if (free > best_free) {
              best_free = free;
              best = nb;
            }
          }
          const double current_free = capacity[b] - load[b];
          if (best == b || best_free <= current_free) break;
          const int cl = content[b].back();
          content[b].pop_back();
          content[best].push_back(cl);
          load[b] -= clusters[static_cast<std::size_t>(cl)].area;
          load[best] += clusters[static_cast<std::size_t>(cl)].area;
          moved = true;
        }
      }
    }
    if (!moved) break;
  }
  std::vector<int> surplus;
  std::vector<std::size_t> origin;
  for (std::size_t b = 0; b < capacity.size(); ++b) {
    while (load[b] > capacity[b] && !content[b].empty()) {
      const int cl = content[b].back();
      content[b].pop_back();
      load[b] -= clusters[static_cast<std::size_t>(cl)].area;
      surplus.push_back(cl);
      origin.push_back(b);
    }
  }
  for (std::size_t s = 0; s < surplus.size(); ++s) {
    const int ox = static_cast<int>(origin[s]) % g;
    const int oy = static_cast<int>(origin[s]) / g;
    const double area = clusters[static_cast<std::size_t>(surplus[s])].area;
    std::size_t best = origin[s];
    double best_score = -1e30;
    for (int y = 0; y < g; ++y) {
      for (int x = 0; x < g; ++x) {
        const std::size_t b = static_cast<std::size_t>(y) * g + x;
        const double free = capacity[b] - load[b];
        if (free < area * 0.5) continue;
        const double score = -static_cast<double>(std::abs(x - ox) + std::abs(y - oy));
        if (score > best_score) {
          best_score = score;
          best = b;
        }
      }
    }
    content[best].push_back(surplus[s]);
    load[best] += area;
  }
  for (int by = 0; by < g; ++by) {
    for (int bx = 0; bx < g; ++bx) {
      auto& members = content[static_cast<std::size_t>(by) * g + bx];
      const std::size_t n = members.size();
      if (n == 0) continue;
      std::sort(members.begin(), members.end(), [&](int a, int c) {
        const Point& pa = pos[static_cast<std::size_t>(a)];
        const Point& pc = pos[static_cast<std::size_t>(c)];
        return pa.y != pc.y ? pa.y < pc.y : pa.x < pc.x;
      });
      const int side = std::max(1, static_cast<int>(std::ceil(std::sqrt(n))));
      for (std::size_t k = 0; k < n; ++k) {
        const int sx = static_cast<int>(k) % side;
        const int sy = static_cast<int>(k) / side;
        pos[static_cast<std::size_t>(members[k])] = Point{
            die.x + bx * bw + (sx + 0.5) * bw / side, die.y + by * bh + (sy + 0.5) * bh / side};
      }
    }
  }
}

// A random spreading problem on a `g` x `g` grid: about three clusters
// per bin (one on a 32 x 32 grid) of random area, a quarter of them
// stacked on the die centre and a few on a second point (sort ties),
// the rest uniform; bins of
// random capacity, one in five zero (macro-covered). `tight` makes the
// total capacity fall short of the cluster area, so the global
// rebalance runs out of room. With `dyadic` areas (multiples of 1/8,
// like sums of cell areas on a site grid) every load update is exact,
// so the rounds cycle; other areas round, and the loads may never
// repeat bit for bit.
struct SpreadProblem {
  Rect die{3.0, -2.0, 400.0, 250.0};
  std::vector<CellCluster> clusters;
  std::vector<double> capacity;
  std::vector<Point> pos;

  SpreadProblem(int g, std::uint64_t seed, bool tight, bool dyadic) {
    Rng rng(seed);
    const std::size_t bins = static_cast<std::size_t>(g) * g;
    const std::size_t n = (g < 32 ? 3 : 1) * bins + static_cast<std::size_t>(rng.next_int(0, 5));
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      CellCluster c;
      c.area = dyadic ? rng.next_int(8, 400) / 8.0 : rng.next_double(1.0, 50.0);
      total += c.area;
      clusters.push_back(c);
      const int kind = rng.next_int(0, 7);
      if (kind < 2) {
        pos.push_back(die.center());
      } else if (kind == 2) {
        pos.push_back(Point{die.x + die.w * 0.25, die.y + die.h * 0.75});
      } else {
        pos.push_back(
            Point{rng.next_double(die.x, die.xmax()), rng.next_double(die.y, die.ymax())});
      }
    }
    const double mean = total / static_cast<double>(bins) * (tight ? 0.8 : 1.3);
    for (std::size_t b = 0; b < bins; ++b) {
      capacity.push_back(rng.next_int(0, 4) == 0 ? 0.0 : rng.next_double(0.2, 1.8) * mean);
    }
  }
};

void expect_same_points(const std::vector<Point>& a, const std::vector<Point>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << "cluster " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "cluster " << i;
  }
}

// Every spreading_rounds from 0 to 260, on grids of 1, 2, 8 and 32 bins a
// side: the cycle exit lands every position on the bits the all-rounds
// reference reaches. The exit must also really engage where the rounds
// cycle early.
TEST(SpreadClusters, CycleExitMatchesAllRoundsReference) {
  obs::Counter& rounds_run = obs::default_registry().counter("eval.spread_rounds");
  for (const int g : {1, 2, 8, 32}) {
    for (const auto& [tight, dyadic] : {std::pair{false, true}, {true, true}, {false, false}}) {
      if (g == 32 && (tight || !dyadic)) continue;  // the costliest grid: one problem
      SCOPED_TRACE(::testing::Message() << "grid " << g << (tight ? " tight" : "")
                                        << (dyadic ? " dyadic" : ""));
      const SpreadProblem problem(g, static_cast<std::uint64_t>(g) * 7 + (tight ? 1 : 0), tight,
                                  dyadic);
      PlaceOptions options;
      options.grid = g;
      std::uint64_t run = 0, asked = 0;
      for (int rounds = 0; rounds <= 260; ++rounds) {
        SCOPED_TRACE(rounds);
        options.spreading_rounds = rounds;
        std::vector<Point> expected = problem.pos;
        reference_spread(problem.die, problem.clusters, problem.capacity, expected, options);
        std::vector<Point> got = problem.pos;
        const std::uint64_t before = rounds_run.value();
        spread_clusters(problem.die, problem.clusters, problem.capacity, got, options);
        run += rounds_run.value() - before;
        asked += static_cast<std::uint64_t>(rounds);
        expect_same_points(got, expected);
        if (::testing::Test::HasFailure()) return;
      }
      if (dyadic && g == 8) {
        EXPECT_LT(run * 2, asked);
      }
    }
  }
}

// Small problems whose loads round: areas of 0.1, 0.2, 0.3 and 0.7 sum to
// bits that depend on their order, on capacities those sums straddle
// (0.1 + 0.2 + 0.3 > 0.6, 0.3 + 0.2 + 0.1 == 0.6). The same clusters in
// the same stacks can then carry loads whose comparisons differ, so only
// a repeat of the exact load bits proves a cycle.
TEST(SpreadClusters, CycleExitMatchesReferenceWhenLoadsRound) {
  const Rect die{0.0, 0.0, 100.0, 100.0};
  const double areas[] = {0.1, 0.2, 0.3, 0.7};
  const double capacities[] = {0.0, 0.3, 0.6, 0.9, 1.0};
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    PlaceOptions options;
    options.grid = rng.next_int(2, 4);
    std::vector<CellCluster> clusters(static_cast<std::size_t>(rng.next_int(3, 14)));
    std::vector<Point> pos;
    for (CellCluster& c : clusters) {
      c.area = areas[rng.next_int(0, 3)];
      pos.push_back(rng.next_bool() ? die.center()
                                    : Point{rng.next_int(0, 3) * 25.0 + 1.0,
                                            rng.next_int(0, 3) * 25.0 + 1.0});
    }
    std::vector<double> capacity;
    for (int b = 0; b < options.grid * options.grid; ++b) {
      capacity.push_back(capacities[rng.next_int(0, 4)]);
    }
    for (int rounds = 0; rounds <= 40; ++rounds) {
      SCOPED_TRACE(rounds);
      options.spreading_rounds = rounds;
      std::vector<Point> expected = pos;
      reference_spread(die, clusters, capacity, expected, options);
      std::vector<Point> got = pos;
      spread_clusters(die, clusters, capacity, got, options);
      expect_same_points(got, expected);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// The real inputs of the evaluation placer: each placement's initial
// solve, spread at the default 200 rounds on the default 32 x 32 grid.
TEST(SpreadClusters, CycleExitMatchesReferenceOnSolvedPositions) {
  set_log_level(LogLevel::Warn);
  const Design d = generate_circuit(suite_circuit("c1", 0.002).spec);
  const HierTree ht(d);
  const auto model = std::make_shared<const CellPlacementModel>(d, ht);
  std::vector<CellId> macros = d.macros();
  for (int variant = 0; variant < 3; ++variant) {
    SCOPED_TRACE(variant);
    std::rotate(macros.begin(), macros.begin() + 1, macros.end());
    const PlacementResult placement = row_placement(d, macros);
    const PlacedDesign placed(model, placement);
    const std::vector<double> capacity = bin_capacity(placed, model->options());
    const std::vector<Point> solved = initial_solve(model, placement);
    std::vector<Point> expected = solved;
    reference_spread(model->die(), model->clustering().clusters, capacity, expected,
                     model->options());
    std::vector<Point> got = solved;
    spread_clusters(model->die(), model->clustering().clusters, capacity, got, model->options());
    expect_same_points(got, expected);
  }
}

// --- Batched solve: differential checks against a one-placement oracle ---

// The one-placement evaluation placer as it was before batching: its own
// star model over the model's clustering, a Gauss-Seidel solve that
// branches between movable and fixed ends, and the anchored spreading
// rounds, spreading with reference_spread. It shares nothing with the
// batched kernel but the clustering and bin_capacity.
class OraclePlacer {
 public:
  explicit OraclePlacer(std::shared_ptr<const CellPlacementModel> model)
      : model_(std::move(model)) {
    const Design& design = model_->design();
    const Clustering& clustering = model_->clustering();
    struct Emitted {
      int owner;
      int other;
      double weight;
    };
    std::vector<Emitted> emitted;
    std::vector<std::pair<int, NetPin>> ends;
    std::vector<int> fixed;
    for (std::size_t n = 0; n < design.net_count(); ++n) {
      ends.clear();
      bool clustered = false;
      const auto add_end = [&](const NetPin& p) {
        const int cl = clustering.cluster_of[static_cast<std::size_t>(p.cell)];
        if (cl >= 0) {
          for (const auto& [c, pin] : ends) {
            if (c == cl) return;
          }
          clustered = true;
        }
        ends.emplace_back(cl, p);
      };
      for (const NetPin& p : design.pins(static_cast<NetId>(n))) add_end(p);
      if (ends.size() < 2 || !clustered) continue;
      const double w = 1.0 / static_cast<double>(ends.size() - 1);
      fixed.assign(ends.size(), 0);
      for (std::size_t i = 0; i < ends.size(); ++i) {
        if (ends[i].first >= 0) continue;
        fixed[i] = ~static_cast<int>(fixed_pins_.size());
        fixed_pins_.push_back(ends[i].second);
      }
      for (std::size_t i = 0; i < ends.size(); ++i) {
        for (std::size_t j = i + 1; j < ends.size(); ++j) {
          const int ci = ends[i].first;
          const int cj = ends[j].first;
          if (ci >= 0 && cj >= 0) {
            emitted.push_back({ci, cj, w});
            emitted.push_back({cj, ci, w});
          } else if (ci >= 0) {
            emitted.push_back({ci, fixed[j], w});
          } else if (cj >= 0) {
            emitted.push_back({cj, fixed[i], w});
          }
        }
      }
    }
    const std::size_t n = clustering.clusters.size();
    begin_.assign(n + 1, 0);
    for (const Emitted& e : emitted) ++begin_[static_cast<std::size_t>(e.owner) + 1];
    for (std::size_t i = 0; i < n; ++i) begin_[i + 1] += begin_[i];
    other_.resize(emitted.size());
    weight_.resize(emitted.size());
    std::vector<std::size_t> cursor(begin_.begin(), begin_.end() - 1);
    for (const Emitted& e : emitted) {
      const std::size_t slot = cursor[static_cast<std::size_t>(e.owner)]++;
      other_[slot] = e.other;
      weight_[slot] = e.weight;
    }
    wsum_.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = begin_[i]; l < begin_[i + 1]; ++l) wsum_[i] += weight_[l];
    }
  }

  std::size_t link_count() const { return other_.size(); }

  PlacedDesign place(const PlacementResult& macros) const {
    PlacedDesign placed(model_, macros);
    const PlaceOptions& options = model_->options();
    const std::vector<double> capacity = bin_capacity(placed, options);
    std::vector<Point> fixed;
    for (const NetPin& pin : fixed_pins_) fixed.push_back(placed.pin_position(pin));
    std::vector<Point>& pos = placed.cluster_positions();
    solve(fixed, pos, options.solver_iterations);
    for (const double strength : {0.25, 0.6}) {
      std::vector<Point> legal = pos;
      reference_spread(placed.die(), placed.clustering().clusters, capacity, legal, options);
      solve(fixed, pos, options.solver_iterations / 2, &legal, strength);
    }
    reference_spread(placed.die(), placed.clustering().clusters, capacity, pos, options);
    return placed;
  }

 private:
  void solve(const std::vector<Point>& fixed, std::vector<Point>& pos, int iterations,
             const std::vector<Point>* anchors = nullptr, double anchor_strength = 0.0) const {
    const Rect& die = model_->die();
    for (int it = 0; it < iterations; ++it) {
      for (std::size_t i = 0; i < pos.size(); ++i) {
        double wx = 0.0, wy = 0.0;
        for (std::size_t l = begin_[i]; l < begin_[i + 1]; ++l) {
          const int o = other_[l];
          const Point& p = o >= 0 ? pos[static_cast<std::size_t>(o)]
                                  : fixed[static_cast<std::size_t>(~o)];
          wx += weight_[l] * p.x;
          wy += weight_[l] * p.y;
        }
        double wsum = wsum_[i];
        if (anchors && wsum > 0) {
          const double aw = anchor_strength * wsum;
          wx += aw * (*anchors)[i].x;
          wy += aw * (*anchors)[i].y;
          wsum += aw;
        }
        if (wsum <= 0) continue;
        pos[i].x = std::clamp(wx / wsum, die.x, die.xmax());
        pos[i].y = std::clamp(wy / wsum, die.y, die.ymax());
      }
    }
  }

  std::shared_ptr<const CellPlacementModel> model_;
  std::vector<std::size_t> begin_;
  std::vector<int> other_;
  std::vector<double> weight_;
  std::vector<double> wsum_;
  std::vector<NetPin> fixed_pins_;
};

// A suite circuit at tiny scale whose every other port has lost its
// die-boundary pin (such fixed endpoints resolve to the die center).
Design pinless_port_circuit(const char* name) {
  Design d = generate_circuit(suite_circuit(name, 0.002).spec);
  bool drop = false;
  for (const CellId port : d.ports()) {
    drop = !drop;
    if (drop) d.set_fixed_pos(port, std::nullopt);
  }
  return d;
}

// Six different macro placements of `d`: full, partial (half unplaced),
// shuffled entry order, a duplicate entry (the later one wins), flipped
// orientations, and every other macro unplaced.
std::vector<PlacementResult> placement_mix(const Design& d) {
  std::vector<CellId> macros = d.macros();
  std::vector<PlacementResult> mix;
  mix.push_back(row_placement(d, macros));
  std::vector<CellId> reversed(macros.rbegin(), macros.rend());
  mix.push_back(row_placement(d, reversed));
  mix.back().macros.resize(mix.back().macros.size() / 2);
  std::vector<CellId> rotated = macros;
  std::rotate(rotated.begin(), rotated.begin() + static_cast<std::ptrdiff_t>(rotated.size() / 3),
              rotated.end());
  mix.push_back(row_placement(d, rotated));
  std::reverse(mix.back().macros.begin(), mix.back().macros.end());
  mix.push_back(row_placement(d, reversed));
  MacroPlacement moved = mix.back().macros.front();
  moved.rect.x += moved.rect.w / 3;
  moved.rect.y += moved.rect.h / 2;
  mix.back().macros.push_back(moved);
  mix.push_back(row_placement(d, rotated));
  for (std::size_t i = 0; i < mix.back().macros.size(); i += 2) {
    mix.back().macros[i].orientation = Orientation::MY;
  }
  mix.push_back(row_placement(d, macros));
  for (std::size_t i = 1; i < mix.back().macros.size(); ++i) {
    mix.back().macros.erase(mix.back().macros.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return mix;
}

TEST(BatchedPlacement, EveryBatchWidthMatchesOnePlacementOracle) {
  set_log_level(LogLevel::Warn);
  for (const char* name : {"c1", "c5", "c8"}) {
    SCOPED_TRACE(name);
    const Design d = pinless_port_circuit(name);
    const HierTree ht(d);
    const auto model = std::make_shared<const CellPlacementModel>(d, ht, small_place_options());
    const OraclePlacer oracle(model);
    ASSERT_EQ(oracle.link_count(), model->link_count());
    const std::vector<PlacementResult> mix = placement_mix(d);
    std::vector<PlacedDesign> expected;
    for (const PlacementResult& p : mix) expected.push_back(oracle.place(p));

    // Widths past the kernel's widest batch split into several solves.
    for (const std::size_t width : {1u, 2u, 3u, 6u, 8u}) {
      // Batch slot k holds mix entry (k * 5 + width) % 6: a different
      // interleaving of the mix per width, repeats included.
      std::vector<std::size_t> pick;
      std::vector<const PlacementResult*> batch;
      for (std::size_t k = 0; k < width; ++k) {
        pick.push_back((k * 5 + width) % mix.size());
        batch.push_back(&mix[pick.back()]);
      }
      const std::vector<PlacedDesign> placed = place_cells(model, batch);
      ASSERT_EQ(placed.size(), width);
      for (std::size_t k = 0; k < width; ++k) {
        SCOPED_TRACE(::testing::Message() << "width " << width << " slot " << k << " mix "
                                          << pick[k]);
        expect_same_positions(placed[k], expected[pick[k]]);
        EXPECT_EQ(total_hpwl(placed[k]).total_um, total_hpwl(expected[pick[k]]).total_um);
      }
    }
  }
}

void expect_same_metrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.flow, b.flow);
  EXPECT_EQ(a.wl_m, b.wl_m);
  EXPECT_EQ(a.grc_percent, b.grc_percent);
  EXPECT_EQ(a.wns_percent, b.wns_percent);
  EXPECT_EQ(a.tns_ns, b.tns_ns);
  EXPECT_EQ(a.peak_density_near_macros, b.peak_density_near_macros);
  EXPECT_EQ(a.runtime_s, b.runtime_s);
}

TEST(BatchedPlacement, SweepEvaluationMatchesOnePlacementEvaluation) {
  set_log_level(LogLevel::Warn);
  const Design d = pinless_port_circuit("c1");
  const PlacementContext ctx(d);
  EvalOptions options;
  options.place = small_place_options();
  std::vector<PlacementResult> mix = placement_mix(d);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    mix[i].flow_name = "mix" + std::to_string(i);
    mix[i].runtime_seconds = static_cast<double>(i);
  }
  std::vector<Metrics> fresh;
  for (const PlacementResult& p : mix) {
    fresh.push_back(evaluate_placement(d, ctx.ht, ctx.seq, p, options));
  }

  // Sweeps of every rotation of the mix, evaluated concurrently through
  // one shared evaluator.
  const PlacementEvaluator evaluator(d, ctx.ht, ctx.seq, options);
  for (const int lanes : {1, 4}) {
    SCOPED_TRACE(lanes);
    std::vector<SweepMetrics> sweeps(mix.size());
    parallel_for(
        mix.size(),
        [&](std::size_t r) {
          std::vector<const PlacementResult*> batch;
          for (std::size_t k = 0; k < mix.size(); ++k) batch.push_back(&mix[(r + k) % mix.size()]);
          sweeps[r] = evaluator.evaluate_sweep(batch);
        },
        lanes);
    for (std::size_t r = 0; r < mix.size(); ++r) {
      SCOPED_TRACE(r);
      const SweepMetrics& sweep = sweeps[r];
      ASSERT_EQ(sweep.wl_m.size(), mix.size());
      std::size_t winner = mix.size();
      double best = std::numeric_limits<double>::max();
      for (std::size_t k = 0; k < mix.size(); ++k) {
        const Metrics& expected = fresh[(r + k) % mix.size()];
        EXPECT_EQ(sweep.wl_m[k], expected.wl_m) << "slot " << k;
        if (expected.wl_m < best) {
          best = expected.wl_m;
          winner = k;
        }
      }
      ASSERT_EQ(sweep.winner, winner);
      expect_same_metrics(sweep.best, fresh[(r + winner) % mix.size()]);
    }
  }
  EXPECT_EQ(evaluator.evaluate_sweep({}).winner, 0u);
}

}  // namespace
}  // namespace hidap
