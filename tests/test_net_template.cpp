// Net-template differential tests: total_hpwl and estimate_congestion
// walk the per-design net template of CellPlacementModel (each net's
// distinct sources, one-source nets left out); total_hpwl_per_net and
// estimate_congestion_per_net walk every pin of every net. Every report
// field must be bit-equal, on c1-c8 and on a hand-built design whose nets
// repeat sources, under placements with unplaced, duplicated and flipped
// macros, evaluated concurrently through one shared model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "force_pool_lanes.hpp"
#include "gen/suite.hpp"
#include "hier/hier_tree.hpp"
#include "place/hpwl.hpp"
#include "place/quadratic_placer.hpp"
#include "route/congestion.hpp"
#include "runtime/thread_pool.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

// Enough lanes that the concurrent evaluations really overlap, even on a
// single-core host.
const int kForcedPoolLanes = test_support::force_pool_lanes();

// Macros packed row by row from the die origin, in the given order.
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

// Placements of `d`: every macro placed; half of them unplaced; one
// listed twice (the later entry wins); every other one flipped or
// rotated; none placed.
std::vector<PlacementResult> placement_mix(const Design& d) {
  const std::vector<CellId>& macros = d.macros();
  std::vector<PlacementResult> mix;
  mix.push_back(row_placement(d, macros));
  std::vector<CellId> reversed(macros.rbegin(), macros.rend());
  mix.push_back(row_placement(d, reversed));
  mix.back().macros.resize(mix.back().macros.size() / 2);
  mix.push_back(row_placement(d, reversed));
  if (!mix.back().macros.empty()) {
    MacroPlacement moved = mix.back().macros.front();
    moved.rect.x += moved.rect.w / 3;
    moved.rect.y += moved.rect.h / 2;
    mix.back().macros.push_back(moved);
  }
  mix.push_back(row_placement(d, macros));
  const Orientation turns[] = {Orientation::MY, Orientation::R90, Orientation::MX,
                               Orientation::R180};
  for (std::size_t i = 0; i < mix.back().macros.size(); i += 2) {
    mix.back().macros[i].orientation = turns[(i / 2) % std::size(turns)];
  }
  mix.emplace_back();
  return mix;
}

struct Reports {
  WirelengthReport wl;
  CongestionReport congestion;
};

void expect_same(const Reports& got, const Reports& oracle) {
  EXPECT_EQ(got.wl.total_um, oracle.wl.total_um);
  EXPECT_EQ(got.wl.total_m, oracle.wl.total_m);
  EXPECT_EQ(got.wl.nets, oracle.wl.nets);
  EXPECT_EQ(got.congestion.grc_percent, oracle.congestion.grc_percent);
  EXPECT_EQ(got.congestion.worst_overflow, oracle.congestion.worst_overflow);
  EXPECT_EQ(got.congestion.total_demand, oracle.congestion.total_demand);
}

// Places every mix entry through one shared model, measuring the
// template and the per-net reports of each on `lanes` lanes at once.
void expect_template_matches_per_net(const std::shared_ptr<const CellPlacementModel>& model,
                                     const std::vector<PlacementResult>& mix, int lanes) {
  CongestionOptions congestion;
  congestion.grid = 24;
  std::vector<Reports> got(mix.size()), oracle(mix.size());
  parallel_for(
      mix.size(),
      [&](std::size_t i) {
        const PlacedDesign placed = place_cells(model, mix[i]);
        got[i] = {total_hpwl(placed), estimate_congestion(placed, congestion)};
        oracle[i] = {total_hpwl_per_net(placed), estimate_congestion_per_net(placed, congestion)};
      },
      lanes);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "placement " << i);
    expect_same(got[i], oracle[i]);
  }
  // The placements really differ, so each one resolved its own sources.
  EXPECT_NE(oracle[0].wl.total_um, oracle[1].wl.total_um);
}

TEST(NetTemplate, MatchesPerNetWalkOnEverySuiteCircuit) {
  set_log_level(LogLevel::Warn);
  for (const char* name : {"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"}) {
    SCOPED_TRACE(name);
    Design d = generate_circuit(suite_circuit(name, 0.002).spec);
    // Every third port loses its die-boundary pin (it resolves to the die
    // centre), and every 97th cell gets a pin of its own: a clustered
    // cell with a fixed position is its own source, not its cluster.
    for (std::size_t i = 0; i < d.ports().size(); i += 3) {
      d.set_fixed_pos(d.ports()[i], std::nullopt);
    }
    for (std::size_t c = 0; c < d.cell_count(); c += 97) {
      const CellId cell = static_cast<CellId>(c);
      if (d.cell(cell).kind == CellKind::Flop || d.cell(cell).kind == CellKind::Comb) {
        d.set_fixed_pos(cell, Point{d.die().w * 0.3, d.die().h * 0.6});
      }
    }
    const HierTree ht(d);
    PlaceOptions coarse;  // few clusters: most nets collapse into one
    coarse.grid = 8;
    coarse.target_clusters = 40;
    coarse.solver_iterations = 10;
    const auto model = std::make_shared<const CellPlacementModel>(d, ht, coarse);
    EXPECT_LT(model->template_nets(), model->multi_pin_nets());
    expect_template_matches_per_net(model, placement_mix(d), kForcedPoolLanes > 1 ? 4 : 1);
  }
}

TEST(NetTemplate, MatchesPerNetWalkAtDefaultClustering) {
  set_log_level(LogLevel::Warn);
  const Design d = generate_circuit(suite_circuit("c3", 0.002).spec);
  const HierTree ht(d);
  PlaceOptions options;
  options.solver_iterations = 20;
  const auto model = std::make_shared<const CellPlacementModel>(d, ht, options);
  expect_template_matches_per_net(model, placement_mix(d), 1);
}

// A design whose nets repeat sources: a macro pin listed twice, two pins
// of one macro, one port twice, cells of one cluster, a pinned cell
// among them, and a one-pin net.
Design repeated_sources_design() {
  Design d("top");
  MacroDef def;
  def.name = "M";
  def.w = 20;
  def.h = 10;
  def.pins.push_back({"A", {20.0, 3.0}, 1, true});
  def.pins.push_back({"B", {0.0, 7.0}, 1, false});
  const MacroDefId id = d.library().add(def);
  const HierId sub = d.add_hier(d.root(), "u");
  const CellId mem = d.add_cell(d.root(), "mem", CellKind::Macro, 0.0, id);
  const CellId port = d.add_cell(d.root(), "p", CellKind::PortIn, 0.0);
  d.set_fixed_pos(port, Point{0.0, 40.0});
  std::vector<CellId> flops;
  for (int i = 0; i < 6; ++i) {
    flops.push_back(d.add_cell(sub, "f" + std::to_string(i), CellKind::Flop, 4.0 + i));
  }
  d.set_fixed_pos(flops[5], Point{70.0, 10.0});
  const auto net = [&](const char* name, std::initializer_list<NetPin> pins) {
    const NetId n = d.add_net(name);
    for (const NetPin& p : pins) d.add_sink(n, p.cell, p.dx, p.dy);
  };
  net("pin_twice_and_port", {{mem, 20, 3}, {mem, 20, 3}, {port}});  // kept: 2 sources
  net("two_macro_pins", {{mem, 20, 3}, {mem, 0, 7}});               // kept: 2 sources
  net("pin_twice", {{mem, 20, 3}, {mem, 20, 3}});                    // left out
  net("port_twice", {{port}, {port, 1, 1}});                         // left out
  net("one_cluster", {{flops[0]}, {flops[1]}, {flops[2]}});          // left out
  net("pinned_in_cluster", {{flops[3]}, {flops[5]}});                // kept: 2 sources
  net("cluster_and_port", {{flops[4]}, {port}, {flops[0]}});         // kept: 2 sources
  net("one_pin", {{flops[1]}});                                      // not a net to HPWL
  d.set_die(Die{100, 80});
  d.freeze();
  return d;
}

TEST(NetTemplate, RepeatedSourcesCollapse) {
  const Design d = repeated_sources_design();
  const HierTree ht(d);
  PlaceOptions options;
  options.grid = 4;
  options.target_clusters = 1;
  const auto model = std::make_shared<const CellPlacementModel>(d, ht, options);
  ASSERT_EQ(model->clustering().clusters.size(), 1u);
  EXPECT_EQ(model->multi_pin_nets(), 7u);
  EXPECT_EQ(model->template_nets(), 4u);
  // mem.A + port, mem.A + mem.B, cluster + flop 5, cluster + port.
  EXPECT_EQ(model->template_sources(), 8u);

  std::vector<PlacementResult> mix(3);
  mix[0].macros.push_back({d.macros()[0], Rect{30, 20, 20, 10}, Orientation::R0});
  mix[1].macros.push_back({d.macros()[0], Rect{10, 50, 10, 20}, Orientation::R90});
  mix[1].macros.push_back({d.macros()[0], Rect{60, 5, 10, 20}, Orientation::MX90});
  for (const PlacementResult& p : mix) {
    const PlacedDesign placed = place_cells(model, p);
    expect_same({total_hpwl(placed), estimate_congestion(placed)},
                {total_hpwl_per_net(placed), estimate_congestion_per_net(placed)});
  }
}

}  // namespace
}  // namespace hidap
