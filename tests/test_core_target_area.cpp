// Target-area assignment tests (paper sect. IV-C, Fig. 6): multi-source
// BFS claims glue for the nearest block; instance area is conserved.

#include <gtest/gtest.h>

#include <bit>
#include <deque>

#include "core/hidap.hpp"
#include "core/recursive_floorplan.hpp"
#include "core/target_area.hpp"
#include "gen/suite.hpp"

namespace hidap {
namespace {

// Cells under `node` by a dense scan: every cell whose HT node lies in
// the subtree, independent of the tree's cell walk.
std::vector<CellId> dense_cells_under(const HierTree& ht, std::size_t cells, HtNodeId node) {
  std::vector<char> in_subtree(ht.size(), 0);
  for (const HtNodeId n : ht.preorder(node)) in_subtree[static_cast<std::size_t>(n)] = 1;
  std::vector<CellId> out;
  for (std::size_t i = 0; i < cells; ++i) {
    const CellId c = static_cast<CellId>(i);
    if (in_subtree[static_cast<std::size_t>(ht.node_of_cell(c))]) out.push_back(c);
  }
  return out;
}

// Reference: the dense BFS, with a fresh cell_count() zone array and two
// full cell scans per call.
TargetAreaResult reference_target_areas(const Design& design, const CellAdjacency& adjacency,
                                        const HierTree& ht, HtNodeId nh,
                                        const std::vector<HtNodeId>& hcb) {
  TargetAreaResult result;
  result.minimum_area.resize(hcb.size());
  result.target_area.resize(hcb.size());
  std::vector<int> zone(design.cell_count(), -1);
  for (const CellId c : dense_cells_under(ht, design.cell_count(), nh)) {
    zone[static_cast<std::size_t>(c)] = -2;
  }
  for (std::size_t b = 0; b < hcb.size(); ++b) {
    result.minimum_area[b] = ht.area(hcb[b]);
    result.target_area[b] = result.minimum_area[b];
    for (const CellId c : dense_cells_under(ht, design.cell_count(), hcb[b])) {
      zone[static_cast<std::size_t>(c)] = static_cast<int>(b);
    }
  }
  std::deque<std::pair<CellId, int>> queue;
  for (std::size_t i = 0; i < design.cell_count(); ++i) {
    if (zone[i] >= 0) queue.emplace_back(static_cast<CellId>(i), zone[i]);
  }
  while (!queue.empty()) {
    const auto [cell, owner] = queue.front();
    queue.pop_front();
    adjacency.for_each_neighbor(cell, [&](CellId next) {
      int& next_zone = zone[static_cast<std::size_t>(next)];
      if (next_zone != -2) return;
      next_zone = owner;
      result.target_area[static_cast<std::size_t>(owner)] += design.cell(next).area;
      queue.emplace_back(next, owner);
    });
  }
  double orphan = 0.0;
  for (std::size_t i = 0; i < design.cell_count(); ++i) {
    if (zone[i] == -2) orphan += design.cell(static_cast<CellId>(i)).area;
  }
  if (orphan > 0 && !hcb.empty()) {
    double am_sum = 0.0;
    for (const double a : result.minimum_area) am_sum += a;
    for (std::size_t b = 0; b < hcb.size(); ++b) {
      const double share = am_sum > 0 ? result.minimum_area[b] / am_sum
                                      : 1.0 / static_cast<double>(hcb.size());
      result.target_area[b] += orphan * share;
    }
  }
  return result;
}

void expect_bitwise_equal(const std::vector<double>& got, const std::vector<double>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t b = 0; b < got.size(); ++b) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[b]), std::bit_cast<std::uint64_t>(want[b]))
        << what << " block " << b;
  }
}

// Two macro blocks A and B, with a glue chain closer to A and another
// closer to B:  A - gA1 - gA2 - gB1 - B   (edge counts decide ownership).
struct Fixture {
  Design d{"top"};
  HierId ha, hb, hglue;
  CellId macro_a, macro_b, ga1, ga2, gb1;

  /// `freeze` = false leaves the design open for a test to add to.
  explicit Fixture(bool freeze = true) {
    ha = d.add_hier(d.root(), "A");
    hb = d.add_hier(d.root(), "B");
    hglue = d.add_hier(d.root(), "glue");
    const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 10, 10, 8));
    macro_a = d.add_cell(ha, "memA", CellKind::Macro, 0.0, m);
    macro_b = d.add_cell(hb, "memB", CellKind::Macro, 0.0, m);
    ga1 = d.add_cell(hglue, "ga1", CellKind::Comb, 3.0);
    ga2 = d.add_cell(hglue, "ga2", CellKind::Comb, 5.0);
    gb1 = d.add_cell(hglue, "gb1", CellKind::Comb, 7.0);
    // A -> ga1 -> ga2 ; B -> gb1 -> ga2 (ga2 equidistant, tie by order).
    connect(macro_a, ga1);
    connect(ga1, ga2);
    connect(macro_b, gb1);
    connect(gb1, ga2);
    if (freeze) d.freeze();
  }

  void connect(CellId from, CellId to) {
    const NetId n = d.add_net("n");
    d.set_driver(n, from);
    d.add_sink(n, to);
  }
};

TEST(TargetArea, GlueClaimedByNearestBlock) {
  Fixture fx;
  const HierTree ht(fx.d);
  const CellAdjacency adj(fx.d);
  const std::vector<HtNodeId> hcb = {ht.node_of_hier(fx.ha), ht.node_of_hier(fx.hb)};
  TargetAreaScratch scratch(fx.d.cell_count());
  const TargetAreaResult res = assign_target_areas(fx.d, adj, ht, ht.root(), hcb, scratch);
  // The glue areas 3/5/7 are distinct, so each block's claimed area
  // names its cells: ga1 (dist 1 from A, dist 3 from B) and the tied
  // ga2 -> block 0; gb1 -> block 1.
  EXPECT_DOUBLE_EQ(res.target_area[0] - res.minimum_area[0], 3.0 + 5.0);
  EXPECT_DOUBLE_EQ(res.target_area[1] - res.minimum_area[1], 7.0);
}

TEST(TargetArea, InstanceAreaConserved) {
  Fixture fx;
  const HierTree ht(fx.d);
  const CellAdjacency adj(fx.d);
  const std::vector<HtNodeId> hcb = {ht.node_of_hier(fx.ha), ht.node_of_hier(fx.hb)};
  TargetAreaScratch scratch(fx.d.cell_count());
  const TargetAreaResult res = assign_target_areas(fx.d, adj, ht, ht.root(), hcb, scratch);
  const double total = res.target_area[0] + res.target_area[1];
  EXPECT_NEAR(total, ht.area(ht.root()), 1e-9);
  EXPECT_GE(res.target_area[0], res.minimum_area[0]);
  EXPECT_GE(res.target_area[1], res.minimum_area[1]);
}

TEST(TargetArea, MinimumAreaIsSubtreeArea) {
  Fixture fx;
  const HierTree ht(fx.d);
  const CellAdjacency adj(fx.d);
  const std::vector<HtNodeId> hcb = {ht.node_of_hier(fx.ha), ht.node_of_hier(fx.hb)};
  TargetAreaScratch scratch(fx.d.cell_count());
  const TargetAreaResult res = assign_target_areas(fx.d, adj, ht, ht.root(), hcb, scratch);
  EXPECT_DOUBLE_EQ(res.minimum_area[0], 100.0);
  EXPECT_DOUBLE_EQ(res.minimum_area[1], 100.0);
}

TEST(TargetArea, DisconnectedGlueSpreadProportionally) {
  Fixture fx(/*freeze=*/false);
  // An orphan cell connected to nothing.
  fx.d.add_cell(fx.hglue, "orphan", CellKind::Comb, 11.0);
  fx.d.freeze();
  const HierTree ht(fx.d);
  const CellAdjacency adj(fx.d);
  const std::vector<HtNodeId> hcb = {ht.node_of_hier(fx.ha), ht.node_of_hier(fx.hb)};
  TargetAreaScratch scratch(fx.d.cell_count());
  const TargetAreaResult res = assign_target_areas(fx.d, adj, ht, ht.root(), hcb, scratch);
  // The reachable glue (3 + 5 + 7) is claimed as before; the 11 um^2
  // orphan is spread over the blocks by their equal am, half each.
  EXPECT_DOUBLE_EQ(res.target_area[0] - res.minimum_area[0], 3.0 + 5.0 + 5.5);
  EXPECT_DOUBLE_EQ(res.target_area[1] - res.minimum_area[1], 7.0 + 5.5);
  // Still conserved overall.
  EXPECT_NEAR(res.target_area[0] + res.target_area[1], ht.area(ht.root()), 1e-9);
}

TEST(TargetArea, BlockCellsNotCountedAsGlue) {
  Fixture fx(/*freeze=*/false);
  const CellId inner = fx.d.add_cell(fx.ha, "inner", CellKind::Comb, 2.0);
  fx.connect(fx.macro_a, inner);
  fx.d.freeze();
  const HierTree ht(fx.d);
  const CellAdjacency adj(fx.d);
  const std::vector<HtNodeId> hcb = {ht.node_of_hier(fx.ha), ht.node_of_hier(fx.hb)};
  TargetAreaScratch scratch(fx.d.cell_count());
  const TargetAreaResult res = assign_target_areas(fx.d, adj, ht, ht.root(), hcb, scratch);
  // inner's area is inside am of block 0, not double counted: block 0
  // claims only the glue ga1 + ga2.
  EXPECT_DOUBLE_EQ(res.minimum_area[0], 102.0);
  EXPECT_DOUBLE_EQ(res.target_area[0] - res.minimum_area[0], 3.0 + 5.0);
  EXPECT_NEAR(res.target_area[0] + res.target_area[1], ht.area(ht.root()), 1e-9);
}

TEST(TargetArea, ScopeExcludesOutsideCells) {
  Fixture fx(/*freeze=*/false);
  const HierId outside = fx.d.add_hier(fx.d.root(), "outside");
  const CellId far_cell = fx.d.add_cell(outside, "far", CellKind::Comb, 9.0);
  fx.connect(fx.macro_a, far_cell);
  fx.d.freeze();
  const HierTree ht(fx.d);
  const CellAdjacency adj(fx.d);
  const std::vector<HtNodeId> hcb = {ht.node_of_hier(fx.ha)};
  // Scope = subtree of A's parent-level node "A" itself: only block A.
  TargetAreaScratch scratch(fx.d.cell_count());
  const TargetAreaResult res =
      assign_target_areas(fx.d, adj, ht, ht.node_of_hier(fx.ha), hcb, scratch);
  // far_cell is a neighbor of macro A but outside scope: never claimed.
  ASSERT_EQ(res.target_area.size(), 1u);
  EXPECT_DOUBLE_EQ(res.target_area[0], res.minimum_area[0]);
}

// Every planned level of two suite designs, computed through one reused
// scratch in plan order, against the dense reference.
TEST(TargetArea, ScopedBfsMatchesDenseReference) {
  for (const char* circuit : {"c1", "c3"}) {
    const Design design = generate_circuit(suite_circuit(circuit, 0.002).spec);
    const PlacementContext context(design);
    HiDaPOptions options;
    options.num_threads = 1;
    RecursiveFloorplanner floorplanner(design, context.adjacency, context.ht, context.seq,
                                       options);
    const RecursionPlan& plan = floorplanner.plan();
    TargetAreaScratch scratch(design.cell_count());
    int levels = 0;
    for (std::size_t nh = 0; nh < plan.size(); ++nh) {
      if (!plan[nh].planned || plan[nh].fallback) continue;
      ++levels;
      const auto id = static_cast<HtNodeId>(nh);
      const TargetAreaResult want =
          reference_target_areas(design, context.adjacency, context.ht, id, plan[nh].hcb);
      const TargetAreaResult got = assign_target_areas(design, context.adjacency, context.ht,
                                                       id, plan[nh].hcb, scratch);
      const std::string what = std::string(circuit) + " level " + std::to_string(nh);
      expect_bitwise_equal(got.minimum_area, want.minimum_area, what);
      expect_bitwise_equal(got.target_area, want.target_area, what);
    }
    EXPECT_GT(levels, 1) << circuit;
  }
}

// The plan's areas, computed by parallel tasks, equal a fresh call per
// level.
TEST(TargetArea, PlanCarriesFreshAreas) {
  const Design design = generate_circuit(suite_circuit("c2", 0.002).spec);
  const PlacementContext context(design);
  HiDaPOptions options;
  options.num_threads = 4;
  RecursiveFloorplanner floorplanner(design, context.adjacency, context.ht, context.seq,
                                     options);
  const RecursionPlan& plan = floorplanner.plan();
  int levels = 0;
  for (std::size_t nh = 0; nh < plan.size(); ++nh) {
    if (!plan[nh].planned || plan[nh].fallback) {
      EXPECT_TRUE(plan[nh].target_area.empty());
      continue;
    }
    ++levels;
    TargetAreaScratch scratch(design.cell_count());
    const TargetAreaResult fresh = assign_target_areas(design, context.adjacency, context.ht,
                                                       static_cast<HtNodeId>(nh),
                                                       plan[nh].hcb, scratch);
    const std::string what = "level " + std::to_string(nh);
    expect_bitwise_equal(plan[nh].minimum_area, fresh.minimum_area, what);
    expect_bitwise_equal(plan[nh].target_area, fresh.target_area, what);
  }
  EXPECT_GT(levels, 1);
}

}  // namespace
}  // namespace hidap
