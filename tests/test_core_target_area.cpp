// Target-area assignment tests (paper sect. IV-C, Fig. 6): multi-source
// BFS claims glue for the nearest block; instance area is conserved.

#include <gtest/gtest.h>

#include "core/target_area.hpp"

namespace hidap {
namespace {

// Two macro blocks A and B, with a glue chain closer to A and another
// closer to B:  A - gA1 - gA2 - gB1 - B   (edge counts decide ownership).
struct Fixture {
  Design d{"top"};
  HierId ha, hb, hglue;
  CellId macro_a, macro_b, ga1, ga2, gb1;

  Fixture() {
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
  const TargetAreaResult res = assign_target_areas(fx.d, adj, ht, ht.root(), hcb);
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
  const TargetAreaResult res = assign_target_areas(fx.d, adj, ht, ht.root(), hcb);
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
  const TargetAreaResult res = assign_target_areas(fx.d, adj, ht, ht.root(), hcb);
  EXPECT_DOUBLE_EQ(res.minimum_area[0], 100.0);
  EXPECT_DOUBLE_EQ(res.minimum_area[1], 100.0);
}

TEST(TargetArea, DisconnectedGlueSpreadProportionally) {
  Fixture fx;
  // An orphan cell connected to nothing.
  fx.d.add_cell(fx.hglue, "orphan", CellKind::Comb, 11.0);
  const HierTree ht(fx.d);
  const CellAdjacency adj(fx.d);
  const std::vector<HtNodeId> hcb = {ht.node_of_hier(fx.ha), ht.node_of_hier(fx.hb)};
  const TargetAreaResult res = assign_target_areas(fx.d, adj, ht, ht.root(), hcb);
  // The reachable glue (3 + 5 + 7) is claimed as before; the 11 um^2
  // orphan is spread over the blocks by their equal am, half each.
  EXPECT_DOUBLE_EQ(res.target_area[0] - res.minimum_area[0], 3.0 + 5.0 + 5.5);
  EXPECT_DOUBLE_EQ(res.target_area[1] - res.minimum_area[1], 7.0 + 5.5);
  // Still conserved overall.
  EXPECT_NEAR(res.target_area[0] + res.target_area[1], ht.area(ht.root()), 1e-9);
}

TEST(TargetArea, BlockCellsNotCountedAsGlue) {
  Fixture fx;
  const CellId inner = fx.d.add_cell(fx.ha, "inner", CellKind::Comb, 2.0);
  fx.connect(fx.macro_a, inner);
  const HierTree ht(fx.d);
  const CellAdjacency adj(fx.d);
  const std::vector<HtNodeId> hcb = {ht.node_of_hier(fx.ha), ht.node_of_hier(fx.hb)};
  const TargetAreaResult res = assign_target_areas(fx.d, adj, ht, ht.root(), hcb);
  // inner's area is inside am of block 0, not double counted: block 0
  // claims only the glue ga1 + ga2.
  EXPECT_DOUBLE_EQ(res.minimum_area[0], 102.0);
  EXPECT_DOUBLE_EQ(res.target_area[0] - res.minimum_area[0], 3.0 + 5.0);
  EXPECT_NEAR(res.target_area[0] + res.target_area[1], ht.area(ht.root()), 1e-9);
}

TEST(TargetArea, ScopeExcludesOutsideCells) {
  Fixture fx;
  const HierId outside = fx.d.add_hier(fx.d.root(), "outside");
  const CellId far_cell = fx.d.add_cell(outside, "far", CellKind::Comb, 9.0);
  fx.connect(fx.macro_a, far_cell);
  const HierTree ht(fx.d);
  const CellAdjacency adj(fx.d);
  const std::vector<HtNodeId> hcb = {ht.node_of_hier(fx.ha)};
  // Scope = subtree of A's parent-level node "A" itself: only block A.
  const TargetAreaResult res =
      assign_target_areas(fx.d, adj, ht, ht.node_of_hier(fx.ha), hcb);
  // far_cell is a neighbor of macro A but outside scope: never claimed.
  ASSERT_EQ(res.target_area.size(), 1u);
  EXPECT_DOUBLE_EQ(res.target_area[0], res.minimum_area[0]);
}

}  // namespace
}  // namespace hidap
