// Netlist data-model tests: design building, validation, macro library,
// CSR adjacency.

#include <gtest/gtest.h>

#include "netlist/netlist.hpp"

namespace hidap {
namespace {

Design tiny_design() {
  Design d("top");
  const HierId u0 = d.add_hier(d.root(), "u0");
  const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 10, 8, 16));
  const CellId mac = d.add_cell(u0, "mem", CellKind::Macro, 0.0, m);
  const CellId f0 = d.add_cell(u0, "q[0]", CellKind::Flop, 1.0);
  const CellId c0 = d.add_cell(u0, "g0", CellKind::Comb, 0.8);
  const CellId pi = d.add_cell(d.root(), "in[0]", CellKind::PortIn, 0.0);
  const NetId n0 = d.add_net("n0");
  d.set_driver(n0, pi);
  d.add_sink(n0, c0);
  const NetId n1 = d.add_net("n1");
  d.set_driver(n1, c0);
  d.add_sink(n1, f0);
  const NetId n2 = d.add_net("n2");
  d.set_driver(n2, f0);
  d.add_sink(n2, mac, 0.0f, 2.0f);
  return d;
}

TEST(Design, BasicCounts) {
  const Design d = tiny_design();
  EXPECT_EQ(d.cell_count(), 4u);
  EXPECT_EQ(d.net_count(), 3u);
  EXPECT_EQ(d.hier_count(), 2u);
  EXPECT_EQ(d.macro_count(), 1u);
  EXPECT_EQ(d.macros().size(), 1u);
  EXPECT_EQ(d.ports().size(), 1u);
  EXPECT_TRUE(d.validate().empty()) << d.validate();
}

TEST(Design, MacroAreaComesFromLibrary) {
  const Design d = tiny_design();
  const CellId mac = d.macros()[0];
  EXPECT_DOUBLE_EQ(d.cell(mac).area, 80.0);
  EXPECT_DOUBLE_EQ(d.macro_def_of(mac).w, 10.0);
}

TEST(Design, Paths) {
  const Design d = tiny_design();
  EXPECT_EQ(d.hier_path(d.root()), "top");
  EXPECT_EQ(d.hier_path(1), "top/u0");
  EXPECT_EQ(d.cell_path(0), "top/u0/mem");
}

TEST(Design, TotalAreaSumsMacrosAndCells) {
  const Design d = tiny_design();
  EXPECT_DOUBLE_EQ(d.total_cell_area(), 80.0 + 1.0 + 0.8);
}

TEST(Design, MacroWithoutDefThrows) {
  Design d("x");
  EXPECT_THROW(d.add_cell(d.root(), "m", CellKind::Macro, 0.0), std::invalid_argument);
}

TEST(Design, BadHierThrows) {
  Design d("x");
  EXPECT_THROW(d.add_hier(42, "child"), std::out_of_range);
  EXPECT_THROW(d.add_cell(42, "c", CellKind::Comb, 1.0), std::out_of_range);
}

TEST(MacroLibrary, DuplicateNameRejected) {
  MacroLibrary lib;
  lib.add(MacroLibrary::make_sram("A", 4, 4, 8));
  EXPECT_THROW(lib.add(MacroLibrary::make_sram("A", 5, 5, 8)), std::invalid_argument);
  EXPECT_TRUE(lib.contains("A"));
  EXPECT_EQ(lib.id_of("B"), kNoMacroDef);
}

TEST(MacroLibrary, SramPinGeometry) {
  const MacroDef def = MacroLibrary::make_sram("S", 12, 8, 32);
  EXPECT_GE(def.pins.size(), 9u);  // 4 D + 4 Q + ADDR (+ CEN)
  const int q0 = def.pin_index("Q0");
  ASSERT_GE(q0, 0);
  EXPECT_TRUE(def.pins[q0].is_output);
  EXPECT_DOUBLE_EQ(def.pins[q0].offset.x, 12.0);  // right edge
  const int d0 = def.pin_index("D0");
  ASSERT_GE(d0, 0);
  EXPECT_DOUBLE_EQ(def.pins[d0].offset.x, 0.0);  // left edge
  EXPECT_EQ(def.pin_index("NOPE"), -1);
}

TEST(CellAdjacency, ForwardAndReverseEdges) {
  const Design d = tiny_design();
  const CellAdjacency adj(d);
  // Port (cell 3) drives comb (cell 2).
  auto [b, e] = adj.out(3);
  ASSERT_EQ(e - b, 1);
  EXPECT_EQ(*b, 2);
  auto [ib, ie] = adj.in(2);
  ASSERT_EQ(ie - ib, 1);
  EXPECT_EQ(*ib, 3);
  // Macro (cell 0) has no outgoing edge here, one incoming from flop.
  auto [mb, me] = adj.out(0);
  EXPECT_EQ(me - mb, 0);
  auto [mib, mie] = adj.in(0);
  ASSERT_EQ(mie - mib, 1);
  EXPECT_EQ(*mib, 1);
}

TEST(CellAdjacency, NeighborIterationCoversBothDirections) {
  const Design d = tiny_design();
  const CellAdjacency adj(d);
  int count = 0;
  adj.for_each_neighbor(1, [&](CellId) { ++count; });  // flop: in comb, out macro
  EXPECT_EQ(count, 2);
}

TEST(Net, DegreeCountsDriverAndSinks) {
  const Design d = tiny_design();
  EXPECT_EQ(d.net(0).degree(), 2);
  Net floating{NetPin{}, {}};
  EXPECT_EQ(floating.degree(), 0);
}

}  // namespace
}  // namespace hidap
