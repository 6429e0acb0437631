// Hierarchy-tree (HT) tests: construction, aggregates, macro leaves.

#include <gtest/gtest.h>

#include "hier/hier_tree.hpp"

namespace hidap {
namespace {

Design layered_design() {
  Design d("top");
  const HierId a = d.add_hier(d.root(), "a");
  const HierId b = d.add_hier(d.root(), "b");
  const HierId aa = d.add_hier(a, "aa");
  const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 10, 10, 8));
  d.add_cell(aa, "mem0", CellKind::Macro, 0.0, m);   // 100 um^2
  d.add_cell(aa, "mem1", CellKind::Macro, 0.0, m);   // 100 um^2
  d.add_cell(a, "glue", CellKind::Comb, 5.0);
  d.add_cell(b, "f[0]", CellKind::Flop, 2.0);
  d.add_cell(b, "f[1]", CellKind::Flop, 2.0);
  d.add_cell(d.root(), "in[0]", CellKind::PortIn, 0.0);
  d.freeze();
  return d;
}

TEST(HierTree, NodeCountIncludesMacroLeaves) {
  const Design d = layered_design();
  const HierTree ht(d);
  // 4 hierarchy nodes + 2 macro leaves.
  EXPECT_EQ(ht.size(), 6u);
}

TEST(HierTree, SubtreeAggregates) {
  const Design d = layered_design();
  const HierTree ht(d);
  EXPECT_EQ(ht.macro_count(ht.root()), 2);
  EXPECT_DOUBLE_EQ(ht.area(ht.root()), 209.0);
  const HtNodeId a = ht.node_of_hier(1);
  EXPECT_EQ(ht.macro_count(a), 2);
  EXPECT_DOUBLE_EQ(ht.area(a), 205.0);
  const HtNodeId b = ht.node_of_hier(2);
  EXPECT_EQ(ht.macro_count(b), 0);
  EXPECT_DOUBLE_EQ(ht.area(b), 4.0);
}

TEST(HierTree, MacroLeavesAreSingletons) {
  const Design d = layered_design();
  const HierTree ht(d);
  const auto macros = d.macros();
  for (const CellId m : macros) {
    const HtNodeId leaf = ht.node_of_cell(m);
    EXPECT_TRUE(ht.node(leaf).is_macro_leaf());
    EXPECT_EQ(ht.macro_count(leaf), 1);
    EXPECT_DOUBLE_EQ(ht.area(leaf), 100.0);
    EXPECT_TRUE(ht.node(leaf).children.empty());
  }
}

TEST(HierTree, MacrosUnder) {
  const Design d = layered_design();
  const HierTree ht(d);
  EXPECT_EQ(ht.macros_under(ht.root()).size(), 2u);
  const HtNodeId b = ht.node_of_hier(2);
  EXPECT_TRUE(ht.macros_under(b).empty());
}

TEST(HierTree, CellsUnderCoversEverything) {
  const Design d = layered_design();
  const HierTree ht(d);
  std::vector<int> seen(d.cell_count(), 0);
  ht.for_each_cell_under(d, ht.root(), [&](CellId c) { ++seen[static_cast<std::size_t>(c)]; });
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << "cell " << i;
}

TEST(HierTree, IsAncestor) {
  const Design d = layered_design();
  const HierTree ht(d);
  const HtNodeId a = ht.node_of_hier(1);
  const HtNodeId aa = ht.node_of_hier(3);
  const HtNodeId b = ht.node_of_hier(2);
  EXPECT_TRUE(ht.is_ancestor(ht.root(), aa));
  EXPECT_TRUE(ht.is_ancestor(a, aa));
  EXPECT_TRUE(ht.is_ancestor(aa, aa));
  EXPECT_FALSE(ht.is_ancestor(aa, a));
  EXPECT_FALSE(ht.is_ancestor(b, aa));
}

TEST(HierTree, PreorderStartsAtRootAndCoversSubtree) {
  const Design d = layered_design();
  const HierTree ht(d);
  const auto order = ht.preorder(ht.root());
  EXPECT_EQ(order.size(), ht.size());
  EXPECT_EQ(order.front(), ht.root());
}

TEST(HierTree, PathNames) {
  const Design d = layered_design();
  const HierTree ht(d);
  const HtNodeId aa = ht.node_of_hier(3);
  EXPECT_EQ(ht.path(aa), "top/a/aa");
}

TEST(HierTree, NonMacroCellsMapToTheirHierNode) {
  const Design d = layered_design();
  const HierTree ht(d);
  // Cell "glue" is cell index 2 (third added).
  EXPECT_EQ(ht.node_of_cell(2), ht.node_of_hier(1));
}

}  // namespace
}  // namespace hidap
