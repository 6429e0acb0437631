// Hierarchical declustering tests (paper Algorithm 3, Fig. 5).

#include <gtest/gtest.h>

#include <set>

#include "core/decluster.hpp"

namespace hidap {
namespace {

// top
//  +- big_glue   (area 500, no macros)      -> opened
//  |   +- g0     (area 300, no macros)      -> HCB (> min_area)
//  |   +- g1     (area 200, no macros)      -> HCG or HCB depending on min
//  +- unit       (area 250 incl. 2 macros)  -> HCB (has macros)
//  +- tiny       (area 5, no macros)        -> HCG
struct Fixture {
  Design d{"top"};
  HierId big_glue, g0, g1, unit, tiny;

  Fixture() {
    big_glue = d.add_hier(d.root(), "big_glue");
    g0 = d.add_hier(big_glue, "g0");
    g1 = d.add_hier(big_glue, "g1");
    unit = d.add_hier(d.root(), "unit");
    tiny = d.add_hier(d.root(), "tiny");
    const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 10, 10, 8));
    for (int i = 0; i < 300; ++i) d.add_cell(g0, "c" + std::to_string(i), CellKind::Comb, 1.0);
    for (int i = 0; i < 200; ++i) d.add_cell(g1, "c" + std::to_string(i), CellKind::Comb, 1.0);
    d.add_cell(unit, "mem0", CellKind::Macro, 0.0, m);
    d.add_cell(unit, "mem1", CellKind::Macro, 0.0, m);
    for (int i = 0; i < 50; ++i) d.add_cell(unit, "c" + std::to_string(i), CellKind::Comb, 1.0);
    for (int i = 0; i < 5; ++i) d.add_cell(tiny, "c" + std::to_string(i), CellKind::Comb, 1.0);
    d.freeze();
  }
};

TEST(Decluster, MacroNodesAlwaysBecomeBlocks) {
  Fixture fx;
  const HierTree ht(fx.d);
  const Declustering dec = hierarchical_declustering(ht, ht.root(), /*open=*/7.55,
                                                     /*min=*/302.0);
  std::set<HtNodeId> hcb(dec.hcb.begin(), dec.hcb.end());
  EXPECT_TRUE(hcb.count(ht.node_of_hier(fx.unit)));
}

TEST(Decluster, BigGlueOpenedSmallGlueKept) {
  Fixture fx;
  const HierTree ht(fx.d);
  // open_area = 1% of 755 = 7.55; min_area = 40% of 755 = 302.
  const Declustering dec = hierarchical_declustering(ht, ht.root(), 7.55, 302.0);
  std::set<HtNodeId> hcb(dec.hcb.begin(), dec.hcb.end());
  std::set<HtNodeId> hcg(dec.hcg.begin(), dec.hcg.end());
  // big_glue (500 > 7.55, no macros) is opened -> not in either set.
  EXPECT_FALSE(hcb.count(ht.node_of_hier(fx.big_glue)));
  EXPECT_FALSE(hcg.count(ht.node_of_hier(fx.big_glue)));
  // g0 (300 < 302) -> HCG; g1 (200) -> HCG... wait g0 is opened too (300 >
  // 7.55, no macros, has no children -> leaf rule applies -> classified).
  EXPECT_TRUE(hcg.count(ht.node_of_hier(fx.g0)));
  EXPECT_TRUE(hcg.count(ht.node_of_hier(fx.g1)));
  EXPECT_TRUE(hcg.count(ht.node_of_hier(fx.tiny)));
}

TEST(Decluster, LowerMinAreaPromotesGlueToBlocks) {
  Fixture fx;
  const HierTree ht(fx.d);
  const Declustering dec = hierarchical_declustering(ht, ht.root(), 7.55, 250.0);
  std::set<HtNodeId> hcb(dec.hcb.begin(), dec.hcb.end());
  EXPECT_TRUE(hcb.count(ht.node_of_hier(fx.g0)));  // 300 > 250 -> block
}

// The cut property (paper II-C): every leaf of the subtree lies under
// exactly one node of HCB ∪ HCG.
TEST(Decluster, CutCoversEveryLeafExactlyOnce) {
  Fixture fx;
  const HierTree ht(fx.d);
  const Declustering dec = hierarchical_declustering(ht, ht.root(), 7.55, 302.0);
  std::vector<HtNodeId> cut = dec.hcb;
  cut.insert(cut.end(), dec.hcg.begin(), dec.hcg.end());
  // Count, for each macro leaf, how many cut nodes contain it.
  for (const CellId macro : fx.d.macros()) {
    int owners = 0;
    for (const HtNodeId c : cut) {
      if (ht.is_ancestor(c, ht.node_of_cell(macro))) ++owners;
    }
    EXPECT_EQ(owners, 1);
  }
}

TEST(Decluster, MacroLeafChildrenBecomeIndividualBlocks) {
  // Declustering *inside* the unit node: the two macro leaves become
  // separate blocks (this is what drives the recursion to termination).
  Fixture fx;
  const HierTree ht(fx.d);
  const HtNodeId unit_ht = ht.node_of_hier(fx.unit);
  const double area = ht.area(unit_ht);
  const Declustering dec =
      hierarchical_declustering(ht, unit_ht, 0.01 * area, 0.4 * area);
  int macro_blocks = 0;
  for (const HtNodeId b : dec.hcb) macro_blocks += ht.node(b).is_macro_leaf();
  EXPECT_EQ(macro_blocks, 2);
}

TEST(Decluster, EmptyNodeYieldsNothing) {
  Design d("top");
  d.add_hier(d.root(), "empty");
  d.freeze();
  const HierTree ht(d);
  const Declustering dec = hierarchical_declustering(ht, ht.root(), 1.0, 2.0);
  EXPECT_TRUE(dec.hcb.empty());
  EXPECT_EQ(dec.hcg.size(), 1u);
}

}  // namespace
}  // namespace hidap
