// Array clustering tests (paper sect. IV-D step 2).

#include <gtest/gtest.h>

#include "netlist/array_naming.hpp"

namespace hidap {
namespace {

TEST(ArrayClustering, GroupsByBaseName) {
  Design d("top");
  for (int i = 0; i < 8; ++i) {
    d.add_cell(d.root(), "data_q[" + std::to_string(i) + "]", CellKind::Flop, 1.0);
  }
  for (int i = 0; i < 4; ++i) {
    d.add_cell(d.root(), "ctl_" + std::to_string(i), CellKind::Flop, 1.0);
  }
  d.add_cell(d.root(), "single", CellKind::Flop, 1.0);
  const auto groups = cluster_arrays(d).groups;
  ASSERT_EQ(groups.size(), 3u);
  // Ordered by (hier, kind, base).
  int widths[3] = {0, 0, 0};
  for (std::size_t i = 0; i < 3; ++i) widths[i] = groups[i].width();
  EXPECT_EQ(widths[0] + widths[1] + widths[2], 13);
}

TEST(ArrayClustering, DoesNotCrossHierarchy) {
  Design d("top");
  const HierId a = d.add_hier(d.root(), "a");
  const HierId b = d.add_hier(d.root(), "b");
  d.add_cell(a, "x[0]", CellKind::Flop, 1.0);
  d.add_cell(b, "x[1]", CellKind::Flop, 1.0);
  const auto groups = cluster_arrays(d).groups;
  EXPECT_EQ(groups.size(), 2u);
}

TEST(ArrayClustering, DoesNotMixKinds) {
  Design d("top");
  d.add_cell(d.root(), "x[0]", CellKind::Flop, 1.0);
  d.add_cell(d.root(), "x[1]", CellKind::PortIn, 0.0);
  const auto groups = cluster_arrays(d).groups;
  EXPECT_EQ(groups.size(), 2u);
}

TEST(ArrayClustering, IgnoresCombAndMacros) {
  Design d("top");
  d.add_cell(d.root(), "g[0]", CellKind::Comb, 1.0);
  const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 4, 4, 8));
  d.add_cell(d.root(), "mem[0]", CellKind::Macro, 0.0, m);
  EXPECT_TRUE(cluster_arrays(d).groups.empty());
}

TEST(ArrayClustering, BitsSortedByIndex) {
  Design d("top");
  const CellId c2 = d.add_cell(d.root(), "v[2]", CellKind::Flop, 1.0);
  const CellId c0 = d.add_cell(d.root(), "v[0]", CellKind::Flop, 1.0);
  const CellId c1 = d.add_cell(d.root(), "v[1]", CellKind::Flop, 1.0);
  const ArrayClusters clusters = cluster_arrays(d);
  const auto& groups = clusters.groups;
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].width(), 3);
  EXPECT_EQ(clusters.bits(groups[0])[0], c0);
  EXPECT_EQ(clusters.bits(groups[0])[1], c1);
  EXPECT_EQ(clusters.bits(groups[0])[2], c2);
  EXPECT_EQ(groups[0].base, "v");
}

TEST(ArrayClustering, PortsGroupToo) {
  Design d("top");
  for (int i = 0; i < 16; ++i) {
    d.add_cell(d.root(), "in[" + std::to_string(i) + "]", CellKind::PortIn, 0.0);
  }
  const auto groups = cluster_arrays(d).groups;
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].width(), 16);
  EXPECT_EQ(groups[0].kind, CellKind::PortIn);
}

}  // namespace
}  // namespace hidap
