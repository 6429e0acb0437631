// Synthetic circuit generator tests: spec adherence, structural
// properties HiDaP depends on (hierarchy, arrays, dataflow).

#include <gtest/gtest.h>

#include "dataflow/seq_extract.hpp"
#include "gen/suite.hpp"
#include "netlist/array_naming.hpp"

namespace hidap {
namespace {

TEST(CircuitGen, MacroCountExact) {
  CircuitSpec spec = fig1_spec();
  const Design d = generate_circuit(spec);
  EXPECT_EQ(d.macro_count(), static_cast<std::size_t>(spec.macro_count));
}

TEST(CircuitGen, CellCountNearTarget) {
  CircuitSpec spec = fig1_spec();
  spec.target_cells = 8000;
  const Design d = generate_circuit(spec);
  long std_cells = 0;
  for (const Cell& c : d.cells()) {
    std_cells += (c.kind == CellKind::Flop || c.kind == CellKind::Comb);
  }
  EXPECT_GE(std_cells, spec.target_cells * 0.95);
  EXPECT_LE(std_cells, spec.target_cells * 1.3);
}

TEST(CircuitGen, ValidNetlist) {
  const Design d = generate_circuit(fig1_spec());
  EXPECT_TRUE(d.validate().empty()) << d.validate();
}

TEST(CircuitGen, DieSizedByUtilization) {
  CircuitSpec spec = fig1_spec();
  spec.utilization = 0.5;
  const Design d = generate_circuit(spec);
  EXPECT_NEAR(d.die().area() * spec.utilization, d.total_cell_area(),
              d.total_cell_area() * 0.01);
}

TEST(CircuitGen, PortsOnBoundary) {
  const Design d = generate_circuit(fig1_spec());
  int on_edge = 0, total = 0;
  for (const CellId p : d.ports()) {
    ASSERT_TRUE(d.cell(p).fixed_pos.has_value());
    const Point pos = *d.cell(p).fixed_pos;
    ++total;
    const double w = d.die().w, h = d.die().h;
    if (pos.x < 1e-6 || pos.x > w - 1e-6 || pos.y < 1e-6 || pos.y > h - 1e-6) {
      ++on_edge;
    }
  }
  EXPECT_EQ(on_edge, total);
  EXPECT_GT(total, 0);
}

TEST(CircuitGen, HierarchyHasSubsystems) {
  CircuitSpec spec = fig1_spec();
  spec.subsystems = 2;
  const Design d = generate_circuit(spec);
  int top_children = static_cast<int>(d.hier(d.root()).children.size());
  EXPECT_GE(top_children, spec.subsystems + 1);  // ss* + ctrl
}

TEST(CircuitGen, RegisterArraysDetectable) {
  const Design d = generate_circuit(fig1_spec());
  const auto groups = cluster_arrays(d).groups;
  int wide = 0;
  for (const ArrayGroup& g : groups) wide += (g.width() >= 16);
  EXPECT_GT(wide, 4);  // pipelines produce many wide arrays
}

TEST(CircuitGen, GseqHasCrossBlockDataflow) {
  const Design d = generate_circuit(fig1_spec());
  const CellAdjacency adj(d);
  const SeqGraph seq = extract_seq_graph(d, adj);
  EXPECT_GT(seq.node_count(), 20u);
  EXPECT_GT(seq.edge_count(), 20u);
  // Macros appear as Gseq endpoints.
  int macro_edges = 0;
  for (const SeqEdge& e : seq.edges()) {
    macro_edges += (seq.node(e.from).kind == SeqKind::Macro ||
                    seq.node(e.to).kind == SeqKind::Macro);
  }
  EXPECT_GT(macro_edges, 8);
}

TEST(CircuitGen, DeterministicBySeed) {
  const Design a = generate_circuit(fig1_spec());
  const Design b = generate_circuit(fig1_spec());
  EXPECT_EQ(a.cell_count(), b.cell_count());
  EXPECT_EQ(a.net_count(), b.net_count());
}

TEST(CircuitGen, SeedChangesStructure) {
  CircuitSpec s1 = fig1_spec(), s2 = fig1_spec();
  s2.seed = 999;
  const Design a = generate_circuit(s1);
  const Design b = generate_circuit(s2);
  // Same macro count but (very likely) different glue partition.
  EXPECT_EQ(a.macro_count(), b.macro_count());
  EXPECT_NE(a.cell_count(), b.cell_count());
}

TEST(Suite, EightCircuitsMatchPaperMacros) {
  const auto suite = paper_suite(0.01);
  ASSERT_EQ(suite.size(), 8u);
  const int expected_macros[] = {32, 100, 94, 122, 133, 90, 108, 37};
  const long expected_cells[] = {520000, 3950000, 3780000, 4810000,
                                 1390000, 2870000, 1670000, 2200000};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(suite[i].spec.macro_count, expected_macros[i]);
    EXPECT_EQ(suite[i].paper_macros, expected_macros[i]);
    EXPECT_EQ(suite[i].paper_cells, expected_cells[i]);
    EXPECT_EQ(suite[i].spec.target_cells, static_cast<int>(expected_cells[i] * 0.01));
  }
}

TEST(Suite, LookupByName) {
  const SuiteEntry e = suite_circuit("c5", 0.01);
  EXPECT_EQ(e.spec.macro_count, 133);
  EXPECT_THROW(suite_circuit("c9"), std::out_of_range);
}

TEST(Suite, SmallScaleGeneratesQuickly) {
  const SuiteEntry e = suite_circuit("c1", 0.005);
  const Design d = generate_circuit(e.spec);
  EXPECT_EQ(d.macro_count(), 32u);
  EXPECT_TRUE(d.validate().empty());
}

}  // namespace
}  // namespace hidap
