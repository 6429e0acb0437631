// Gseq extraction tests (paper sect. IV-D steps 1-4): combinational
// bypass, array clustering, edge inference, bit-width threshold.

#include <gtest/gtest.h>

#include "dataflow/seq_extract.hpp"

namespace hidap {
namespace {

struct PipelineFixture {
  Design d{"top"};
  std::vector<CellId> ports, regA, regB;
  CellId macro = kInvalidId;

  // port[i] -> comb -> regA[i] -> comb -> comb -> regB[i] -> macro.D
  explicit PipelineFixture(int width = 8, int small_width = 2) {
    const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 10, 10, width));
    macro = d.add_cell(d.root(), "mem", CellKind::Macro, 0.0, m);
    for (int i = 0; i < width; ++i) {
      const std::string idx = "[" + std::to_string(i) + "]";
      const CellId p = d.add_cell(d.root(), "in" + idx, CellKind::PortIn, 0.0);
      ports.push_back(p);
      const NetId np = d.add_net("np");
      d.set_driver(np, p);
      const CellId g0 = d.add_cell(d.root(), "g0" + idx, CellKind::Comb, 1.0);
      d.add_sink(np, g0);
      const NetId n0 = d.add_net("n0");
      d.set_driver(n0, g0);
      const CellId a = d.add_cell(d.root(), "a" + idx, CellKind::Flop, 1.0);
      regA.push_back(a);
      d.add_sink(n0, a);
      const NetId na = d.add_net("na");
      d.set_driver(na, a);
      const CellId g1 = d.add_cell(d.root(), "g1" + idx, CellKind::Comb, 1.0);
      d.add_sink(na, g1);
      const NetId n1 = d.add_net("n1");
      d.set_driver(n1, g1);
      const CellId g2 = d.add_cell(d.root(), "g2" + idx, CellKind::Comb, 1.0);
      d.add_sink(n1, g2);
      const NetId n2 = d.add_net("n2");
      d.set_driver(n2, g2);
      const CellId b = d.add_cell(d.root(), "b" + idx, CellKind::Flop, 1.0);
      regB.push_back(b);
      d.add_sink(n2, b);
      const NetId nb = d.add_net("nb");
      d.set_driver(nb, b);
      d.add_sink(nb, macro, 0.0f, 2.5f);
    }
    // A small register pair below the threshold.
    for (int i = 0; i < small_width; ++i) {
      const CellId s = d.add_cell(d.root(), "tiny[" + std::to_string(i) + "]",
                                  CellKind::Flop, 1.0);
      const NetId ns = d.add_net("ns");
      d.set_driver(ns, s);
    }
    d.freeze();
  }
};

TEST(SeqExtract, NodesAreArraysMacrosPorts) {
  PipelineFixture fx;
  const CellAdjacency adj(fx.d);
  const SeqGraph g = extract_seq_graph(fx.d, adj);
  // in[8] port group, a[8], b[8], macro; tiny[2] dropped by threshold.
  EXPECT_EQ(g.node_count(), 4u);
  int macros = 0, regs = 0, ports = 0;
  for (const SeqNode& n : g.nodes()) {
    macros += n.kind == SeqKind::Macro;
    regs += n.kind == SeqKind::Register;
    ports += n.kind == SeqKind::Port;
  }
  EXPECT_EQ(macros, 1);
  EXPECT_EQ(regs, 2);
  EXPECT_EQ(ports, 1);
}

TEST(SeqExtract, ThresholdKeepsSmallRegistersWhenLow) {
  PipelineFixture fx;
  const CellAdjacency adj(fx.d);
  SeqExtractOptions opt;
  opt.bit_threshold = 1;
  const SeqGraph g = extract_seq_graph(fx.d, adj, opt);
  EXPECT_EQ(g.node_count(), 5u);  // tiny[2] now included
}

TEST(SeqExtract, EdgesFollowPipelineWithCombDepth) {
  PipelineFixture fx;
  const CellAdjacency adj(fx.d);
  const SeqGraph g = extract_seq_graph(fx.d, adj);
  // Expect edges: port->a (depth 1), a->b (depth 2), b->macro (depth 0).
  ASSERT_EQ(g.edge_count(), 3u);
  int depth_by_bits[3] = {-1, -1, -1};
  for (const SeqEdge& e : g.edges()) {
    EXPECT_EQ(e.bits, 8);
    ASSERT_LT(e.comb_depth, 3);
    depth_by_bits[e.comb_depth] = e.comb_depth;
  }
  EXPECT_EQ(depth_by_bits[0], 0);
  EXPECT_EQ(depth_by_bits[1], 1);
  EXPECT_EQ(depth_by_bits[2], 2);
}

TEST(SeqExtract, CellMappingRoundTrip) {
  PipelineFixture fx;
  const CellAdjacency adj(fx.d);
  const SeqGraph g = extract_seq_graph(fx.d, adj);
  const SeqNodeId macro_node = g.node_of_cell(fx.macro);
  ASSERT_NE(macro_node, kInvalidId);
  EXPECT_EQ(g.node(macro_node).kind, SeqKind::Macro);
  const SeqNodeId a_node = g.node_of_cell(fx.regA[0]);
  ASSERT_NE(a_node, kInvalidId);
  EXPECT_EQ(g.node(a_node).width, 8);
  for (const CellId bit : fx.regA) EXPECT_EQ(g.node_of_cell(bit), a_node);
  // Comb cells are not in Gseq.
  EXPECT_EQ(g.node_of_cell(2), kInvalidId);  // g0[0]
}

TEST(SeqExtract, AdjacencyQueries) {
  PipelineFixture fx;
  const CellAdjacency adj(fx.d);
  const SeqGraph g = extract_seq_graph(fx.d, adj);
  const SeqNodeId a_node = g.node_of_cell(fx.regA[0]);
  const std::span<const std::uint32_t> out = g.out_edges(a_node);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(g.edge(out[0]).to, g.node_of_cell(fx.regB[0]));
}

TEST(SeqGraph, ParallelEdgesMerge) {
  SeqGraph g;
  SeqNode n;
  n.width = 4;
  const SeqNodeId a = g.add_node(n);
  const SeqNodeId b = g.add_node(n);
  g.add_edge(a, b, 4, 1);
  g.add_edge(a, b, 4, 3);
  ASSERT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge(0).bits, 8);
  EXPECT_EQ(g.edge(0).comb_depth, 3);
}

TEST(SeqExtract, FeedbackToSameArrayIgnored) {
  Design d("top");
  std::vector<CellId> flops;
  for (int i = 0; i < 4; ++i) {
    flops.push_back(d.add_cell(d.root(), "s[" + std::to_string(i) + "]",
                               CellKind::Flop, 1.0));
  }
  // s[0] -> comb -> s[1] (same array: self edge must be suppressed).
  const NetId n0 = d.add_net("n0");
  d.set_driver(n0, flops[0]);
  const CellId g0 = d.add_cell(d.root(), "g", CellKind::Comb, 1.0);
  d.add_sink(n0, g0);
  const NetId n1 = d.add_net("n1");
  d.set_driver(n1, g0);
  d.add_sink(n1, flops[1]);
  d.freeze();
  const CellAdjacency adj(d);
  const SeqGraph g = extract_seq_graph(d, adj);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

}  // namespace
}  // namespace hidap
