// Affinity-matrix tests: lambda blending of block/macro flow, latency
// decay, symmetry, normalization.

#include <gtest/gtest.h>

#include <bit>

#include "core/dataflow_inference.hpp"
#include "core/decluster.hpp"
#include "core/hidap.hpp"
#include "dataflow/affinity.hpp"
#include "gen/suite.hpp"

namespace hidap {
namespace {

// Two blocks with both flows: block flow 16 bits @ latency 2, macro flow
// 32 bits @ latency 4 (the Fig. 7 fixture numbers).
struct BlendFixture {
  SeqGraph seq;
  DataflowGraph gdf{seq};

  BlendFixture() {
    const auto mk = [&](SeqKind kind, int width) {
      SeqNode n;
      n.kind = kind;
      n.width = width;
      return seq.add_node(n);
    };
    const SeqNodeId ma = mk(SeqKind::Macro, 64);
    const SeqNodeId ra = mk(SeqKind::Register, 32);
    const SeqNodeId g = mk(SeqKind::Register, 16);
    const SeqNodeId rb = mk(SeqKind::Register, 32);
    const SeqNodeId mb = mk(SeqKind::Macro, 64);
    seq.add_edge(ma, ra, 32, 1);
    seq.add_edge(ra, g, 16, 2);
    seq.add_edge(g, rb, 16, 1);
    seq.add_edge(rb, mb, 32, 0);
    seq.build_adjacency();
    gdf = DataflowGraph(seq);
    gdf.add_node({DfKind::Block, "A", {ma, ra}, false, {}});
    gdf.add_node({DfKind::Block, "B", {rb, mb}, false, {}});
    gdf.infer_edges();
  }
};

TEST(Affinity, PureBlockFlowAtLambdaOne) {
  BlendFixture fx;
  AffinityOptions opt;
  opt.lambda = 1.0;
  opt.k = 2.0;
  opt.normalize = false;
  const AffinityMatrix m = compute_affinity(fx.gdf, opt);
  // block flow: 16 bits at latency 2 -> 16/4 = 4.
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
}

TEST(Affinity, PureMacroFlowAtLambdaZero) {
  BlendFixture fx;
  AffinityOptions opt;
  opt.lambda = 0.0;
  opt.k = 2.0;
  opt.normalize = false;
  const AffinityMatrix m = compute_affinity(fx.gdf, opt);
  // macro flow: 32 bits at latency 4 -> 32/16 = 2.
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
}

TEST(Affinity, LambdaBlendsLinearly) {
  BlendFixture fx;
  AffinityOptions opt;
  opt.lambda = 0.25;
  opt.k = 2.0;
  opt.normalize = false;
  const AffinityMatrix m = compute_affinity(fx.gdf, opt);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.25 * 4.0 + 0.75 * 2.0);
}

TEST(Affinity, LatencyDecayKReducesScore) {
  BlendFixture fx;
  AffinityOptions flat, steep;
  flat.lambda = steep.lambda = 1.0;
  flat.normalize = steep.normalize = false;
  flat.k = 0.0;
  steep.k = 3.0;
  EXPECT_GT(compute_affinity(fx.gdf, flat).at(0, 1),
            compute_affinity(fx.gdf, steep).at(0, 1));
}

TEST(Affinity, MatrixIsSymmetric) {
  BlendFixture fx;
  const AffinityMatrix m = compute_affinity(fx.gdf);
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      EXPECT_DOUBLE_EQ(m.at(i, j), m.at(j, i));
    }
  }
}

TEST(Affinity, NormalizationCapsAtOne) {
  BlendFixture fx;
  AffinityOptions opt;
  opt.normalize = true;
  const AffinityMatrix m = compute_affinity(fx.gdf, opt);
  EXPECT_DOUBLE_EQ(m.max_value(), 1.0);
}

TEST(AffinityMatrix, AccumulateAddsBothDirections) {
  AffinityMatrix m(3, 3);
  m.accumulate(0, 2, 1.5);
  m.accumulate(2, 0, 0.5);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 2.0);
}

TEST(AffinityMatrix, NormalizeZeroMatrixIsNoop) {
  AffinityMatrix m(2, 2);
  m.normalize_max();
  EXPECT_DOUBLE_EQ(m.max_value(), 0.0);
}

// Reference: the dense (n x n) matrix compute_affinity stored before it
// kept only block rows.
AffinityMatrix dense_affinity(const DataflowGraph& gdf, const AffinityOptions& options) {
  AffinityMatrix m(gdf.node_count(), gdf.node_count());
  for (const DfEdge& e : gdf.edges()) {
    const double score = options.lambda * e.block_flow.score(options.k) +
                         (1.0 - options.lambda) * e.macro_flow.score(options.k);
    if (score <= 0.0) continue;
    m.accumulate(static_cast<std::size_t>(e.from), static_cast<std::size_t>(e.to), score);
  }
  if (options.normalize) m.normalize_max();
  return m;
}

void expect_rows_match_dense(const AffinityMatrix& got, const AffinityMatrix& dense) {
  ASSERT_EQ(got.size(), dense.size());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.at(i, j)),
                std::bit_cast<std::uint64_t>(dense.at(i, j)))
          << i << "," << j;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.at(j, i)),
                std::bit_cast<std::uint64_t>(dense.at(j, i)))
          << j << "," << i;
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_value()),
            std::bit_cast<std::uint64_t>(dense.max_value()));
}

// Two blocks and two fixed terminals whose mutual flow (64 bits, one
// hop) outweighs every block pair: the unstored terminal-terminal sum
// still sets the normalization.
TEST(AffinityMatrix, BlockRowsMatchDenseWhenTerminalsHoldTheMaximum) {
  SeqGraph seq;
  const auto mk = [&](int width) {
    SeqNode n;
    n.kind = SeqKind::Register;
    n.width = width;
    return seq.add_node(n);
  };
  const SeqNodeId a = mk(8), b = mk(8), t1 = mk(64), t2 = mk(64);
  seq.add_edge(a, t1, 8, 1);
  seq.add_edge(t1, t2, 64, 1);
  seq.add_edge(t2, t1, 32, 1);
  seq.add_edge(t2, b, 8, 1);
  seq.add_edge(a, b, 4, 1);
  seq.build_adjacency();
  DataflowGraph gdf(seq);
  gdf.add_node({DfKind::Block, "A", {a}, false, {}});
  gdf.add_node({DfKind::Block, "B", {b}, false, {}});
  gdf.add_node({DfKind::PortGroup, "T1", {t1}, true, Point{0, 0}});
  gdf.add_node({DfKind::PortGroup, "T2", {t2}, true, Point{9, 9}});
  gdf.infer_edges();
  for (const bool normalize : {false, true}) {
    AffinityOptions opt;
    opt.normalize = normalize;
    const AffinityMatrix dense = dense_affinity(gdf, opt);
    // Precondition: the maximum sits on the terminal-terminal pair.
    double block_max = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < dense.size(); ++j) {
        block_max = std::max(block_max, dense.at(i, j));
      }
    }
    ASSERT_GT(dense.at(2, 3), block_max);
    const AffinityMatrix got = compute_affinity(gdf, opt);
    EXPECT_EQ(got.rows(), 2u);
    expect_rows_match_dense(got, dense);
  }
}

// A real level: the root of a suite design, blocks plus port terminals.
TEST(AffinityMatrix, BlockRowsMatchDenseOnSuiteLevel) {
  const Design design = generate_circuit(suite_circuit("c1", 0.002).spec);
  const PlacementContext context(design);
  const HtNodeId root = context.ht.root();
  const double area = context.ht.area(root);
  const Declustering dec =
      hierarchical_declustering(context.ht, root, 0.01 * area, 0.40 * area);
  const LevelDataflow flow = infer_level_dataflow(design, context.ht, context.seq, root,
                                                  dec.hcb, EstimateSnapshot{}, HiDaPOptions{});
  ASSERT_GT(flow.terminal_positions.size(), 0u);
  EXPECT_EQ(flow.affinity.rows(), flow.movable_count);
  for (const double lambda : HiDaPOptions::kLambdaSweep) {
    AffinityOptions opt;
    opt.lambda = lambda;
    expect_rows_match_dense(compute_affinity(*flow.gdf, opt), dense_affinity(*flow.gdf, opt));
  }
}

}  // namespace
}  // namespace hidap
