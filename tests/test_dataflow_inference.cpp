// Per-level dataflow inference tests (Algorithm 2 step 5): block
// membership, port terminals, outside-macro terminals, affinity shape,
// and the EstimateSnapshot the inference reads.

#include <gtest/gtest.h>

#include "core/dataflow_inference.hpp"
#include "core/decluster.hpp"
#include "core/hidap.hpp"
#include "gen/suite.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

struct Fixture {
  Design d;
  PlacementContext ctx;
  Declustering dec;

  Fixture() : d(generate_circuit(fig1_spec())), ctx(d) {
    set_log_level(LogLevel::Warn);
    const double area = ctx.ht.area(ctx.ht.root());
    dec = hierarchical_declustering(ctx.ht, ctx.ht.root(), 0.01 * area, 0.40 * area);
  }

  LevelDataflow infer(HtNodeId nh, const std::vector<HtNodeId>& hcb,
                      const EstimateSnapshot* est = nullptr) const {
    HiDaPOptions opts;
    return infer_level_dataflow(d, ctx.ht, ctx.seq, nh, hcb,
                                est ? *est : EstimateSnapshot{}, opts);
  }
};

Fixture& fixture() {
  static Fixture* fx = new Fixture();
  return *fx;
}

TEST(EstimateSnapshot, EmptySnapshotHasNoEstimates) {
  const EstimateSnapshot snap;
  EXPECT_EQ(snap.cell_count(), 0u);
  EXPECT_FALSE(snap.has_estimate(0));
  EXPECT_FALSE(snap.has_estimate(123));
}

TEST(EstimateSnapshot, SetAndRead) {
  EstimateSnapshot snap(8);
  EXPECT_FALSE(snap.has_estimate(3));
  snap.set(3, Point{1.5, -2.0});
  ASSERT_TRUE(snap.has_estimate(3));
  EXPECT_EQ(snap.estimate(3), (Point{1.5, -2.0}));
  EXPECT_FALSE(snap.has_estimate(2));
}

TEST(DataflowInference, BlocksComeFirstInNodeOrder) {
  auto& fx = fixture();
  const LevelDataflow flow = fx.infer(fx.ctx.ht.root(), fx.dec.hcb);
  ASSERT_EQ(flow.movable_count, fx.dec.hcb.size());
  for (std::size_t b = 0; b < fx.dec.hcb.size(); ++b) {
    const DfNode& node = flow.gdf->node(static_cast<DfNodeId>(b));
    EXPECT_EQ(node.kind, DfKind::Block);
    EXPECT_FALSE(node.fixed);
    EXPECT_EQ(node.name, fx.ctx.ht.path(fx.dec.hcb[b]));
  }
}

TEST(DataflowInference, PortGroupsAreFixedTerminals) {
  auto& fx = fixture();
  const LevelDataflow flow = fx.infer(fx.ctx.ht.root(), fx.dec.hcb);
  int ports = 0;
  for (std::size_t i = flow.movable_count; i < flow.gdf->node_count(); ++i) {
    const DfNode& node = flow.gdf->node(static_cast<DfNodeId>(i));
    EXPECT_TRUE(node.fixed);
    if (node.kind == DfKind::PortGroup) ++ports;
  }
  // in_bus, out_bus, cfg_in at minimum.
  EXPECT_GE(ports, 3);
  EXPECT_EQ(flow.terminal_positions.size(), flow.gdf->node_count() - flow.movable_count);
}

TEST(DataflowInference, PortTerminalPositionsOnBoundary) {
  auto& fx = fixture();
  const LevelDataflow flow = fx.infer(fx.ctx.ht.root(), fx.dec.hcb);
  const double w = fx.d.die().w, h = fx.d.die().h;
  for (std::size_t i = flow.movable_count; i < flow.gdf->node_count(); ++i) {
    const DfNode& node = flow.gdf->node(static_cast<DfNodeId>(i));
    if (node.kind != DfKind::PortGroup) continue;
    const Point p = node.position;
    const bool on_edge =
        p.x < 1e-6 || p.x > w - 1e-6 || p.y < 1e-6 || p.y > h - 1e-6;
    EXPECT_TRUE(on_edge) << node.name << " at " << p.x << "," << p.y;
  }
}

TEST(DataflowInference, EveryBlockHasMembers) {
  auto& fx = fixture();
  const LevelDataflow flow = fx.infer(fx.ctx.ht.root(), fx.dec.hcb);
  for (std::size_t b = 0; b < flow.movable_count; ++b) {
    EXPECT_FALSE(flow.gdf->node(static_cast<DfNodeId>(b)).members.empty())
        << "block " << b;
  }
}

TEST(DataflowInference, AdjacentSubsystemsHaveAffinity) {
  auto& fx = fixture();
  const LevelDataflow flow = fx.infer(fx.ctx.ht.root(), fx.dec.hcb);
  // The generator chains subsystems; at least one pair of blocks must
  // show nonzero affinity.
  double max_affinity = 0.0;
  for (std::size_t i = 0; i < flow.movable_count; ++i) {
    for (std::size_t j = i + 1; j < flow.movable_count; ++j) {
      max_affinity = std::max(max_affinity, flow.affinity.at(i, j));
    }
  }
  EXPECT_GT(max_affinity, 0.0);
}

TEST(DataflowInference, OutsideMacrosNeedEstimates) {
  auto& fx = fixture();
  // Infer at the first subsystem level: the other subsystem's macros are
  // outside. Without estimates they are skipped; with estimates they
  // appear as FixedMacros terminals.
  HtNodeId ss0 = kInvalidId;
  for (const HtNodeId b : fx.dec.hcb) {
    if (fx.ctx.ht.macro_count(b) > 0) {
      ss0 = b;
      break;
    }
  }
  ASSERT_NE(ss0, kInvalidId);
  const double area = fx.ctx.ht.area(ss0);
  const Declustering inner =
      hierarchical_declustering(fx.ctx.ht, ss0, 0.01 * area, 0.40 * area);
  ASSERT_FALSE(inner.hcb.empty());

  const LevelDataflow without = fx.infer(ss0, inner.hcb);
  int fixed_macros_without = 0;
  for (const DfNode& n : without.gdf->nodes()) {
    fixed_macros_without += (n.kind == DfKind::FixedMacros);
  }
  EXPECT_EQ(fixed_macros_without, 0);

  EstimateSnapshot est(fx.d.cell_count());
  for (std::size_t c = 0; c < fx.d.cell_count(); ++c) {
    est.set(static_cast<CellId>(c), Point{100, 100});
  }
  const LevelDataflow with = fx.infer(ss0, inner.hcb, &est);
  int fixed_macros_with = 0;
  for (const DfNode& n : with.gdf->nodes()) {
    fixed_macros_with += (n.kind == DfKind::FixedMacros);
  }
  // All macros outside ss0 (the other subsystems') become terminals.
  const int outside =
      static_cast<int>(fx.d.macro_count()) - fx.ctx.ht.macro_count(ss0);
  EXPECT_EQ(fixed_macros_with, outside);
}

TEST(DataflowInference, AffinityMatrixCoversAllNodes) {
  auto& fx = fixture();
  const LevelDataflow flow = fx.infer(fx.ctx.ht.root(), fx.dec.hcb);
  EXPECT_EQ(flow.affinity.size(), flow.gdf->node_count());
}

}  // namespace
}  // namespace hidap
