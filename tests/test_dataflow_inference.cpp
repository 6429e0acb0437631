// Per-level dataflow inference tests (Algorithm 2 step 5): block
// membership, port terminals, outside-macro terminals, affinity shape,
// and the EstimateSnapshot the inference reads.

#include <gtest/gtest.h>

#include "core/dataflow_inference.hpp"
#include "core/decluster.hpp"
#include "core/hidap.hpp"
#include "gen/suite.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

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
  EXPECT_EQ(snap.macro_count(), 0u);
  EXPECT_FALSE(snap.has_estimate(0));
  EXPECT_FALSE(snap.has_estimate(123));
}

TEST(EstimateSnapshot, SetAndRead) {
  auto& fx = fixture();
  const std::vector<CellId> macros = fx.d.macros();
  ASSERT_GE(macros.size(), 2u);
  EstimateSnapshot snap(fx.ctx.ht);
  EXPECT_EQ(snap.macro_count(), macros.size());
  EXPECT_FALSE(snap.has_estimate(macros[1]));
  snap.set(macros[1], Point{1.5, -2.0});
  ASSERT_TRUE(snap.has_estimate(macros[1]));
  EXPECT_EQ(snap.estimate(macros[1]), (Point{1.5, -2.0}));
  EXPECT_FALSE(snap.has_estimate(macros[0]));
}

TEST(EstimateSnapshot, MacroOrdinalIsTheDesignMacroIndex) {
  auto& fx = fixture();
  const std::vector<CellId> macros = fx.d.macros();
  ASSERT_EQ(fx.ctx.ht.total_macros(), macros.size());
  for (std::size_t k = 0; k < macros.size(); ++k) {
    EXPECT_EQ(fx.ctx.ht.macro_ordinal(macros[k]), k);
  }
  for (std::size_t c = 0; c < fx.d.cell_count(); ++c) {
    const auto cell = static_cast<CellId>(c);
    if (fx.d.cell(cell).kind != CellKind::Macro) {
      ASSERT_EQ(fx.ctx.ht.macro_ordinal(cell), HierTree::kNoMacroOrdinal) << c;
    }
  }
}

TEST(EstimateSnapshot, MatchesDenseReferenceThroughCopiesAndWrites) {
  // Differential: the per-macro snapshot against a dense per-cell
  // reference (the storage it replaced), through the recursion's usage
  // pattern -- derive a child by copying, write some macro centers --
  // over random write streams. Every cell, macro or not, must read back
  // identically.
  auto& fx = fixture();
  const std::vector<CellId> macros = fx.d.macros();
  struct Dense {
    std::vector<Point> pos;
    std::vector<std::uint8_t> has;
  };
  Rng rng(0xe57);
  for (int trial = 0; trial < 20; ++trial) {
    EstimateSnapshot snap(fx.ctx.ht);
    Dense dense{std::vector<Point>(fx.d.cell_count()),
                std::vector<std::uint8_t>(fx.d.cell_count(), 0)};
    for (int level = 0; level < 6; ++level) {
      EstimateSnapshot child = snap;
      Dense child_dense = dense;
      const int writes = rng.next_int(0, static_cast<int>(macros.size()));
      for (int w = 0; w < writes; ++w) {
        const CellId m =
            macros[static_cast<std::size_t>(rng.next_int(0, static_cast<int>(macros.size()) - 1))];
        const Point p{rng.next_double(-50, 500), rng.next_double(-50, 500)};
        child.set(m, p);
        child_dense.pos[static_cast<std::size_t>(m)] = p;
        child_dense.has[static_cast<std::size_t>(m)] = 1;
      }
      for (std::size_t c = 0; c < fx.d.cell_count(); ++c) {
        const auto cell = static_cast<CellId>(c);
        // The parent is untouched by its child's writes.
        ASSERT_EQ(snap.has_estimate(cell), dense.has[c] != 0) << c;
        ASSERT_EQ(child.has_estimate(cell), child_dense.has[c] != 0) << c;
        if (child_dense.has[c] != 0) {
          ASSERT_EQ(child.estimate(cell), child_dense.pos[c]) << c;
        }
      }
      snap = std::move(child);
      dense = std::move(child_dense);
    }
  }
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

  EstimateSnapshot est(fx.ctx.ht);
  for (const CellId m : fx.d.macros()) est.set(m, Point{100, 100});
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
