// End-to-end HiDaP flow tests on generated circuits: legality, recursion
// snapshots, determinism, lambda sensitivity, and the task-graph
// scheduler's bit-identity contracts (thread-count invariance, the
// sequential DFS oracle, shape-curve thread-count identity).

#include <gtest/gtest.h>

#include "core/hidap.hpp"
#include "core/recursive_floorplan.hpp"
#include "force_pool_lanes.hpp"
#include "gen/suite.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

// 8-lane pool (or HIDAP_THREADS) so the scheduler's sibling-subtree
// tasks genuinely interleave; see force_pool_lanes.hpp.
const int kForcedPoolLanes = test_support::force_pool_lanes();

HiDaPOptions quick_options(std::uint64_t seed = 1) {
  HiDaPOptions o;
  o.job.seed = seed;
  o.layout_anneal.moves_per_temperature = 80;
  o.layout_anneal.cooling = 0.8;
  o.layout_anneal.max_stagnant_temperatures = 4;
  o.shape_fp.anneal.moves_per_temperature = 60;
  o.shape_fp.anneal.cooling = 0.8;
  o.shape_fp.anneal.max_stagnant_temperatures = 4;
  return o;
}

class HidapFlowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::Warn);
    design_ = new Design(generate_circuit(fig1_spec()));
    context_ = new PlacementContext(*design_);
  }
  static void TearDownTestSuite() {
    delete context_;
    delete design_;
    context_ = nullptr;
    design_ = nullptr;
  }
  static Design* design_;
  static PlacementContext* context_;
};

Design* HidapFlowTest::design_ = nullptr;
PlacementContext* HidapFlowTest::context_ = nullptr;

TEST_F(HidapFlowTest, PlacesEveryMacroInsideDie) {
  const PlacementResult result = place_macros(*design_, *context_, quick_options());
  const Rect die{0, 0, design_->die().w, design_->die().h};
  const PlacementCheck check = check_placement(*design_, result, die);
  EXPECT_TRUE(check.all_macros_placed);
  EXPECT_TRUE(check.all_inside_die);
}

TEST_F(HidapFlowTest, MacroOverlapIsNegligible) {
  const PlacementResult result = place_macros(*design_, *context_, quick_options());
  const Rect die{0, 0, design_->die().w, design_->die().h};
  const PlacementCheck check = check_placement(*design_, result, die);
  double macro_area = 0.0;
  for (const MacroPlacement& m : result.macros) macro_area += m.rect.area();
  EXPECT_LT(check.overlap_area, 0.02 * macro_area);
}

TEST_F(HidapFlowTest, SnapshotsFormRecursionTrace) {
  const PlacementResult result = place_macros(*design_, *context_, quick_options());
  ASSERT_FALSE(result.snapshots.empty());
  EXPECT_EQ(result.snapshots.front().depth, 0);
  // Every snapshot's block rects lie inside its region.
  for (const LevelSnapshot& s : result.snapshots) {
    ASSERT_EQ(s.blocks.size(), s.block_rects.size());
    for (const Rect& r : s.block_rects) EXPECT_TRUE(s.region.contains(r, 1e-6));
  }
  // Depth-0 snapshot covers the die.
  EXPECT_NEAR(result.snapshots.front().region.area(),
              design_->die().w * design_->die().h, 1e-6);
}

TEST_F(HidapFlowTest, DeterministicForFixedSeed) {
  const PlacementResult a = place_macros(*design_, *context_, quick_options(9));
  const PlacementResult b = place_macros(*design_, *context_, quick_options(9));
  ASSERT_EQ(a.macros.size(), b.macros.size());
  for (std::size_t i = 0; i < a.macros.size(); ++i) {
    EXPECT_EQ(a.macros[i].cell, b.macros[i].cell);
    EXPECT_EQ(a.macros[i].rect, b.macros[i].rect);
    EXPECT_EQ(a.macros[i].orientation, b.macros[i].orientation);
  }
}

TEST_F(HidapFlowTest, SeedChangesLayout) {
  const PlacementResult a = place_macros(*design_, *context_, quick_options(1));
  const PlacementResult b = place_macros(*design_, *context_, quick_options(2));
  bool any_differs = false;
  for (std::size_t i = 0; i < a.macros.size(); ++i) {
    if (!(a.macros[i].rect == b.macros[i].rect)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST_F(HidapFlowTest, RuntimeIsRecorded) {
  const PlacementResult result = place_macros(*design_, *context_, quick_options());
  EXPECT_GT(result.runtime_seconds, 0.0);
  EXPECT_EQ(result.flow_name, "HiDaP");
}

void expect_identical(const PlacementResult& a, const PlacementResult& b) {
  ASSERT_EQ(a.macros.size(), b.macros.size());
  for (std::size_t i = 0; i < a.macros.size(); ++i) {
    EXPECT_EQ(a.macros[i].cell, b.macros[i].cell) << "macro " << i;
    EXPECT_EQ(a.macros[i].rect, b.macros[i].rect) << "macro " << i;
    EXPECT_EQ(a.macros[i].orientation, b.macros[i].orientation) << "macro " << i;
  }
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (std::size_t s = 0; s < a.snapshots.size(); ++s) {
    EXPECT_EQ(a.snapshots[s].level, b.snapshots[s].level) << "snapshot " << s;
    EXPECT_EQ(a.snapshots[s].depth, b.snapshots[s].depth) << "snapshot " << s;
    EXPECT_EQ(a.snapshots[s].blocks, b.snapshots[s].blocks) << "snapshot " << s;
    ASSERT_EQ(a.snapshots[s].block_rects.size(), b.snapshots[s].block_rects.size());
    for (std::size_t r = 0; r < a.snapshots[s].block_rects.size(); ++r) {
      EXPECT_EQ(a.snapshots[s].block_rects[r], b.snapshots[s].block_rects[r])
          << "snapshot " << s << " rect " << r;
    }
  }
}

TEST_F(HidapFlowTest, SchedulerThreadCountInvariance) {
  // Sibling-subtree anneals run as pool tasks; placements, snapshots and
  // their order must be byte-stable across lane caps (kForcedPoolLanes
  // guarantees the 8-lane run genuinely threads).
  ASSERT_EQ(ThreadPool::default_thread_count(), kForcedPoolLanes);
  HiDaPOptions serial = quick_options(5);
  serial.num_threads = 1;
  HiDaPOptions wide = quick_options(5);
  wide.num_threads = 8;
  const PlacementResult a = place_macros(*design_, *context_, serial);
  const PlacementResult b = place_macros(*design_, *context_, wide);
  expect_identical(a, b);
  HiDaPOptions mid = quick_options(5);
  mid.num_threads = 4;
  expect_identical(a, place_macros(*design_, *context_, mid));
}

TEST_F(HidapFlowTest, SchedulerMatchesSequentialOracle) {
  // parallel_levels = false runs the identical recursion as a plain
  // DFS -- the scheduler's differential oracle.
  HiDaPOptions scheduled = quick_options(7);
  scheduled.num_threads = 8;
  HiDaPOptions oracle = quick_options(7);
  oracle.parallel_levels = false;
  expect_identical(place_macros(*design_, *context_, oracle),
                   place_macros(*design_, *context_, scheduled));
}

TEST_F(HidapFlowTest, ShapeCurvesThreadCountIdentity) {
  // generate_shape_curves shards every depth rank over the pool; each
  // node seeds from its own index, so the curves are bit-identical at
  // any thread count.
  HiDaPOptions serial = quick_options(3);
  serial.num_threads = 1;
  HiDaPOptions wide = quick_options(3);
  wide.num_threads = 8;
  RecursiveFloorplanner a(*design_, context_->adjacency, context_->ht, context_->seq,
                          serial);
  RecursiveFloorplanner b(*design_, context_->adjacency, context_->ht, context_->seq,
                          wide);
  a.generate_shape_curves();
  b.generate_shape_curves();
  ASSERT_EQ(a.shape_curves().size(), b.shape_curves().size());
  std::size_t nonempty = 0;
  for (std::size_t i = 0; i < a.shape_curves().size(); ++i) {
    const auto& pa = a.shape_curves()[i].points();
    const auto& pb = b.shape_curves()[i].points();
    ASSERT_EQ(pa.size(), pb.size()) << "curve " << i;
    nonempty += !pa.empty();
    for (std::size_t p = 0; p < pa.size(); ++p) {
      EXPECT_EQ(pa[p].w, pb[p].w) << "curve " << i << " point " << p;
      EXPECT_EQ(pa[p].h, pb[p].h) << "curve " << i << " point " << p;
    }
  }
  EXPECT_GT(nonempty, 0u);
}

// `run` throws a HidapError coded InvalidRequest.
template <typename Run>
void expect_invalid_request(Run&& run) {
  try {
    run();
    ADD_FAILURE() << "no HidapError thrown";
  } catch (const HidapError& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidRequest) << e.what();
  }
}

TEST(HidapFlowErrors, NoMacrosRejected) {
  Design d("empty");
  d.add_cell(d.root(), "c", CellKind::Comb, 1.0);
  d.set_die(Die{10, 10});
  d.freeze();
  expect_invalid_request([&] { place_macros(d); });
}

TEST(HidapFlowErrors, EmptyDieRejected) {
  Design d("nodie");
  const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 4, 4, 8));
  d.add_cell(d.root(), "mem", CellKind::Macro, 0.0, m);
  d.freeze();
  expect_invalid_request([&] { place_macros(d); });
}

TEST(HidapFlowSmall, TwoMacroDesignWorks) {
  Design d("mini");
  const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 10, 8, 16));
  const HierId u = d.add_hier(d.root(), "u");
  const CellId m0 = d.add_cell(u, "m0", CellKind::Macro, 0.0, m);
  const CellId m1 = d.add_cell(u, "m1", CellKind::Macro, 0.0, m);
  // A register array between the macros so Gseq is non-trivial.
  std::vector<CellId> regs;
  for (int i = 0; i < 8; ++i) {
    regs.push_back(d.add_cell(u, "r[" + std::to_string(i) + "]", CellKind::Flop, 1.0));
  }
  for (const CellId r : regs) {
    const NetId n0 = d.add_net("a");
    d.set_driver(n0, m0, 10.0f, 4.0f);
    d.add_sink(n0, r);
    const NetId n1 = d.add_net("b");
    d.set_driver(n1, r);
    d.add_sink(n1, m1, 0.0f, 4.0f);
  }
  d.set_die(Die{60, 60});
  d.freeze();
  const PlacementResult result = place_macros(d, HiDaPOptions{});
  EXPECT_EQ(result.macros.size(), 2u);
  const PlacementCheck check = check_placement(d, result, Rect{0, 0, 60, 60});
  EXPECT_TRUE(check.all_macros_placed);
  EXPECT_TRUE(check.all_inside_die);
  EXPECT_LT(check.overlap_area, 1.0);
}

// A generated c1 variant whose seed-2 layout leaves a single-macro
// block's rectangle overflowing the die, so the corner snap put its
// macro past the die edge with no overlap anywhere. The final legality
// pass used to run only on halos or overlaps and returned it as is.
TEST(PlaceMacrosLegality, CornerSnapPastDieEdgeIsLegalized) {
  set_log_level(LogLevel::Warn);
  CircuitSpec spec = suite_circuit("c1", 0.002).spec;
  spec.seed = 5659712130755204248ULL;
  const Design design = generate_circuit(spec);
  const PlacementContext context(design);
  HiDaPOptions options;
  options.job.seed = 2;
  options.layout_anneal.moves_per_temperature = 160;
  options.layout_anneal.cooling = 0.85;
  options.layout_anneal.max_stagnant_temperatures = 5;
  options.shape_fp.anneal.moves_per_temperature = 80;
  options.shape_fp.anneal.cooling = 0.85;
  options.shape_fp.anneal.max_stagnant_temperatures = 4;
  const PlacementResult result = place_macros(design, context, options);
  const PlacementCheck check =
      check_placement(design, result, Rect{0, 0, design.die().w, design.die().h});
  EXPECT_TRUE(check.all_macros_placed);
  EXPECT_TRUE(check.all_inside_die);
  EXPECT_LE(check.overlap_area, 1e-6);
}

}  // namespace
}  // namespace hidap
