// Suite matrix: every paper circuit c1..c8 (at tiny scale) goes through
// generation, analysis and HiDaP placement, asserting the invariants
// that must hold on *every* topology the generator produces -- the
// parameterized equivalent of running the whole benchmark suite.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/hidap.hpp"
#include "floorplan/legalizer.hpp"
#include "gen/suite.hpp"
#include "netlist/def_io.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

class SuiteMatrix : public ::testing::TestWithParam<const char*> {
 protected:
  static HiDaPOptions quick() {
    HiDaPOptions o;
    o.layout_anneal.moves_per_temperature = 50;
    o.layout_anneal.max_stagnant_temperatures = 3;
    o.shape_fp.anneal.moves_per_temperature = 40;
    o.shape_fp.anneal.max_stagnant_temperatures = 3;
    return o;
  }
};

TEST_P(SuiteMatrix, GeneratePlaceVerify) {
  set_log_level(LogLevel::Warn);
  const SuiteEntry entry = suite_circuit(GetParam(), 0.003);
  const Design design = generate_circuit(entry.spec);

  // Generation invariants.
  ASSERT_TRUE(design.validate().empty()) << design.validate();
  EXPECT_EQ(design.macro_count(), static_cast<std::size_t>(entry.paper_macros));
  EXPECT_GT(design.die().area(), 0.0);

  // Analysis invariants.
  const PlacementContext context(design);
  EXPECT_GT(context.seq.node_count(), 10u);
  EXPECT_GT(context.seq.edge_count(), 10u);
  EXPECT_EQ(context.ht.macro_count(context.ht.root()), entry.paper_macros);
  EXPECT_NEAR(context.ht.area(context.ht.root()), design.total_cell_area(),
              design.total_cell_area() * 1e-9);

  // Placement invariants.
  const PlacementResult result = place_macros(design, context, quick());
  const Rect die{0, 0, design.die().w, design.die().h};
  const PlacementCheck check = check_placement(design, result, die);
  EXPECT_TRUE(check.all_macros_placed) << GetParam();
  EXPECT_TRUE(check.all_inside_die) << GetParam();
  EXPECT_NEAR(total_overlap(result.macros, 0.0), 0.0, 1e-6) << GetParam();
  EXPECT_FALSE(result.snapshots.empty());
}

TEST_P(SuiteMatrix, PlacementDefsAreThreadAndOracleIdentical) {
  // On every Table II circuit the emitted DEF must be byte-identical with
  // the pool fanned out and with the full-recompute evaluators of both
  // annealers (the incremental engines' oracles) -- placement bytes are
  // the strongest observable the pipeline has.
  set_log_level(LogLevel::Warn);
  const SuiteEntry entry = suite_circuit(GetParam(), 0.003);
  const Design design = generate_circuit(entry.spec);
  const PlacementContext context(design);

  const auto def_bytes = [&](bool incremental, int threads) {
    HiDaPOptions o = quick();
    o.layout_anneal.incremental = incremental;
    o.shape_fp.anneal.incremental = incremental;
    o.num_threads = threads;
    const PlacementResult result = place_macros(design, context, o);
    std::ostringstream out;
    write_def(design, result, out);
    return out.str();
  };

  const std::string incremental_1t = def_bytes(true, 1);
  EXPECT_EQ(def_bytes(true, 8), incremental_1t) << GetParam();
  EXPECT_EQ(def_bytes(false, 1), incremental_1t) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, SuiteMatrix,
                         ::testing::Values("c1", "c2", "c3", "c4", "c5", "c6", "c7",
                                           "c8"),
                         [](const auto& info) { return std::string(info.param); });

}  // namespace
}  // namespace hidap
