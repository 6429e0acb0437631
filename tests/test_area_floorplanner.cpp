// Bottom-up shape-curve packing tests (shape-curve generation, IV-A).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "floorplan/area_floorplanner.hpp"
#include "floorplan/polish_expression.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

TEST(ComposeCurve, MatchesManualComposition) {
  const std::vector<ShapeCurve> leaves = {ShapeCurve::for_rect(2, 1, false),
                                          ShapeCurve::for_rect(2, 1, false)};
  // "0 1 V": side by side -> 4 x 1.
  const ShapeCurve v = compose_curve(leaves, PolishExpression({0, 1, kOpV}));
  ASSERT_EQ(v.points().size(), 1u);
  EXPECT_EQ(v.points()[0], (Shape{4, 1}));
  // "0 1 H": stacked -> 2 x 2.
  const ShapeCurve h = compose_curve(leaves, PolishExpression({0, 1, kOpH}));
  ASSERT_EQ(h.points().size(), 1u);
  EXPECT_EQ(h.points()[0], (Shape{2, 2}));
}

TEST(PackShapeCurve, SingleLeafPassthrough) {
  const std::vector<ShapeCurve> leaves = {ShapeCurve::for_rect(3, 2)};
  const ShapeCurve c = pack_shape_curve(leaves);
  EXPECT_EQ(c, leaves[0]);
}

TEST(PackShapeCurve, TwoSquaresPackTightly) {
  const std::vector<ShapeCurve> leaves = {ShapeCurve::for_rect(2, 2),
                                          ShapeCurve::for_rect(2, 2)};
  AreaFloorplanOptions opt;
  opt.anneal.seed = 5;
  const ShapeCurve c = pack_shape_curve(leaves, opt);
  ASSERT_FALSE(c.empty());
  // Optimal packing is 4x2 = 8 (zero dead space).
  EXPECT_NEAR(c.min_area_shape()->area(), 8.0, 1e-9);
}

TEST(PackShapeCurve, FourMacrosNearOptimal) {
  // Four 4x2 macros: perfect packings of area 32 exist (e.g. 8x4).
  std::vector<ShapeCurve> leaves(4, ShapeCurve::for_rect(4, 2));
  AreaFloorplanOptions opt;
  opt.anneal.seed = 11;
  const ShapeCurve c = pack_shape_curve(leaves, opt);
  ASSERT_FALSE(c.empty());
  const double best = c.min_area_shape()->area();
  EXPECT_GE(best, 32.0 - 1e-9);
  EXPECT_LE(best, 32.0 * 1.15);  // within 15% of optimum
}

TEST(PackShapeCurve, MixedSizesRespectLowerBound) {
  std::vector<ShapeCurve> leaves = {
      ShapeCurve::for_rect(5, 3), ShapeCurve::for_rect(2, 2),
      ShapeCurve::for_rect(4, 1), ShapeCurve::for_rect(3, 3)};
  double area_sum = 0.0;
  for (const auto& l : leaves) area_sum += l.min_area_shape()->area();
  AreaFloorplanOptions opt;
  opt.anneal.seed = 13;
  const ShapeCurve c = pack_shape_curve(leaves, opt);
  ASSERT_FALSE(c.empty());
  EXPECT_GE(c.min_area_shape()->area() + 1e-9, area_sum);
  EXPECT_LE(c.min_area_shape()->area(), area_sum * 1.6);
}

TEST(PackShapeCurve, CurveOffersMultipleAspects) {
  std::vector<ShapeCurve> leaves(6, ShapeCurve::for_rect(3, 1));
  AreaFloorplanOptions opt;
  opt.anneal.seed = 17;
  opt.best_solutions_merged = 6;
  const ShapeCurve c = pack_shape_curve(leaves, opt);
  // A useful shape curve gives layout generation real choices.
  EXPECT_GE(c.points().size(), 2u);
}

// ---- incremental engine vs full-recompute oracle ---------------------------

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult curves_bit_equal(const ShapeCurve& a, const ShapeCurve& b) {
  if (a.points().size() != b.points().size()) {
    return ::testing::AssertionFailure()
           << "point counts differ: " << a.points().size() << " vs " << b.points().size();
  }
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    if (!bits_equal(a.points()[i].w, b.points()[i].w) ||
        !bits_equal(a.points()[i].h, b.points()[i].h)) {
      return ::testing::AssertionFailure() << "point " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// Random leaf sets over the curve kinds the packer sees: two-orientation
// rects, soft-area sweeps, single-point curves, and coarse-grid curves
// whose widths and heights tie across leaves.
std::vector<ShapeCurve> random_leaves(Rng& rng, int n) {
  std::vector<ShapeCurve> leaves;
  for (int i = 0; i < n; ++i) {
    switch (rng.next_int(0, 3)) {
      case 0:
        leaves.push_back(ShapeCurve::for_rect(rng.next_double(1, 40), rng.next_double(1, 40)));
        break;
      case 1:
        leaves.push_back(ShapeCurve::soft_area(rng.next_double(10, 2000), 0.25, 4.0,
                                               rng.next_int(1, 40)));
        break;
      case 2:
        leaves.push_back(ShapeCurve::for_rect(rng.next_double(1, 40), rng.next_double(1, 40),
                                              /*rotate=*/false));
        break;
      default: {
        ShapeCurve c;
        const int points = rng.next_int(1, 12);
        for (int p = 0; p < points; ++p) {
          c.add({static_cast<double>(rng.next_int(1, 8)),
                 static_cast<double>(rng.next_int(1, 8))});
        }
        leaves.push_back(c);
      }
    }
  }
  return leaves;
}

std::vector<ShapeCurve> random_leaves(Rng& rng) {
  return random_leaves(rng, rng.next_int(2, 14));
}

TEST(IncrementalCurveEval, RandomWalkMatchesFullRecomputeBitForBit) {
  Rng rng(0xc0ffee);
  for (int trial = 0; trial < 150; ++trial) {
    const std::vector<ShapeCurve> leaves = random_leaves(rng);
    const std::size_t cap = static_cast<std::size_t>(rng.next_int(2, 32));
    const PolishExpression initial =
        PolishExpression::initial(static_cast<int>(leaves.size()));
    IncrementalCurveEval eval(leaves, cap, initial);
    ASSERT_TRUE(bits_equal(eval.cost(), root_min_area(compose_curve(leaves, initial, cap))));
    Rng move_rng(static_cast<std::uint64_t>(trial) + 1);
    const std::function<void(PolishExpression&)> mutate = [&move_rng](PolishExpression& e) {
      for (int tries = 0; tries < 8; ++tries) {
        if (e.perturb(move_rng)) break;
      }
    };
    PolishExpression committed = initial;
    for (int step = 0; step < 120; ++step) {
      // The proposal's cost is the oracle's cost of the same expression.
      PolishExpression expected = committed;
      Rng probe = move_rng;
      for (int tries = 0; tries < 8; ++tries) {
        if (expected.perturb(probe)) break;
      }
      const double cost = eval.propose(mutate);
      ASSERT_TRUE(bits_equal(cost, root_min_area(compose_curve(leaves, expected, cap))))
          << "trial " << trial << " step " << step;
      if (rng.next_bool(0.7)) {
        eval.commit();
        committed = expected;
      } else {
        eval.rollback();
      }
      ASSERT_EQ(eval.expression(), committed);
      ASSERT_TRUE(curves_bit_equal(eval.curve(), compose_curve(leaves, committed, cap)))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(PackShapeCurve, IncrementalAndOracleMergeTheSameCurve) {
  Rng rng(0xfeed);
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<ShapeCurve> leaves = random_leaves(rng);
    AreaFloorplanOptions opt;
    opt.anneal.seed = static_cast<std::uint64_t>(trial) * 7 + 1;
    opt.anneal.moves_per_temperature = 30;
    opt.anneal.cooling = 0.8;
    opt.curve_points = static_cast<std::size_t>(rng.next_int(4, 32));
    opt.anneal.incremental = true;
    const ShapeCurve incremental = pack_shape_curve(leaves, opt);
    opt.anneal.incremental = false;
    const ShapeCurve oracle = pack_shape_curve(leaves, opt);
    ASSERT_FALSE(incremental.empty());
    ASSERT_TRUE(curves_bit_equal(incremental, oracle)) << "trial " << trial;
  }
}

// Two- and three-leaf problems: the incremental run ends once it has
// proposed all 4 or 36 expressions, the oracle runs the whole schedule,
// and both merge the same curve.
TEST(PackShapeCurve, ExhaustedTinyProblemsMergeTheOraclesCurve) {
  obs::Counter& exhausted = obs::default_registry().counter("sa.exhausted_runs");
  obs::Counter& moves = obs::default_registry().counter("sa.moves_proposed");
  Rng rng(0xabc);
  for (int n = 2; n <= 3; ++n) {
    for (int seed = 1; seed <= 60; ++seed) {
      const std::vector<ShapeCurve> leaves = random_leaves(rng, n);
      AreaFloorplanOptions opt;
      opt.anneal.seed = static_cast<std::uint64_t>(seed);
      opt.curve_points = static_cast<std::size_t>(rng.next_int(4, 32));
      opt.anneal.incremental = true;
      const std::uint64_t exhausted0 = exhausted.value(), moves0 = moves.value();
      const ShapeCurve incremental = pack_shape_curve(leaves, opt);
      const std::uint64_t exhausted1 = exhausted.value(), moves1 = moves.value();
      opt.anneal.incremental = false;
      const ShapeCurve oracle = pack_shape_curve(leaves, opt);
      ASSERT_TRUE(curves_bit_equal(incremental, oracle)) << "n " << n << " seed " << seed;
      EXPECT_EQ(exhausted1 - exhausted0, 1u) << "n " << n << " seed " << seed;
      EXPECT_EQ(exhausted.value(), exhausted1) << "the oracle never exits early";
      EXPECT_LT(moves1 - moves0, moves.value() - moves1) << "n " << n << " seed " << seed;
    }
  }
}

TEST(PackShapeCurve, EmptyInput) {
  EXPECT_TRUE(pack_shape_curve({}).empty());
}

}  // namespace
}  // namespace hidap
