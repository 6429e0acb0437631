// Shape-curve tests (paper Fig. 4): Pareto maintenance, composition
// algebra, fitting queries. Includes parameterized property sweeps and
// the sweep-vs-pairwise composition differential suite (the sweep
// composers must reproduce the pairwise oracle's point lists bit for
// bit, or SA accept/reject streams would diverge from the seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "geometry/shape_curve.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

bool is_pareto_sorted(const ShapeCurve& c) {
  const auto& pts = c.points();
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (!(pts[i - 1].w < pts[i].w)) return false;
    if (!(pts[i - 1].h > pts[i].h)) return false;
  }
  return true;
}

// Value-returning wrappers over the write-into composers.
ShapeCurve horizontal(const ShapeCurve& a, const ShapeCurve& b) {
  ShapeCurve out;
  ShapeCurve::compose_horizontal(a, b, out);
  return out;
}

ShapeCurve vertical(const ShapeCurve& a, const ShapeCurve& b) {
  ShapeCurve out;
  ShapeCurve::compose_vertical(a, b, out);
  return out;
}

// Bit equality, stricter than operator== (distinguishes -0.0 from 0.0).
::testing::AssertionResult curves_bit_equal(const ShapeCurve& a, const ShapeCurve& b) {
  if (a.points().size() != b.points().size()) {
    return ::testing::AssertionFailure()
           << "point counts differ: " << a.points().size() << " vs " << b.points().size();
  }
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    const Shape& pa = a.points()[i];
    const Shape& pb = b.points()[i];
    if (std::bit_cast<std::uint64_t>(pa.w) != std::bit_cast<std::uint64_t>(pb.w) ||
        std::bit_cast<std::uint64_t>(pa.h) != std::bit_cast<std::uint64_t>(pb.h)) {
      return ::testing::AssertionFailure()
             << "point " << i << " differs: (" << pa.w << ", " << pa.h << ") vs (" << pb.w
             << ", " << pb.h << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ShapeCurve, RectCurveHasBothRotations) {
  const ShapeCurve c = ShapeCurve::for_rect(4, 2);
  ASSERT_EQ(c.points().size(), 2u);
  EXPECT_EQ(c.points()[0], (Shape{2, 4}));
  EXPECT_EQ(c.points()[1], (Shape{4, 2}));
}

TEST(ShapeCurve, SquareRectCollapsesToOnePoint) {
  const ShapeCurve c = ShapeCurve::for_rect(3, 3);
  EXPECT_EQ(c.points().size(), 1u);
}

TEST(ShapeCurve, AddMaintainsParetoFrontier) {
  ShapeCurve c;
  c.add({4, 4});
  c.add({2, 6});
  c.add({6, 2});
  c.add({5, 5});  // dominated by (4,4)
  c.add({3, 5});
  EXPECT_TRUE(is_pareto_sorted(c));
  for (const Shape& s : c.points()) EXPECT_FALSE(s == (Shape{5, 5}));
  EXPECT_EQ(c.points().size(), 4u);
}

TEST(ShapeCurve, DominatedInsertIsNoop) {
  ShapeCurve c;
  c.add({2, 2});
  c.add({3, 3});
  EXPECT_EQ(c.points().size(), 1u);
  c.add({2, 3});
  EXPECT_EQ(c.points().size(), 1u);
}

TEST(ShapeCurve, ComposeHorizontalAddsWidths) {
  const ShapeCurve a = ShapeCurve::for_rect(2, 1);
  const ShapeCurve b = ShapeCurve::for_rect(1, 1, false);
  const ShapeCurve c = horizontal(a, b);
  // (1,2)+(1,1) -> (2,2); (2,1)+(1,1) -> (3,1)
  EXPECT_TRUE(c.fits(2, 2));
  EXPECT_TRUE(c.fits(3, 1));
  EXPECT_FALSE(c.fits(1.9, 10));
}

TEST(ShapeCurve, ComposeVerticalAddsHeights) {
  const ShapeCurve a = ShapeCurve::for_rect(2, 1);
  const ShapeCurve b = ShapeCurve::for_rect(2, 1);
  const ShapeCurve c = vertical(a, b);
  EXPECT_TRUE(c.fits(2, 2));   // stacked flat
  EXPECT_TRUE(c.fits(1, 4));   // stacked upright
  EXPECT_FALSE(c.fits(1.5, 2.5));
}

TEST(ShapeCurve, FitsIsMonotone) {
  const ShapeCurve c = ShapeCurve::for_rect(4, 2);
  EXPECT_TRUE(c.fits(4, 2));
  EXPECT_TRUE(c.fits(5, 3));
  EXPECT_FALSE(c.fits(3.9, 1.9));
}

TEST(ShapeCurve, MinWidthForHeight) {
  ShapeCurve c;
  c.add({2, 6});
  c.add({4, 4});
  c.add({6, 2});
  EXPECT_EQ(c.min_width_for_height(6).value(), 2.0);
  EXPECT_EQ(c.min_width_for_height(4.5).value(), 4.0);
  EXPECT_EQ(c.min_width_for_height(2).value(), 6.0);
  EXPECT_FALSE(c.min_width_for_height(1.5).has_value());
}

TEST(ShapeCurve, MinHeightForWidth) {
  ShapeCurve c;
  c.add({2, 6});
  c.add({4, 4});
  c.add({6, 2});
  EXPECT_EQ(c.min_height_for_width(2).value(), 6.0);
  EXPECT_EQ(c.min_height_for_width(5).value(), 4.0);
  EXPECT_EQ(c.min_height_for_width(100).value(), 2.0);
  EXPECT_FALSE(c.min_height_for_width(1).has_value());
}

TEST(ShapeCurve, SoftAreaCurveCoversAspects) {
  const ShapeCurve c = ShapeCurve::soft_area(100.0, 0.25, 4.0, 9);
  EXPECT_TRUE(is_pareto_sorted(c));
  for (const Shape& s : c.points()) EXPECT_NEAR(s.area(), 100.0, 1e-6);
  // Extremes: aspect 1/4 and 4.
  EXPECT_NEAR(c.points().front().w, std::sqrt(100.0 / 4.0), 1e-6);
}

TEST(ShapeCurve, PruneKeepsEndpoints) {
  ShapeCurve c;
  for (int i = 1; i <= 50; ++i) c.add({double(i), 51.0 - i});
  c.prune(8);
  EXPECT_LE(c.points().size(), 8u);
  EXPECT_EQ(c.points().front().w, 1.0);
  EXPECT_EQ(c.points().back().w, 50.0);
  EXPECT_TRUE(is_pareto_sorted(c));
}

TEST(ShapeCurve, MergeIsParetoUnion) {
  ShapeCurve a = ShapeCurve::for_rect(4, 2);
  const ShapeCurve b = ShapeCurve::for_rect(3, 3);
  a.merge(b);
  EXPECT_TRUE(is_pareto_sorted(a));
  EXPECT_TRUE(a.fits(3, 3));
  EXPECT_TRUE(a.fits(2, 4));
}

// ---- sweep vs pairwise composition differential ---------------------------

// Reference O(p_a * p_b) composers (the original implementation): every
// point pair, Pareto-filtered by add(). The differential oracle for the
// sweep composers.
ShapeCurve compose_horizontal_pairwise(const ShapeCurve& a, const ShapeCurve& b) {
  ShapeCurve out;
  for (const Shape& sa : a.points()) {
    for (const Shape& sb : b.points()) out.add({sa.w + sb.w, std::max(sa.h, sb.h)});
  }
  return out;
}

ShapeCurve compose_vertical_pairwise(const ShapeCurve& a, const ShapeCurve& b) {
  ShapeCurve out;
  for (const Shape& sa : a.points()) {
    for (const Shape& sb : b.points()) out.add({std::max(sa.w, sb.w), sa.h + sb.h});
  }
  return out;
}

// Random curve zoo, biased toward the degenerate shapes the sweep's edge
// handling must get right: empty, single point, two curves sharing
// heights (tie levels), near-duplicate widths.
ShapeCurve random_curve(Rng& rng) {
  switch (rng.next_int(0, 4)) {
    case 0:
      return ShapeCurve{};
    case 1:
      return ShapeCurve::for_rect(rng.next_double(0.5, 40), rng.next_double(0.5, 40),
                                  /*rotate=*/false);  // single point
    case 2:
      return ShapeCurve::for_rect(rng.next_double(0.5, 40), rng.next_double(0.5, 40));
    case 3:
      return ShapeCurve::soft_area(rng.next_double(10, 2000), 0.25, 4.0,
                                   rng.next_int(1, 24));
    default: {
      ShapeCurve c;
      const int n = rng.next_int(1, 24);
      for (int i = 0; i < n; ++i) {
        // Coarse grid: frequent exact ties in both coordinates.
        c.add({static_cast<double>(rng.next_int(1, 12)),
               static_cast<double>(rng.next_int(1, 12))});
      }
      return c;
    }
  }
}

TEST(ShapeCurveDifferential, SweepComposeMatchesPairwiseOracleBitForBit) {
  Rng rng(0x5eedc0de);
  for (int trial = 0; trial < 3000; ++trial) {
    const ShapeCurve a = random_curve(rng);
    const ShapeCurve b = random_curve(rng);
    const ShapeCurve h = horizontal(a, b);
    const ShapeCurve v = vertical(a, b);
    ASSERT_TRUE(is_pareto_sorted(h));
    ASSERT_TRUE(is_pareto_sorted(v));
    ASSERT_TRUE(curves_bit_equal(h, compose_horizontal_pairwise(a, b)))
        << "horizontal, trial " << trial;
    ASSERT_TRUE(curves_bit_equal(v, compose_vertical_pairwise(a, b)))
        << "vertical, trial " << trial;
  }
}

TEST(ShapeCurveDifferential, SweepComposeTieHeightsAcrossCurves) {
  // Both curves hold points at the same height levels: the sweep's
  // tie-advance (retire both pointers at once) must fire.
  ShapeCurve a, b;
  a.add({1, 8});
  a.add({2, 5});
  a.add({6, 2});
  b.add({3, 8});
  b.add({4, 5});
  b.add({5, 3});
  for (auto [sweep, pairwise] :
       {std::pair{horizontal(a, b),
                  compose_horizontal_pairwise(a, b)},
        std::pair{vertical(a, b),
                  compose_vertical_pairwise(a, b)}}) {
    EXPECT_TRUE(curves_bit_equal(sweep, pairwise));
  }
}

TEST(ShapeCurveDifferential, SweepComposeRoundingCollisionKeepsLowerPoint) {
  // Widths 1 and 1+2^-52 both round to 2^54 when added to it, so two
  // distinct pairs land on the same composed width; the frontier must
  // keep only the lower point, exactly like the pairwise oracle.
  ShapeCurve a;
  a.add({1.0, 10.0});
  a.add({1.0 + 0x1p-52, 5.0});
  const ShapeCurve b = ShapeCurve::for_rect(0x1p54, 1.0, /*rotate=*/false);
  const ShapeCurve sweep = horizontal(a, b);
  ASSERT_TRUE(curves_bit_equal(sweep, compose_horizontal_pairwise(a, b)));
  ASSERT_EQ(sweep.points().size(), 1u);
  EXPECT_EQ(sweep.points()[0], (Shape{0x1p54, 5.0}));

  // Transposed case for the vertical sweep (height sums collide).
  ShapeCurve c;
  c.add({5.0, 1.0 + 0x1p-52});
  c.add({10.0, 1.0});
  const ShapeCurve d = ShapeCurve::for_rect(1.0, 0x1p54, /*rotate=*/false);
  const ShapeCurve vsweep = vertical(c, d);
  ASSERT_TRUE(curves_bit_equal(vsweep, compose_vertical_pairwise(c, d)));
  ASSERT_EQ(vsweep.points().size(), 1u);
}

TEST(ShapeCurveDifferential, MergeMatchesPerPointAddOracleBitForBit) {
  Rng rng(0xa11ce);
  for (int trial = 0; trial < 2000; ++trial) {
    const ShapeCurve a = random_curve(rng);
    const ShapeCurve b = random_curve(rng);
    ShapeCurve linear = a;
    linear.merge(b);
    ShapeCurve oracle = a;
    for (const Shape& s : b.points()) oracle.add(s);
    ASSERT_TRUE(is_pareto_sorted(linear));
    ASSERT_TRUE(curves_bit_equal(linear, oracle)) << "trial " << trial;
  }
}

TEST(ShapeCurveDifferential, ComposeIntoReusedCurveMatchesPairwiseOracle) {
  // One output curve reused across every trial, as a slicing slot is:
  // whatever the previous composition left in it (more points, fewer,
  // none) must not leak into the next result.
  Rng rng(0x5107);
  ShapeCurve out;
  for (int trial = 0; trial < 3000; ++trial) {
    const ShapeCurve a = random_curve(rng);
    const ShapeCurve b = random_curve(rng);
    ShapeCurve::compose_horizontal(a, b, out);
    ASSERT_TRUE(curves_bit_equal(out, compose_horizontal_pairwise(a, b)))
        << "horizontal, trial " << trial;
    ShapeCurve::compose_vertical(a, b, out);
    ASSERT_TRUE(curves_bit_equal(out, compose_vertical_pairwise(a, b)))
        << "vertical, trial " << trial;
  }
}

TEST(ShapeCurveDifferential, InPlacePruneMatchesCopyingOracle) {
  // The copying prune it replaced: gather the spread indices into a new
  // list, skipping repeats.
  const auto prune_copying = [](const ShapeCurve& c, std::size_t max_points) {
    const std::vector<Shape>& pts = c.points();
    if (pts.size() <= max_points || max_points < 2) return c;
    ShapeCurve kept;
    const std::size_t n = pts.size();
    for (std::size_t i = 0; i < max_points; ++i) {
      const Shape& s = pts[i * (n - 1) / (max_points - 1)];
      if (kept.empty() || !(kept.points().back() == s)) kept.add(s);
    }
    return kept;
  };
  Rng rng(0x9e7);
  for (int trial = 0; trial < 3000; ++trial) {
    // Compositions reach the long frontiers prune exists to cap.
    const ShapeCurve a = random_curve(rng);
    const ShapeCurve b = random_curve(rng);
    ShapeCurve c = rng.next_bool(0.5) ? horizontal(a, b) : vertical(a, b);
    const auto cap = static_cast<std::size_t>(rng.next_int(0, 30));
    const ShapeCurve oracle = prune_copying(c, cap);
    c.prune(cap);
    ASSERT_TRUE(curves_bit_equal(c, oracle)) << "trial " << trial << " cap " << cap;
  }
}

// ---- parameterized property sweep over random curves ---------------------

class ShapeCurveProperty : public ::testing::TestWithParam<int> {};

TEST_P(ShapeCurveProperty, RandomAddsKeepInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  ShapeCurve c;
  for (int i = 0; i < 200; ++i) {
    c.add({rng.next_double(0.5, 50.0), rng.next_double(0.5, 50.0)});
    ASSERT_TRUE(is_pareto_sorted(c));
  }
  // Every added point must be fittable at its own size or dominated by a
  // smaller point -- both imply fits(w+eps, h+eps).
  const auto ms = c.min_area_shape();
  ASSERT_TRUE(ms.has_value());
  EXPECT_TRUE(c.fits(ms->w, ms->h));
}

TEST_P(ShapeCurveProperty, CompositionContainsSumOfMinAreas) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 5);
  ShapeCurve a, b;
  for (int i = 0; i < 10; ++i) {
    a.add({rng.next_double(1, 20), rng.next_double(1, 20)});
    b.add({rng.next_double(1, 20), rng.next_double(1, 20)});
  }
  for (const ShapeCurve& c :
       {horizontal(a, b), vertical(a, b)}) {
    ASSERT_TRUE(is_pareto_sorted(c));
    const double min_area = c.min_area_shape()->area();
    // The composition cannot beat the sum of the children's min areas.
    EXPECT_GE(min_area + 1e-9,
              a.min_area_shape()->area() + b.min_area_shape()->area());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeCurveProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace hidap
