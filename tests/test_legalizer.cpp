// Macro legalizer tests: overlap removal, halo clearance, minimal
// displacement, fixed macros, die confinement.

#include <gtest/gtest.h>

#include "floorplan/legalizer.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

Design make_design(int macro_count, double die = 200.0) {
  Design d("legal");
  const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 20, 15, 16));
  for (int i = 0; i < macro_count; ++i) {
    d.add_cell(d.root(), "m" + std::to_string(i), CellKind::Macro, 0.0, m);
  }
  d.set_die(Die{die, die});
  d.freeze();
  return d;
}

std::vector<MacroPlacement> stacked(const Design& d, Point at) {
  std::vector<MacroPlacement> out;
  for (const CellId c : d.macros()) {
    out.push_back({c, Rect{at.x, at.y, 20, 15}, Orientation::R0});
  }
  return out;
}

TEST(Legalizer, RemovesFullStack) {
  const Design d = make_design(6);
  std::vector<MacroPlacement> macros = stacked(d, {50, 50});
  const LegalizeStats stats = legalize_macros(d, macros);
  EXPECT_GT(stats.overlap_before, 0.0);
  EXPECT_NEAR(stats.overlap_after, 0.0, 1e-6);
  EXPECT_EQ(stats.unresolved, 0);
  EXPECT_GE(stats.moved, 5);  // all but (up to) one must move
}

TEST(Legalizer, KeepsMacrosInsideDie) {
  const Design d = make_design(8, 120.0);
  std::vector<MacroPlacement> macros = stacked(d, {110, 110});  // off the edge
  legalize_macros(d, macros);
  const Rect die{0, 0, 120, 120};
  for (const MacroPlacement& m : macros) {
    EXPECT_TRUE(die.contains(m.rect, 1e-6))
        << m.rect.x << "," << m.rect.y << " " << m.rect.w << "x" << m.rect.h;
  }
}

TEST(Legalizer, LegalInputUntouched) {
  const Design d = make_design(3);
  std::vector<MacroPlacement> macros = {
      {d.macros()[0], Rect{0, 0, 20, 15}, Orientation::R0},
      {d.macros()[1], Rect{50, 0, 20, 15}, Orientation::R0},
      {d.macros()[2], Rect{100, 0, 20, 15}, Orientation::R0},
  };
  const auto before = macros;
  const LegalizeStats stats = legalize_macros(d, macros);
  EXPECT_EQ(stats.moved, 0);
  EXPECT_DOUBLE_EQ(stats.total_displacement, 0.0);
  for (std::size_t i = 0; i < macros.size(); ++i) {
    EXPECT_EQ(macros[i].rect, before[i].rect);
  }
}

TEST(Legalizer, HaloEnforcesClearance) {
  const Design d = make_design(2);
  std::vector<MacroPlacement> macros = {
      {d.macros()[0], Rect{50, 50, 20, 15}, Orientation::R0},
      {d.macros()[1], Rect{71, 50, 20, 15}, Orientation::R0},  // 1 um gap
  };
  LegalizeOptions opt;
  opt.halo = 5.0;
  legalize_macros(d, macros, opt);
  EXPECT_DOUBLE_EQ(total_overlap(macros, 5.0), 0.0);
  // Gap must now be at least the halo.
  const double gap = macros[1].rect.x - macros[0].rect.xmax();
  EXPECT_GE(std::abs(gap), 5.0 - 1e-6);
}

TEST(Legalizer, FixedMacrosNeverMove) {
  const Design d = make_design(4);
  std::vector<MacroPlacement> macros = stacked(d, {80, 80});
  LegalizeOptions opt;
  opt.fixed = {d.macros()[0]};
  const Rect fixed_rect = macros[0].rect;
  legalize_macros(d, macros, opt);
  EXPECT_EQ(macros[0].rect, fixed_rect);
  EXPECT_NEAR(total_overlap(macros, 0.0), 0.0, 1e-6);
}

TEST(Legalizer, DisplacementIsModest) {
  // Random jittered placement with small overlaps: displacement should
  // stay well below the die size.
  const Design d = make_design(12, 400.0);
  Rng rng(7);
  std::vector<MacroPlacement> macros;
  for (const CellId c : d.macros()) {
    macros.push_back({c,
                      Rect{rng.next_double(0, 350), rng.next_double(0, 350), 20, 15},
                      Orientation::R0});
  }
  const LegalizeStats stats = legalize_macros(d, macros);
  EXPECT_NEAR(stats.overlap_after, 0.0, 1e-6);
  if (stats.moved > 0) {
    EXPECT_LT(stats.total_displacement / stats.moved, 120.0);
  }
}

TEST(Legalizer, TotalOverlapHelper) {
  const Design d = make_design(2);
  std::vector<MacroPlacement> macros = {
      {d.macros()[0], Rect{0, 0, 20, 15}, Orientation::R0},
      {d.macros()[1], Rect{10, 0, 20, 15}, Orientation::R0},
  };
  EXPECT_DOUBLE_EQ(total_overlap(macros), 10.0 * 15.0);
  EXPECT_GT(total_overlap(macros, 2.0), 10.0 * 15.0);
}

}  // namespace
}  // namespace hidap
