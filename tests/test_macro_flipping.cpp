// Macro-flipping tests: orientation choice reduces pin-level HPWL and
// never increases it; footprints are preserved. The indexed evaluator is
// checked bit for bit against the reference below, which rescans every
// net and re-absorbs every fixed endpoint per orientation trial.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <unordered_map>

#include "core/macro_flipping.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/suite.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

// --- Reference: the per-call net scan flip_macros ran before the
// design-level MacroNets index.

std::array<Orientation, 4> reference_candidates(Orientation current) {
  switch (current) {
    case Orientation::R0:
    case Orientation::MX:
    case Orientation::MY:
    case Orientation::R180:
      return {Orientation::R0, Orientation::MX, Orientation::MY, Orientation::R180};
    default:
      return {Orientation::R90, Orientation::MX90, Orientation::MY90, Orientation::R270};
  }
}

class ReferenceFlipEvaluator {
 public:
  ReferenceFlipEvaluator(const Design& design, const HierTree& ht,
                         const std::vector<Rect>& region,
                         const std::vector<std::uint8_t>& region_valid,
                         std::vector<MacroPlacement>& macros)
      : design_(design), ht_(ht), region_(region), region_valid_(region_valid),
        macros_(macros) {
    for (std::size_t i = 0; i < macros.size(); ++i) {
      placement_of_[macros[i].cell] = static_cast<int>(i);
    }
    for (std::size_t n = 0; n < design.net_count(); ++n) {
      const std::span<const NetPin> pins = design.pins(static_cast<NetId>(n));
      const bool touches_macro = std::any_of(pins.begin(), pins.end(), [&](const NetPin& p) {
        return design.cell(p.cell).kind == CellKind::Macro;
      });
      if (!touches_macro) continue;
      MacroNet mn;
      auto classify = [&](const NetPin& p) {
        const Cell& c = design.cell(p.cell);
        if (c.kind == CellKind::Macro) {
          const auto it = placement_of_.find(p.cell);
          if (it != placement_of_.end()) {
            mn.macro_pins.push_back({it->second, Point{p.dx, p.dy}});
            return;
          }
        }
        mn.fixed_points.push_back(endpoint_position(p));
      };
      for (const NetPin& p : pins) classify(p);
      if (mn.macro_pins.empty()) continue;
      const std::size_t idx = macro_nets_.size();
      macro_nets_.push_back(std::move(mn));
      for (const auto& [pl, off] : macro_nets_.back().macro_pins) {
        nets_of_macro_[pl].push_back(idx);
      }
    }
  }

  double total_hpwl() const {
    double sum = 0.0;
    for (std::size_t i = 0; i < macro_nets_.size(); ++i) sum += net_hpwl(i);
    return sum;
  }

  double macro_hpwl(int pl, Orientation o) const {
    const Orientation saved = macros_[static_cast<std::size_t>(pl)].orientation;
    macros_[static_cast<std::size_t>(pl)].orientation = o;
    double sum = 0.0;
    const auto it = nets_of_macro_.find(pl);
    if (it != nets_of_macro_.end()) {
      for (const std::size_t n : it->second) sum += net_hpwl(n);
    }
    macros_[static_cast<std::size_t>(pl)].orientation = saved;
    return sum;
  }

 private:
  struct MacroNet {
    std::vector<std::pair<int, Point>> macro_pins;
    std::vector<Point> fixed_points;
  };

  Point endpoint_position(const NetPin& p) const {
    const Cell& c = design_.cell(p.cell);
    if (c.fixed_pos) return *c.fixed_pos;
    HtNodeId walk = ht_.node_of_cell(p.cell);
    while (true) {
      if (region_valid_[static_cast<std::size_t>(walk)]) {
        return region_[static_cast<std::size_t>(walk)].center();
      }
      if (walk == ht_.root()) return Point{};
      walk = ht_.node(walk).parent;
    }
  }

  Point macro_pin_position(int pl, const Point& offset) const {
    const MacroPlacement& m = macros_[static_cast<std::size_t>(pl)];
    const bool swapped = swaps_dimensions(m.orientation);
    const double w0 = swapped ? m.rect.h : m.rect.w;
    const double h0 = swapped ? m.rect.w : m.rect.h;
    const Point local = transform_pin(offset, w0, h0, m.orientation);
    return {m.rect.x + local.x, m.rect.y + local.y};
  }

  double net_hpwl(std::size_t n) const {
    const MacroNet& mn = macro_nets_[n];
    double xmin = std::numeric_limits<double>::max(), xmax = -xmin;
    double ymin = xmin, ymax = -xmin;
    auto absorb = [&](const Point& p) {
      xmin = std::min(xmin, p.x);
      xmax = std::max(xmax, p.x);
      ymin = std::min(ymin, p.y);
      ymax = std::max(ymax, p.y);
    };
    for (const Point& p : mn.fixed_points) absorb(p);
    for (const auto& [pl, off] : mn.macro_pins) absorb(macro_pin_position(pl, off));
    if (xmax < xmin) return 0.0;
    return (xmax - xmin) + (ymax - ymin);
  }

  const Design& design_;
  const HierTree& ht_;
  const std::vector<Rect>& region_;
  const std::vector<std::uint8_t>& region_valid_;
  std::vector<MacroPlacement>& macros_;
  std::vector<MacroNet> macro_nets_;
  std::unordered_map<int, std::vector<std::size_t>> nets_of_macro_;
  std::unordered_map<CellId, int> placement_of_;
};

FlippingStats reference_flip_macros(const Design& design, const HierTree& ht,
                                    const std::vector<Rect>& region,
                                    const std::vector<std::uint8_t>& region_valid,
                                    std::vector<MacroPlacement>& macros, int max_passes,
                                    const std::set<CellId>* skip) {
  FlippingStats stats;
  ReferenceFlipEvaluator eval(design, ht, region, region_valid, macros);
  stats.hpwl_before = eval.total_hpwl();
  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    int flips_this_pass = 0;
    for (std::size_t i = 0; i < macros.size(); ++i) {
      if (skip && skip->count(macros[i].cell)) continue;
      const Orientation current = macros[i].orientation;
      Orientation best = current;
      double best_cost = eval.macro_hpwl(static_cast<int>(i), current);
      for (const Orientation o : reference_candidates(current)) {
        if (o == current) continue;
        const double cost = eval.macro_hpwl(static_cast<int>(i), o);
        if (cost + 1e-9 < best_cost) {
          best_cost = cost;
          best = o;
        }
      }
      if (best != current) {
        macros[i].orientation = best;
        ++flips_this_pass;
      }
    }
    stats.flips += flips_this_pass;
    if (flips_this_pass == 0) break;
  }
  stats.hpwl_after = eval.total_hpwl();
  return stats;
}

// One macro with its output pin on the right edge; the consumer sits on
// the LEFT of the macro, so mirroring about Y must pay off.
struct FlipFixture {
  static Design make_design() {
    Design d("top");
    MacroDef def;
    def.name = "M";
    def.w = 10;
    def.h = 6;
    def.pins.push_back({"Q", {10.0, 3.0}, 32, true});  // right edge
    const MacroDefId id = d.library().add(def);
    const CellId macro = d.add_cell(d.root(), "mem", CellKind::Macro, 0.0, id);
    const CellId port = d.add_cell(d.root(), "sink", CellKind::PortOut, 0.0);
    d.set_fixed_pos(port, Point{0.0, 23.0});  // west of the macro
    const NetId n = d.add_net("q");
    d.set_driver(n, macro, 10.0f, 3.0f);
    d.add_sink(n, port);
    d.set_die(Die{100, 100});
    d.freeze();
    return d;
  }

  Design d = make_design();
  CellId macro = 0;  // creation order in make_design
  CellId port = 1;
  HierTree ht{d};
  std::vector<Rect> region;
  std::vector<std::uint8_t> region_valid;
  std::vector<MacroPlacement> placement;

  FlipFixture() {
    region.assign(ht.size(), Rect{});
    region_valid.assign(ht.size(), false);
    region[static_cast<std::size_t>(ht.root())] = Rect{0, 0, 100, 100};
    region_valid[static_cast<std::size_t>(ht.root())] = true;
    placement.push_back({macro, Rect{40, 20, 10, 6}, Orientation::R0});
  }
};

TEST(MacroFlipping, MirrorsTowardConsumer) {
  FlipFixture fx;
  const FlippingStats stats =
      flip_macros(fx.d, fx.ht, fx.region, fx.region_valid, fx.placement);
  EXPECT_GE(stats.flips, 1);
  // MY mirrors about the Y axis: pin moves from the right to the left edge.
  EXPECT_EQ(fx.placement[0].orientation, Orientation::MY);
  EXPECT_LT(stats.hpwl_after, stats.hpwl_before);
}

TEST(MacroFlipping, FootprintUnchanged) {
  FlipFixture fx;
  const Rect before = fx.placement[0].rect;
  flip_macros(fx.d, fx.ht, fx.region, fx.region_valid, fx.placement);
  EXPECT_EQ(fx.placement[0].rect, before);
}

TEST(MacroFlipping, NeverWorsensHpwl) {
  FlipFixture fx;
  const FlippingStats stats =
      flip_macros(fx.d, fx.ht, fx.region, fx.region_valid, fx.placement);
  EXPECT_LE(stats.hpwl_after, stats.hpwl_before + 1e-9);
}

TEST(MacroFlipping, AlreadyOptimalStaysPut) {
  FlipFixture fx;
  // Move the consumer to the right side: R0 is already optimal.
  fx.d.set_fixed_pos(fx.port, Point{100.0, 23.0});
  const FlippingStats stats =
      flip_macros(fx.d, fx.ht, fx.region, fx.region_valid, fx.placement);
  EXPECT_EQ(fx.placement[0].orientation, Orientation::R0);
  EXPECT_EQ(stats.flips, 0);
}

TEST(MacroFlipping, ConvergesWithinPassBudget) {
  FlipFixture fx;
  const FlippingStats stats =
      flip_macros(fx.d, fx.ht, fx.region, fx.region_valid, fx.placement, 8);
  // One macro: must converge after at most 2 passes (1 flip + 1 verify).
  EXPECT_LE(stats.passes, 2);
}

TEST(MacroFlipping, RotatedGroupUsesRotatedCandidates) {
  FlipFixture fx;
  fx.placement[0].orientation = Orientation::R90;
  fx.placement[0].rect = Rect{40, 20, 6, 10};  // swapped footprint
  flip_macros(fx.d, fx.ht, fx.region, fx.region_valid, fx.placement);
  // Must stay within the rotated group.
  const Orientation o = fx.placement[0].orientation;
  EXPECT_TRUE(o == Orientation::R90 || o == Orientation::R270 ||
              o == Orientation::MX90 || o == Orientation::MY90);
}

// Random region tables (some nodes invalid, sometimes the root too),
// random macro rects and orientations, macros left out of the placement
// and a random skip set: orientations and both HPWL sums must equal the
// reference bit for bit.
TEST(MacroFlippingOracle, IndexedEvaluatorMatchesReference) {
  const Design design = generate_circuit(fig1_spec());
  const HierTree ht(design);
  const MacroNets nets(design, ht);
  ASSERT_GT(nets.net_count(), 0u);
  const std::vector<CellId> macro_cells = design.macros();
  const double die_w = design.die().w, die_h = design.die().h;
  Rng rng(20);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Rect> region(ht.size());
    std::vector<std::uint8_t> region_valid(ht.size(), 0);
    const double valid_p = trial % 3 == 0 ? 0.1 : 0.6;
    for (std::size_t n = 0; n < ht.size(); ++n) {
      if (!rng.next_bool(valid_p)) continue;
      const double w = rng.next_double(1.0, die_w / 2), h = rng.next_double(1.0, die_h / 2);
      region[n] = Rect{rng.next_double(0, die_w - w), rng.next_double(0, die_h - h), w, h};
      region_valid[n] = 1;
    }
    std::vector<MacroPlacement> placement;
    std::set<CellId> skip;
    for (const CellId cell : macro_cells) {
      if (rng.next_bool(0.15)) continue;  // absent: a fixed endpoint
      const MacroDef& def = design.macro_def_of(cell);
      const Orientation o = kAllOrientations[rng.next_below(kAllOrientations.size())];
      const Point size = oriented_size(def.w, def.h, o);
      placement.push_back({cell,
                           Rect{rng.next_double(0, die_w - size.x),
                                rng.next_double(0, die_h - size.y), size.x, size.y},
                           o});
      if (rng.next_bool(0.1)) skip.insert(cell);
    }
    std::vector<MacroPlacement> expected = placement;
    const std::set<CellId>* skip_ptr = skip.empty() ? nullptr : &skip;
    const FlippingStats want =
        reference_flip_macros(design, ht, region, region_valid, expected, 4, skip_ptr);
    const FlippingStats got =
        flip_macros(design, ht, nets, region, region_valid, placement, 4, skip_ptr);
    ASSERT_EQ(placement.size(), expected.size());
    for (std::size_t i = 0; i < placement.size(); ++i) {
      EXPECT_EQ(placement[i].orientation, expected[i].orientation) << "trial " << trial;
    }
    EXPECT_EQ(got.flips, want.flips) << "trial " << trial;
    EXPECT_EQ(got.passes, want.passes) << "trial " << trial;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hpwl_before),
              std::bit_cast<std::uint64_t>(want.hpwl_before))
        << "trial " << trial;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hpwl_after),
              std::bit_cast<std::uint64_t>(want.hpwl_after))
        << "trial " << trial;
  }
}

// Hand-built corner cases, each on its own net: macro-to-macro nets, a
// macro with two pins on one net, a net whose other macro is left out
// of the placement, and placements that list a cell twice (the last
// entry is its position; earlier entries score 0 and never flip).
// Orientations, flips, passes and both HPWL sums must equal the
// reference bit for bit.
TEST(MacroFlippingOracle, CornerCasesMatchReference) {
  Design d("top");
  MacroDef m_def;
  m_def.name = "M";
  m_def.w = 10;
  m_def.h = 6;
  m_def.pins = {{"Q", {10.0, 3.0}, 8, true},
                {"D", {0.0, 2.0}, 8, false},
                {"Q2", {7.0, 6.0}, 8, true},
                {"D2", {3.0, 0.0}, 8, false}};
  const MacroDefId m_id = d.library().add(m_def);
  MacroDef n_def;
  n_def.name = "N";
  n_def.w = 8;
  n_def.h = 12;
  n_def.pins = {{"A", {8.0, 11.0}, 8, true}, {"B", {1.0, 0.0}, 8, false}};
  const MacroDefId n_id = d.library().add(n_def);
  const HierId a = d.add_hier(d.root(), "a");
  const HierId b = d.add_hier(d.root(), "b");
  const CellId m0 = d.add_cell(a, "m0", CellKind::Macro, 0.0, m_id);
  const CellId m1 = d.add_cell(b, "m1", CellKind::Macro, 0.0, m_id);
  const CellId m2 = d.add_cell(d.root(), "m2", CellKind::Macro, 0.0, n_id);
  const CellId m3 = d.add_cell(a, "m3", CellKind::Macro, 0.0, n_id);
  const CellId m4 = d.add_cell(b, "m4", CellKind::Macro, 0.0, m_id);
  const CellId c0 = d.add_cell(a, "c0", CellKind::Comb, 1.0);
  const CellId c1 = d.add_cell(b, "c1", CellKind::Comb, 1.0);
  const CellId f0 = d.add_cell(d.root(), "f0", CellKind::Flop, 1.0);
  const CellId p0 = d.add_cell(d.root(), "p0", CellKind::PortIn, 0.0);
  const CellId p1 = d.add_cell(d.root(), "p1", CellKind::PortOut, 0.0);
  d.set_fixed_pos(p0, Point{0.0, 50.0});
  d.set_fixed_pos(p1, Point{100.0, 20.0});
  const auto pin = [&](NetId net, CellId cell, const MacroDef& def, int k) {
    const MacroPin& mp = def.pins[static_cast<std::size_t>(k)];
    const auto dx = static_cast<float>(mp.offset.x), dy = static_cast<float>(mp.offset.y);
    if (mp.is_output) {
      d.set_driver(net, cell, dx, dy);
    } else {
      d.add_sink(net, cell, dx, dy);
    }
  };
  const NetId to_macro = d.add_net("m0_to_m1");  // macro to macro
  pin(to_macro, m0, m_def, 0);
  pin(to_macro, m1, m_def, 1);
  const NetId loop = d.add_net("m0_loop");  // two pins of one macro and a port
  pin(loop, m0, m_def, 2);
  pin(loop, m0, m_def, 3);
  d.add_sink(loop, p1);
  const NetId pair = d.add_net("m2_to_m3");  // m3 is often left out
  pin(pair, m2, n_def, 0);
  pin(pair, m3, n_def, 1);
  const NetId fanout = d.add_net("m1_fanout");  // cells of three HT nodes
  pin(fanout, m1, m_def, 2);
  d.add_sink(fanout, c0);
  d.add_sink(fanout, c1);
  d.add_sink(fanout, f0);
  const NetId mixed = d.add_net("p0_mixed");  // ports, cells and two macros
  d.set_driver(mixed, p0);
  pin(mixed, m4, m_def, 1);
  pin(mixed, m2, n_def, 1);
  d.add_sink(mixed, c1);
  const NetId three = d.add_net("m3_three");  // three macros, two of one def
  pin(three, m3, n_def, 0);
  pin(three, m4, m_def, 3);
  pin(three, m1, m_def, 3);
  const NetId cells = d.add_net("cells_only");  // not indexed
  d.set_driver(cells, c0);
  d.add_sink(cells, c1);
  d.set_die(Die{100, 100});
  d.freeze();

  const HierTree ht(d);
  const MacroNets nets(d, ht);
  EXPECT_EQ(nets.net_count(), 6u);
  const std::vector<CellId> macro_cells = {m0, m1, m2, m3, m4};
  Rng rng(31);
  int duplicates = 0, absent = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Rect> region(ht.size());
    std::vector<std::uint8_t> region_valid(ht.size(), 0);
    for (std::size_t n = 0; n < ht.size(); ++n) {
      if (!rng.next_bool(0.6)) continue;
      const double w = rng.next_double(1.0, 50), h = rng.next_double(1.0, 50);
      region[n] = Rect{rng.next_double(0, 100 - w), rng.next_double(0, 100 - h), w, h};
      region_valid[n] = 1;
    }
    std::vector<MacroPlacement> placement;
    const auto random_entry = [&](CellId cell) {
      const MacroDef& def = d.macro_def_of(cell);
      const Orientation o = kAllOrientations[rng.next_below(kAllOrientations.size())];
      const Point size = oriented_size(def.w, def.h, o);
      return MacroPlacement{
          cell, Rect{rng.next_double(0, 100 - size.x), rng.next_double(0, 100 - size.y), size.x,
                     size.y},
          o};
    };
    for (const CellId cell : macro_cells) {
      if (rng.next_bool(0.25)) {
        ++absent;
        continue;
      }
      placement.push_back(random_entry(cell));
    }
    // Second entries of placed cells, at random positions (before or
    // after the first).
    const std::size_t placed = placement.size();
    for (std::size_t i = 0; i < placed; ++i) {
      if (!rng.next_bool(0.25)) continue;
      const MacroPlacement twin = random_entry(placement[i].cell);
      placement.insert(placement.begin() +
                           static_cast<std::ptrdiff_t>(rng.next_below(placement.size() + 1)),
                       twin);
      ++duplicates;
    }
    std::set<CellId> skip;
    if (rng.next_bool(0.2)) skip.insert(macro_cells[rng.next_below(macro_cells.size())]);
    const std::set<CellId>* skip_ptr = skip.empty() ? nullptr : &skip;
    std::vector<MacroPlacement> expected = placement;
    const FlippingStats want =
        reference_flip_macros(d, ht, region, region_valid, expected, 4, skip_ptr);
    const FlippingStats got =
        flip_macros(d, ht, nets, region, region_valid, placement, 4, skip_ptr);
    ASSERT_EQ(placement.size(), expected.size());
    for (std::size_t i = 0; i < placement.size(); ++i) {
      EXPECT_EQ(placement[i].orientation, expected[i].orientation)
          << "trial " << trial << " entry " << i;
    }
    EXPECT_EQ(got.flips, want.flips) << "trial " << trial;
    EXPECT_EQ(got.passes, want.passes) << "trial " << trial;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hpwl_before),
              std::bit_cast<std::uint64_t>(want.hpwl_before))
        << "trial " << trial;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hpwl_after),
              std::bit_cast<std::uint64_t>(want.hpwl_after))
        << "trial " << trial;
  }
  EXPECT_GT(duplicates, 50);
  EXPECT_GT(absent, 50);
}

// A macro missing from the placement is a fixed endpoint at its HT
// node's region center: here it sits west of the placed macro, so the
// placed macro mirrors its output pin toward it.
TEST(MacroFlippingOracle, AbsentMacroIsAFixedEndpoint) {
  Design d("top");
  MacroDef def;
  def.name = "M";
  def.w = 10;
  def.h = 6;
  def.pins.push_back({"Q", {10.0, 3.0}, 32, true});
  const MacroDefId id = d.library().add(def);
  const CellId placed = d.add_cell(d.root(), "mem", CellKind::Macro, 0.0, id);
  const CellId absent = d.add_cell(d.root(), "mem2", CellKind::Macro, 0.0, id);
  const NetId n = d.add_net("q");
  d.set_driver(n, placed, 10.0f, 3.0f);
  d.add_sink(n, absent, 0.0f, 3.0f);
  d.set_die(Die{100, 100});
  d.freeze();
  const HierTree ht(d);
  std::vector<Rect> region(ht.size());
  std::vector<std::uint8_t> region_valid(ht.size(), 0);
  region[static_cast<std::size_t>(ht.root())] = Rect{0, 0, 100, 100};
  region_valid[static_cast<std::size_t>(ht.root())] = 1;
  std::vector<MacroPlacement> placement = {{placed, Rect{60, 20, 10, 6}, Orientation::R0}};
  std::vector<MacroPlacement> expected = placement;
  const FlippingStats want =
      reference_flip_macros(d, ht, region, region_valid, expected, 4, nullptr);
  const FlippingStats got =
      flip_macros(d, ht, MacroNets(d, ht), region, region_valid, placement, 4, nullptr);
  EXPECT_EQ(expected[0].orientation, Orientation::MY);
  EXPECT_EQ(placement[0].orientation, expected[0].orientation);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hpwl_before),
            std::bit_cast<std::uint64_t>(want.hpwl_before));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hpwl_after),
            std::bit_cast<std::uint64_t>(want.hpwl_after));
}

// The wrapper that indexes per call and the context-style prebuilt
// index give the same result.
TEST(MacroFlippingOracle, WrapperEqualsPrebuiltIndex) {
  FlipFixture fx;
  std::vector<MacroPlacement> other = fx.placement;
  const MacroNets nets(fx.d, fx.ht);
  const FlippingStats a = flip_macros(fx.d, fx.ht, fx.region, fx.region_valid, fx.placement);
  const FlippingStats b = flip_macros(fx.d, fx.ht, nets, fx.region, fx.region_valid, other);
  EXPECT_EQ(fx.placement[0].orientation, other[0].orientation);
  EXPECT_EQ(a.hpwl_before, b.hpwl_before);
  EXPECT_EQ(a.hpwl_after, b.hpwl_after);
}

}  // namespace
}  // namespace hidap
