// Congestion and timing proxy tests.

#include <gtest/gtest.h>

#include "core/hidap.hpp"
#include "gen/suite.hpp"
#include "route/congestion.hpp"
#include "timing/timing.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

struct Fixture {
  Design d;
  PlacementContext ctx;
  PlacementResult placement;
  Fixture() : d(generate_circuit(fig1_spec())), ctx(d) {
    set_log_level(LogLevel::Warn);
    HiDaPOptions o;
    o.layout_anneal.moves_per_temperature = 60;
    o.shape_fp.anneal.moves_per_temperature = 40;
    placement = place_macros(d, ctx, o);
  }
};

Fixture& fixture() {
  static Fixture* fx = new Fixture();
  return *fx;
}

TEST(Congestion, ReportWithinRange) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  const CongestionReport r = estimate_congestion(placed);
  EXPECT_GE(r.grc_percent, 0.0);
  EXPECT_LE(r.grc_percent, 100.0);
  EXPECT_GT(r.total_demand, 0.0);
  EXPECT_GE(r.worst_overflow, 0.0);
}

TEST(Congestion, TighterCapacityRaisesOverflow) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  CongestionOptions loose, tight;
  loose.tracks_per_um = 2.0;
  tight.tracks_per_um = 0.02;
  EXPECT_LE(estimate_congestion(placed, loose).grc_percent,
            estimate_congestion(placed, tight).grc_percent);
}

TEST(Congestion, MacroBlockageMatters) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  CongestionOptions open, blocked;
  open.macro_blockage = 0.0;
  blocked.macro_blockage = 0.95;
  EXPECT_LE(estimate_congestion(placed, open).grc_percent,
            estimate_congestion(placed, blocked).grc_percent + 1e-9);
}

TEST(Timing, DerivedPeriodCoversLogicDelay) {
  auto& fx = fixture();
  const double period = derive_clock_period(fx.d, fx.ctx.seq);
  int max_depth = 0;
  for (const SeqEdge& e : fx.ctx.seq.edges()) {
    max_depth = std::max(max_depth, e.comb_depth);
  }
  EXPECT_GT(period, kClkToQNs + max_depth * kGateDelayNs);
}

TEST(Timing, ReportConsistent) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  const TimingReport r = analyze_timing(placed, fx.ctx.seq);
  EXPECT_GT(r.clock_period_ns, 0.0);
  EXPECT_GT(r.paths, 0u);
  EXPECT_LE(r.tns_ns, 0.0);
  EXPECT_NEAR(r.wns_percent, 100.0 * r.wns_ns / r.clock_period_ns, 1e-9);
  if (r.wns_ns >= 0) {
    EXPECT_EQ(r.violating_endpoints, 0u);
    EXPECT_DOUBLE_EQ(r.tns_ns, 0.0);
  } else {
    EXPECT_GE(r.tns_ns, r.wns_ns * static_cast<double>(r.paths));
  }
}

TEST(Timing, ShorterClockMakesThingsWorse) {
  auto& fx = fixture();
  const PlacedDesign placed = place_cells(fx.d, fx.ctx.ht, fx.placement);
  TimingOptions normal, tight;
  normal.clock_period_ns = 2.0;
  tight.clock_period_ns = 0.2;
  const TimingReport rn = analyze_timing(placed, fx.ctx.seq, normal);
  const TimingReport rt = analyze_timing(placed, fx.ctx.seq, tight);
  EXPECT_LE(rt.wns_ns, rn.wns_ns);
  EXPECT_LE(rt.tns_ns, rn.tns_ns);
}

TEST(Timing, WireDelayPenalizesDistance) {
  // Two registers placed by hand at increasing distance: slack shrinks.
  Design d("t");
  const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 4, 4, 8));
  const CellId ma = d.add_cell(d.root(), "a", CellKind::Macro, 0.0, m);
  const CellId mb = d.add_cell(d.root(), "b", CellKind::Macro, 0.0, m);
  const NetId n = d.add_net("n");
  d.set_driver(n, ma);
  d.add_sink(n, mb);
  d.set_die(Die{1000, 1000});
  d.freeze();
  const PlacementContext ctx(d);
  const HierTree& ht = ctx.ht;

  const auto slack_at = [&](double bx) {
    PlacementResult pr;
    pr.macros.push_back({ma, Rect{0, 0, 4, 4}, Orientation::R0});
    pr.macros.push_back({mb, Rect{bx, 0, 4, 4}, Orientation::R0});
    const PlacedDesign placed = place_cells(d, ht, pr);
    TimingOptions opt;
    opt.clock_period_ns = 1.0;
    return analyze_timing(placed, ctx.seq, opt).wns_ns;
  };
  EXPECT_GT(slack_at(10.0), slack_at(900.0));
}

}  // namespace
}  // namespace hidap
