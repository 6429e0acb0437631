// Evaluation pipeline tests: metrics are produced end to end, flows can
// be compared, and the ordering HiDaP claims is at least achievable on a
// structured circuit (loose sanity, the benches do the real comparison).

#include <gtest/gtest.h>

#include "eval/flows.hpp"
#include "force_pool_lanes.hpp"
#include "gen/suite.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

// Enough lanes that a 4-lane comparison really runs its flows and sweeps
// concurrently, even on a single-core host.
const int kForcedPoolLanes = test_support::force_pool_lanes();

FlowOptions quick_flow_options() {
  FlowOptions o;
  o.hidap.layout_anneal.moves_per_temperature = 60;
  o.hidap.layout_anneal.cooling = 0.8;
  o.hidap.layout_anneal.max_stagnant_temperatures = 3;
  o.hidap.shape_fp.anneal.moves_per_temperature = 40;
  o.hidap.shape_fp.anneal.cooling = 0.8;
  o.handfp_effort = 1.0;
  o.handfp_seeds = 1;
  o.eval.place.solver_iterations = 30;
  o.eval.place.target_clusters = 200;
  return o;
}

struct Fixture {
  Design d;
  PlacementContext ctx;
  Fixture() : d(generate_circuit(fig1_spec())), ctx(d) {
    set_log_level(LogLevel::Warn);
  }
};

Fixture& fixture() {
  static Fixture* fx = new Fixture();
  return *fx;
}

TEST(Eval, MetricsPopulated) {
  auto& fx = fixture();
  const FlowOptions opt = quick_flow_options();
  const PlacementResult r = run_indeda_flow(fx.d, fx.ctx, opt);
  const Metrics m = evaluate_placement(fx.d, fx.ctx.ht, fx.ctx.seq, r, opt.eval);
  EXPECT_EQ(m.flow, "IndEDA");
  EXPECT_GT(m.wl_m, 0.0);
  EXPECT_GE(m.grc_percent, 0.0);
  EXPECT_LE(m.tns_ns, 0.0);
  EXPECT_GE(m.peak_density_near_macros, 0.0);
}

TEST(Eval, HidapFlowSelectsBestLambda) {
  auto& fx = fixture();
  const FlowOptions opt = quick_flow_options();
  const PlacementResult r = run_hidap_flow(fx.d, fx.ctx, opt);
  EXPECT_EQ(r.flow_name, "HiDaP");
  EXPECT_EQ(r.macros.size(), fx.d.macro_count());
  EXPECT_GT(r.runtime_seconds, 0.0);
}

TEST(Eval, HandfpIsAtLeastAsGoodAsSingleRun) {
  auto& fx = fixture();
  FlowOptions opt = quick_flow_options();
  opt.handfp_seeds = 2;
  const PlacementResult hidap = run_hidap_flow(fx.d, fx.ctx, opt);
  const PlacementResult handfp = run_handfp_flow(fx.d, fx.ctx, opt);
  const Metrics mh = evaluate_placement(fx.d, fx.ctx.ht, fx.ctx.seq, hidap, opt.eval);
  const Metrics mf = evaluate_placement(fx.d, fx.ctx.ht, fx.ctx.seq, handfp, opt.eval);
  // handFP explores a superset of configurations with more effort; allow
  // a small tolerance for SA noise.
  EXPECT_LE(mf.wl_m, mh.wl_m * 1.10);
}

TEST(Eval, QuickWirelengthTracksDistance) {
  // Deterministic two-macro design: the surrogate must grow when the
  // macros move apart.
  Design d("qw");
  const MacroDefId m = d.library().add(MacroLibrary::make_sram("M", 4, 4, 8));
  const CellId ma = d.add_cell(d.root(), "a", CellKind::Macro, 0.0, m);
  const CellId mb = d.add_cell(d.root(), "b", CellKind::Macro, 0.0, m);
  const NetId n = d.add_net("n");
  d.set_driver(n, ma);
  d.add_sink(n, mb);
  d.set_die(Die{500, 500});
  d.freeze();
  const PlacementContext ctx(d);
  const auto wl_at = [&](double bx) {
    PlacementResult pr;
    pr.macros.push_back({ma, Rect{0, 0, 4, 4}, Orientation::R0});
    pr.macros.push_back({mb, Rect{bx, 0, 4, 4}, Orientation::R0});
    return quick_wirelength(d, ctx.ht, ctx.seq, pr);
  };
  EXPECT_LT(wl_at(10.0), wl_at(400.0));
  EXPECT_GT(wl_at(400.0), 0.0);
}

TEST(Eval, CompareFlowsNormalizesToHandfp) {
  auto& fx = fixture();
  const FlowOptions opt = quick_flow_options();
  const FlowComparison cmp = compare_flows(fx.d, opt);
  EXPECT_DOUBLE_EQ(cmp.handfp.wl_norm, 1.0);
  EXPECT_NEAR(cmp.indeda.wl_norm, cmp.indeda.wl_m / cmp.handfp.wl_m, 1e-9);
  EXPECT_NEAR(cmp.hidap.wl_norm, cmp.hidap.wl_m / cmp.handfp.wl_m, 1e-9);
  EXPECT_GT(cmp.indeda.wl_m, 0.0);
}

void expect_same_metrics(const Metrics& reported, const Metrics& fresh) {
  EXPECT_EQ(reported.flow, fresh.flow);
  EXPECT_EQ(reported.wl_m, fresh.wl_m);
  EXPECT_EQ(reported.grc_percent, fresh.grc_percent);
  EXPECT_EQ(reported.wns_percent, fresh.wns_percent);
  EXPECT_EQ(reported.tns_ns, fresh.tns_ns);
  EXPECT_EQ(reported.peak_density_near_macros, fresh.peak_density_near_macros);
}

TEST(Eval, CompareFlowsReusesWinnerEvaluationBitExactly) {
  // compare_flows reports each sweep winner with the evaluation its
  // sweep's batch ran on the shared per-design model (one plan shared by
  // both sweeps); that must be exactly what a fresh, standalone
  // evaluation of the winning placement gives.
  auto& fx = fixture();
  for (const int lanes : {1, 4}) {
    SCOPED_TRACE(lanes);
    FlowOptions opt = quick_flow_options();
    opt.handfp_seeds = 2;
    opt.hidap.num_threads = lanes;
    const FlowComparison cmp = compare_flows(fx.d, opt);
    const PlacementResult hidap = run_hidap_flow(fx.d, fx.ctx, opt);
    const PlacementResult handfp = run_handfp_flow(fx.d, fx.ctx, opt);
    const Metrics fresh_hidap = evaluate_placement(fx.d, fx.ctx.ht, fx.ctx.seq, hidap, opt.eval);
    const Metrics fresh_handfp =
        evaluate_placement(fx.d, fx.ctx.ht, fx.ctx.seq, handfp, opt.eval);
    expect_same_metrics(cmp.hidap, fresh_hidap);
    expect_same_metrics(cmp.handfp, fresh_handfp);
    EXPECT_EQ(cmp.hidap.wl_norm, fresh_hidap.wl_m / fresh_handfp.wl_m);
    EXPECT_GT(cmp.hidap.runtime_s, 0.0);  // placement effort, timed per slot
    EXPECT_GT(cmp.handfp.runtime_s, 0.0);
  }
}

}  // namespace
}  // namespace hidap
