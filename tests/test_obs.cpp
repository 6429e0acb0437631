// Observability subsystem tests: metric registry aggregation under a
// genuinely threaded pool, histogram bucket-edge semantics, span nesting
// + Chrome-trace export round-trip (parsed back with the service/json
// line parser), the obs::Phase clock and the per-step phase walls a
// placement reports, and the hard determinism contract -- placements are
// byte-identical with tracing on or off at any thread count.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/hidap.hpp"
#include "eval/metrics.hpp"
#include "force_pool_lanes.hpp"
#include "gen/suite.hpp"
#include "netlist/def_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "service/json.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

// 8-lane pool (or HIDAP_THREADS) so the sharded cells see genuinely
// concurrent writers; see force_pool_lanes.hpp.
const int kForcedPoolLanes = test_support::force_pool_lanes();

struct TracingOff {
  // Every test in this binary starts from tracing-off and an empty ring,
  // so span-producing tests cannot leak events into one another.
  TracingOff() {
    obs::set_tracing_enabled(false);
    obs::Tracer::instance().clear();
  }
};

TEST(ObsMetrics, CounterAggregatesAcrossPoolThreads) {
  TracingOff guard;
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("test.adds");
  constexpr std::size_t kTasks = 1000;
  parallel_for(kTasks, [&](std::size_t) { counter.add(3); });
  EXPECT_EQ(counter.value(), 3u * kTasks);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsMetrics, GaugeSumsSignedDeltasAcrossThreads) {
  TracingOff guard;
  obs::MetricsRegistry registry;
  obs::Gauge& gauge = registry.gauge("test.level");
  constexpr std::size_t kTasks = 512;
  // +2/-1 pairs from pool threads must settle on the exact net level.
  parallel_for(kTasks, [&](std::size_t) {
    gauge.add(2);
    gauge.add(-1);
  });
  EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(kTasks));
}

TEST(ObsMetrics, HandlesAreStableAndSharedByName) {
  TracingOff guard;
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("same.name");
  obs::Counter& b = registry.counter("same.name");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(b.value(), 5u);
}

TEST(ObsMetrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  TracingOff guard;
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("test.hist", {10.0, 100.0});
  hist.record(10.0);    // == bound: lands in bucket 0 (inclusive upper)
  hist.record(10.0001); // just above: bucket 1
  hist.record(100.0);   // == last bound: bucket 1
  hist.record(100.5);   // above every bound: overflow
  hist.record(-3.0);    // below the first bound: bucket 0
  const obs::HistogramSnapshot snap = hist.read();
  ASSERT_EQ(snap.counts.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_NEAR(snap.sum, 10.0 + 10.0001 + 100.0 + 100.5 - 3.0, 1e-9);
}

TEST(ObsMetrics, HistogramAggregatesAcrossPoolThreads) {
  TracingOff guard;
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("test.conc", {1.0});
  constexpr std::size_t kTasks = 800;
  parallel_for(kTasks, [&](std::size_t i) { hist.record(i % 2 == 0 ? 0.5 : 2.0); });
  const obs::HistogramSnapshot snap = hist.read();
  EXPECT_EQ(snap.count, kTasks);
  EXPECT_EQ(snap.counts[0], kTasks / 2);
  EXPECT_EQ(snap.counts[1], kTasks / 2);
}

TEST(ObsMetrics, FlatValuesExplodeHistograms) {
  TracingOff guard;
  obs::MetricsRegistry registry;
  registry.counter("c").add(7);
  registry.histogram("h", {5.0}).record(4.0);
  std::map<std::string, double> flat;
  for (const auto& [name, value] : registry.flat_values()) flat[name] = value;
  EXPECT_EQ(flat.at("c"), 7.0);
  EXPECT_EQ(flat.at("h.count"), 1.0);
  EXPECT_EQ(flat.at("h.sum"), 4.0);
  EXPECT_EQ(flat.at("h.le_5"), 1.0);
  EXPECT_EQ(flat.at("h.overflow"), 0.0);
}

TEST(ObsMetrics, ToJsonIsOneFlatParseableObject) {
  TracingOff guard;
  obs::MetricsRegistry registry;
  registry.counter("sa.runs").add(2);
  registry.gauge("pool.queue_depth").add(3);
  JsonObject parsed;
  std::string error;
  ASSERT_TRUE(parse_json_object(registry.to_json(), parsed, error)) << error;
  EXPECT_EQ(json_number(parsed, "sa.runs"), 2.0);
  EXPECT_EQ(json_number(parsed, "pool.queue_depth"), 3.0);
}

TEST(ObsTrace, SpanIsInertWhenDisabled) {
  TracingOff guard;
  {
    obs::Span span("never_recorded", "test");
    span.arg("k", 1);
  }
  for (const obs::TraceEvent& e : obs::Tracer::instance().collect()) {
    EXPECT_STRNE(e.name, "never_recorded");
  }
}

TEST(ObsPhase, CountsAlwaysAndSpansOnlyWhenTracing) {
  TracingOff guard;
  constexpr auto kSleep = std::chrono::milliseconds(5);
  obs::Counter& counter = obs::default_registry().counter("phase.test_phase_us");
  const auto spans = []() {
    std::size_t n = 0;
    for (const obs::TraceEvent& e : obs::Tracer::instance().collect()) {
      if (std::string_view(e.name) == "test_phase") ++n;
    }
    return n;
  };
  obs::Tracer::instance().clear();

  // Tracing off: the counter still grows by at least the slept time,
  // and no event is recorded.
  std::uint64_t before = counter.value();
  {
    const obs::Phase phase("test_phase", "test");
    std::this_thread::sleep_for(kSleep);
    EXPECT_GE(phase.seconds(), 0.005);
  }
  EXPECT_GE(counter.value() - before, 5000u);
  EXPECT_EQ(spans(), 0u);

  // Tracing on: the same counter plus exactly one span.
  obs::set_tracing_enabled(true);
  before = counter.value();
  {
    const obs::Phase phase("test_phase", "test");
    std::this_thread::sleep_for(kSleep);
  }
  obs::set_tracing_enabled(false);
  EXPECT_GE(counter.value() - before, 5000u);
  EXPECT_EQ(spans(), 1u);
  obs::Tracer::instance().clear();
}

TEST(ObsTrace, NestedSpansExportAndRoundTripThroughJson) {
  TracingOff guard;
  obs::set_tracing_enabled(true);
  {
    obs::Span outer("outer_span", "test");
    outer.arg("ordinal", 42);
    {
      obs::Span inner("inner_span", "test");
      inner.arg("depth", 2);
    }
  }
  obs::set_tracing_enabled(false);

  const std::string path = "obs_roundtrip_trace.json";
  std::string error;
  ASSERT_TRUE(obs::Tracer::instance().export_chrome_trace(path, &error)) << error;

  // Line-wise parse with the service/json parser: each event line is one
  // JSON object (strip the trailing comma); the one-level "args" object
  // comes back as dotted keys.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool saw_outer = false, saw_inner = false;
  double outer_ts = 0, outer_dur = 0, inner_ts = 0, inner_dur = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '{' || line.find("\"name\"") == std::string::npos) {
      continue;  // header/footer lines
    }
    if (line.back() == ',') line.pop_back();
    JsonObject event;
    ASSERT_TRUE(parse_json_object(line, event, error)) << error << ": " << line;
    EXPECT_EQ(json_string(event, "ph"), "X");
    if (json_string(event, "name") == "outer_span") {
      saw_outer = true;
      outer_ts = json_number(event, "ts");
      outer_dur = json_number(event, "dur");
      EXPECT_EQ(json_number(event, "args.ordinal"), 42.0);
    } else if (json_string(event, "name") == "inner_span") {
      saw_inner = true;
      inner_ts = json_number(event, "ts");
      inner_dur = json_number(event, "dur");
      EXPECT_EQ(json_number(event, "args.depth"), 2.0);
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  // RAII nesting: the inner interval lies inside the outer one.
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + 1e-3);
  std::remove(path.c_str());
}

TEST(ObsTrace, PhaseStatsSelfTimeExcludesChildren) {
  TracingOff guard;
  obs::set_tracing_enabled(true);
  {
    obs::Span parent("phase_parent", "test");
    {
      obs::Span child("phase_child", "test");
      // Make the child's share of the parent wall unmistakable.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  obs::set_tracing_enabled(false);
  double parent_total = -1, parent_self = -1, child_total = -1;
  for (const obs::PhaseStat& s : obs::Tracer::instance().phase_stats()) {
    if (s.name == "phase_parent") {
      parent_total = s.total_s;
      parent_self = s.self_s;
    } else if (s.name == "phase_child") {
      child_total = s.total_s;
    }
  }
  ASSERT_GE(parent_total, 0.0);
  ASSERT_GE(child_total, 0.015);
  // Parent self-time = its wall minus the child's wall.
  EXPECT_NEAR(parent_self, parent_total - child_total, 1e-3);
  const std::string summary = obs::Tracer::instance().phase_summary();
  EXPECT_NE(summary.find("phase_parent"), std::string::npos);
  EXPECT_NE(summary.find("phase_child"), std::string::npos);
}

TEST(ObsTrace, RingWrapKeepsNewestEventsAndCountsDrops) {
  TracingOff guard;
  obs::Tracer::instance().set_ring_capacity(64);
  obs::set_tracing_enabled(true);
  for (int i = 0; i < 200; ++i) {
    obs::Span span("wrap_span", "test");
  }
  obs::set_tracing_enabled(false);
  EXPECT_GT(obs::Tracer::instance().dropped(), 0u);
  std::size_t wrap_events = 0;
  for (const obs::TraceEvent& e : obs::Tracer::instance().collect()) {
    if (std::string_view(e.name) == "wrap_span") ++wrap_events;
  }
  EXPECT_EQ(wrap_events, 64u);
  obs::Tracer::instance().clear();
  obs::Tracer::instance().set_ring_capacity(std::size_t{1} << 16);
}

// The hard invariant of the whole subsystem: tracing must never touch
// the RNG/accept streams, so the DEF is byte-identical with tracing on
// or off -- sequential and threaded.
class ObsDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::Warn);
    CircuitSpec spec = fig1_spec();
    spec.target_cells = 4000;
    spec.macro_count = 12;
    design_ = new Design(generate_circuit(spec));
    context_ = new PlacementContext(*design_);
  }
  static void TearDownTestSuite() {
    delete context_;
    delete design_;
    context_ = nullptr;
    design_ = nullptr;
  }

  static HiDaPOptions quick_options(int num_threads) {
    HiDaPOptions o;
    o.job.seed = 11;
    o.num_threads = num_threads;
    o.layout_anneal.moves_per_temperature = 60;
    o.layout_anneal.cooling = 0.8;
    o.layout_anneal.max_stagnant_temperatures = 3;
    o.shape_fp.anneal.moves_per_temperature = 40;
    o.shape_fp.anneal.cooling = 0.8;
    o.shape_fp.anneal.max_stagnant_temperatures = 3;
    return o;
  }

  static std::string def_string(int num_threads) {
    const PlacementResult result =
        place_macros(*design_, *context_, quick_options(num_threads));
    std::ostringstream def;
    write_def(*design_, result, def);
    return def.str();
  }

  static Design* design_;
  static PlacementContext* context_;
};

Design* ObsDeterminism::design_ = nullptr;
PlacementContext* ObsDeterminism::context_ = nullptr;

TEST_F(ObsDeterminism, DefBytesAreIdenticalTracingOnOrOff) {
  TracingOff guard;
  for (const int threads : {1, 8}) {
    const std::string off = def_string(threads);
    obs::set_tracing_enabled(true);
    const std::string on = def_string(threads);
    obs::set_tracing_enabled(false);
    EXPECT_EQ(off, on) << "tracing changed the placement at num_threads=" << threads;
  }
  obs::Tracer::instance().clear();
}

// The evaluator's batches are a Phase with one span per sub-step and
// two counters; none of it may move a metric. A three-placement sweep
// and a lone evaluation, tracing off then on, at 1 and 8 lanes.
TEST_F(ObsDeterminism, MetricsAreIdenticalTracingOnOrOff) {
  TracingOff guard;
  EvalOptions options;
  options.place.target_clusters = 200;
  options.place.solver_iterations = 30;
  const PlacementEvaluator evaluator(*design_, context_->ht, context_->seq, options);
  obs::Counter& evaluated = obs::default_registry().counter("eval.placements");
  obs::Counter& link_sweeps = obs::default_registry().counter("eval.link_sweeps");
  const auto measure = [&](int threads) {
    std::vector<PlacementResult> sweep;
    for (const double lambda : HiDaPOptions::kLambdaSweep) {
      HiDaPOptions o = quick_options(threads);
      o.lambda = lambda;
      sweep.push_back(place_macros(*design_, *context_, o));
    }
    const std::vector<const PlacementResult*> batch{&sweep[0], &sweep[1], &sweep[2]};
    SweepMetrics m = evaluator.evaluate_sweep(batch);
    m.wl_m.push_back(evaluator.evaluate(sweep[1]).wl_m);
    return m;
  };
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    const std::uint64_t evaluated_before = evaluated.value();
    const std::uint64_t sweeps_before = link_sweeps.value();
    const SweepMetrics off = measure(threads);
    EXPECT_EQ(evaluated.value() - evaluated_before, 4u);
    EXPECT_GT(link_sweeps.value(), sweeps_before);

    obs::Tracer::instance().clear();
    obs::set_tracing_enabled(true);
    const SweepMetrics on = measure(threads);
    obs::set_tracing_enabled(false);
    EXPECT_EQ(off.wl_m, on.wl_m);
    EXPECT_EQ(off.winner, on.winner);
    EXPECT_EQ(off.best.wl_m, on.best.wl_m);
    EXPECT_EQ(off.best.grc_percent, on.best.grc_percent);
    EXPECT_EQ(off.best.wns_percent, on.best.wns_percent);
    EXPECT_EQ(off.best.tns_ns, on.best.tns_ns);
    EXPECT_EQ(off.best.peak_density_near_macros, on.best.peak_density_near_macros);

    // Two batches: a sweep of three and a lone evaluation.
    std::map<std::string, std::uint64_t> spans;
    for (const obs::PhaseStat& stat : obs::phase_stats()) spans[stat.name] = stat.count;
    for (const char* name : {"eval", "place_cells", "hpwl", "congestion", "timing", "density"}) {
      EXPECT_EQ(spans[name], 2u) << name;
    }
    obs::Tracer::instance().clear();
  }
}

// The evaluator's model build is an `eval_model` phase that counts its
// clusters, links and net-template sources, and spreading counts the
// rounds it runs. All four are functions of the design and the
// placements alone, so sweeps evaluated concurrently on 1 or 4 lanes
// read the same.
TEST_F(ObsDeterminism, EvalCountersAreThreadIndependent) {
  TracingOff guard;
  const char* const counters[] = {"eval_model.clusters", "eval_model.links",
                                  "eval_model.sources", "eval.spread_rounds"};
  std::vector<PlacementResult> sweep;
  for (const double lambda : HiDaPOptions::kLambdaSweep) {
    HiDaPOptions o = quick_options(1);
    o.lambda = lambda;
    sweep.push_back(place_macros(*design_, *context_, o));
  }
  EvalOptions options;
  options.place.target_clusters = 200;
  options.place.solver_iterations = 30;
  std::vector<std::vector<std::uint64_t>> per_run;
  for (const int lanes : {1, 4}) {
    SCOPED_TRACE(lanes);
    std::vector<std::uint64_t> before;
    for (const char* name : counters) {
      before.push_back(obs::default_registry().counter(name).value());
    }
    obs::Tracer::instance().clear();
    obs::set_tracing_enabled(true);
    const PlacementEvaluator evaluator(*design_, context_->ht, context_->seq, options);
    parallel_for(
        sweep.size(),
        [&](std::size_t r) {
          std::vector<const PlacementResult*> batch;
          for (std::size_t k = 0; k < sweep.size(); ++k) {
            batch.push_back(&sweep[(r + k) % sweep.size()]);
          }
          evaluator.evaluate_sweep(batch);
        },
        lanes);
    obs::set_tracing_enabled(false);
    std::map<std::string, std::uint64_t> spans;
    for (const obs::PhaseStat& stat : obs::phase_stats()) spans[stat.name] = stat.count;
    EXPECT_EQ(spans["eval_model"], 1u);
    obs::Tracer::instance().clear();
    per_run.emplace_back();
    for (std::size_t i = 0; i < std::size(counters); ++i) {
      per_run.back().push_back(obs::default_registry().counter(counters[i]).value() - before[i]);
      EXPECT_GT(per_run.back().back(), 0u) << counters[i];
    }
  }
  EXPECT_EQ(per_run[0], per_run[1]);
}

TEST_F(ObsDeterminism, PlacementRunRecordsSaAndPhaseMetrics) {
  TracingOff guard;
  const std::uint64_t runs_before =
      obs::default_registry().counter("sa.runs").value();
  const std::uint64_t proposed_before =
      obs::default_registry().counter("sa.moves_proposed").value();
  const PlacementResult result =
      place_macros(*design_, *context_, quick_options(kForcedPoolLanes > 1 ? 0 : 1));
  EXPECT_EQ(result.status, JobStatus::Completed);
  // Global totals moved...
  EXPECT_GT(obs::default_registry().counter("sa.runs").value(), runs_before);
  EXPECT_GT(obs::default_registry().counter("sa.moves_proposed").value(),
            proposed_before);
  // ...and the result carries this run's own phase walls.
  EXPECT_GT(result.phases.recursion_s, 0.0);
  EXPECT_GT(result.phases.curves_s, 0.0);
}

// Both slicing annealers report the slicing nodes they recomposed, so
// `sa_temp` time reads per recomposed node. The count is a function of
// the accept/reject streams alone, so it is the same at any lane count.
TEST_F(ObsDeterminism, RecomposedNodesAreCountedAndThreadIndependent) {
  TracingOff guard;
  obs::Counter& recomposed = obs::default_registry().counter("sa.recomposed_nodes");
  std::vector<std::uint64_t> per_run;
  for (const int threads : {1, 4}) {
    const std::uint64_t before = recomposed.value();
    const PlacementResult result = place_macros(*design_, *context_, quick_options(threads));
    ASSERT_EQ(result.status, JobStatus::Completed);
    per_run.push_back(recomposed.value() - before);
  }
  EXPECT_GT(per_run[0], 0u);
  EXPECT_EQ(per_run[0], per_run[1]);
}

// Per-level size counters move with every cold placement, and the
// level's target-area and dataflow work appear as their own spans.
TEST_F(ObsDeterminism, PlacementRecordsLevelSizesAndSpans) {
  TracingOff guard;
  const char* const counters[] = {"level.blocks", "level.terminals", "level.affinity_pairs",
                                  "target_area.bfs_visits", "flip.macro_nets"};
  std::vector<std::uint64_t> before;
  for (const char* name : counters) {
    before.push_back(obs::default_registry().counter(name).value());
  }
  obs::Tracer::instance().clear();
  obs::set_tracing_enabled(true);
  const PlacementResult result = place_macros(*design_, *context_, quick_options(1));
  obs::set_tracing_enabled(false);
  ASSERT_EQ(result.status, JobStatus::Completed);
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    EXPECT_GT(obs::default_registry().counter(counters[i]).value(), before[i])
        << counters[i];
  }
  std::uint64_t target_area_spans = 0, dataflow_spans = 0, level_spans = 0;
  for (const obs::PhaseStat& stat : obs::phase_stats()) {
    if (stat.name == "target_area") target_area_spans = stat.count;
    if (stat.name == "dataflow") dataflow_spans = stat.count;
    if (stat.name == "level") level_spans = stat.count;
  }
  EXPECT_GT(level_spans, 0u);
  EXPECT_EQ(target_area_spans, level_spans);
  EXPECT_EQ(dataflow_spans, level_spans);
  obs::Tracer::instance().clear();
}

TEST_F(ObsDeterminism, PhasesPartitionAColdPlacement) {
  // The four step Phases of place_macros are disjoint and nested in the
  // `place` Phase, so their walls add up to at most the run's own
  // runtime_seconds -- sequential and threaded.
  TracingOff guard;
  for (const int threads : {1, 4}) {
    const PlacementResult result = place_macros(*design_, *context_, quick_options(threads));
    ASSERT_EQ(result.status, JobStatus::Completed);
    const PhaseSeconds& phases = result.phases;
    EXPECT_GT(phases.curves_s, 0.0) << "num_threads=" << threads;
    EXPECT_GT(phases.recursion_s, 0.0) << "num_threads=" << threads;
    EXPECT_GT(phases.flip_s, 0.0) << "num_threads=" << threads;
    EXPECT_LE(phases.curves_s + phases.recursion_s + phases.flip_s + phases.legalize_s,
              result.runtime_seconds)
        << "num_threads=" << threads;
  }
}

}  // namespace
}  // namespace hidap
