#include "pipeline.hpp"

#include <cstddef>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "baseline/wall_packer.hpp"
#include "floorplan/legalizer.hpp"
#include "layer_trace.hpp"
#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "runtime/thread_pool.hpp"
#include "service/placement_session.hpp"

namespace perfbench {

using namespace hidap;

Design parse(const std::string& verilog) {
  Design design = timed("netlist.parse", [&] { return parse_verilog_string(verilog); });
  trace_count("netlist.bytes", static_cast<double>(verilog.size()));
  trace_count("netlist.cells", static_cast<double>(design.cell_count()));
  trace_count("netlist.nets", static_cast<double>(design.net_count()));
  trace_count("netlist.macros", static_cast<double>(design.macro_count()));
  return design;
}

std::string def_bytes(const Design& design, const PlacementResult& placement) {
  const Span span("netlist.write_def");
  std::ostringstream out;
  write_def(design, placement, out);
  return out.str();
}

namespace {

// Size counters of one context build.
void count_context(const HierTree& ht, const SeqGraph& seq) {
  trace_count("context.builds", 1);
  trace_count("dataflow.seq_nodes", static_cast<double>(seq.node_count()));
  trace_count("dataflow.seq_edges", static_cast<double>(seq.edge_count()));
  trace_count("hier.ht_nodes", static_cast<double>(ht.size()));
}

}  // namespace

Context::Context(const Design& design, const SeqExtractOptions& seq_options)
    : adjacency(timed("context.adjacency", [&] { return CellAdjacency(design); })),
      ht(timed("hier.tree", [&] { return HierTree(design); })),
      seq(timed("dataflow.seq_extract",
                [&] { return extract_seq_graph(design, adjacency, seq_options); })) {
  count_context(ht, seq);
}

PlacementResult place(const Design& design, const CellAdjacency& adjacency, const HierTree& ht,
                      const SeqGraph& seq, const HiDaPOptions& options,
                      PlacementArtifacts* artifacts) {
  const Rect die{0, 0, design.die().w, design.die().h};
  RecursiveFloorplanner floorplanner(design, adjacency, ht, seq, options);
  if (artifacts != nullptr && artifacts->shape_curves) {
    floorplanner.adopt_shape_curves(*artifacts->shape_curves);
  } else {
    // Generated eagerly so the span measures it; the library overlaps
    // it with the recursion front when it has spare lanes. Curves are
    // per-node seeded, so both orders give the same bytes.
    const Span span("core.curves");
    floorplanner.generate_shape_curves();
  }
  if (artifacts != nullptr && artifacts->recursion_plan) {
    floorplanner.adopt_recursion_plan(*artifacts->recursion_plan);
  }
  PlacementResult result = timed("core.recursion", [&] { return floorplanner.run(die); });

  double levels = 0;
  for (const LevelPlan& level : floorplanner.recursion_plan()) {
    if (level.planned && !level.fallback) ++levels;
  }
  trace_count("core.levels", levels);

  if (artifacts != nullptr) {
    if (!artifacts->shape_curves) {
      artifacts->shape_curves =
          std::make_shared<std::vector<ShapeCurve>>(floorplanner.shape_curves());
    }
    if (!artifacts->recursion_plan) {
      artifacts->recursion_plan =
          std::make_shared<RecursionPlan>(floorplanner.recursion_plan());
    }
  }

  {
    const Span span("core.flip");
    flip_macros(design, ht, floorplanner.region_of_node(), floorplanner.region_valid(),
                result.macros, options.flipping_passes);
  }
  if (options.macro_halo > 0.0 || total_overlap(result.macros, options.macro_halo) > 0.0) {
    const Span span("floorplan.legalize");
    LegalizeOptions legal;
    legal.halo = options.macro_halo;
    legalize_macros(design, result.macros, legal);
  }
  result.status = JobStatus::Completed;
  result.flow_name = "HiDaP";
  return result;
}

Metrics evaluate(const Design& design, const HierTree& ht, const SeqGraph& seq,
                 const PlacementResult& placement, const EvalOptions& options) {
  trace_count("eval.evaluations", 1);
  Metrics m;
  m.flow = placement.flow_name;
  m.runtime_s = placement.runtime_seconds;
  const PlacedDesign placed = timed(
      "place.place_cells", [&] { return place_cells(design, ht, placement, options.place); });
  trace_count("place.clusters", static_cast<double>(placed.clustering().clusters.size()));
  m.wl_m = timed("place.hpwl", [&] { return total_hpwl(placed); }).total_m;
  m.grc_percent = timed("route.congestion", [&] {
                    return estimate_congestion(placed, options.congestion);
                  }).grc_percent;
  const TimingReport timing =
      timed("timing.analyze", [&] { return analyze_timing(placed, seq, options.timing); });
  m.wns_percent = timing.wns_percent;
  m.tns_ns = timing.tns_ns;
  m.peak_density_near_macros = timed("place.density", [&] {
                                 return compute_density(placed, options.density_grid);
                               }).peak_density_near_macros();
  return m;
}

namespace {

struct SweepSlot {
  PlacementResult result;
  Metrics metrics;
};

// Same selection as the library's sweep: lowest evaluated WL, first
// index on ties.
PlacementResult take_best(std::vector<SweepSlot>& slots, const char* flow_name) {
  std::size_t winner = slots.size();
  double best_wl = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].metrics.wl_m < best_wl) {
      best_wl = slots[i].metrics.wl_m;
      winner = i;
    }
  }
  PlacementResult best;
  if (winner < slots.size()) best = std::move(slots[winner].result);
  best.flow_name = flow_name;
  return best;
}

PlacementResult indeda_flow(const Design& design, const Context& context,
                            const FlowOptions& options) {
  WallPackOptions wp;
  wp.anneal = options.hidap.layout_anneal;
  wp.anneal.seed = options.seed ^ 0x1aed;
  wp.anneal.moves_per_temperature =
      static_cast<int>(wp.anneal.moves_per_temperature * options.indeda_effort);
  PlacementResult result = timed("baseline.wall_pack", [&] {
    return place_macros_walls(design, context.ht, context.seq, wp);
  });
  std::vector<Rect> region(context.ht.size());
  std::vector<std::uint8_t> region_valid(context.ht.size(), 0);
  region[static_cast<std::size_t>(context.ht.root())] = Rect{0, 0, design.die().w, design.die().h};
  region_valid[static_cast<std::size_t>(context.ht.root())] = 1;
  const Span span("core.flip");
  flip_macros(design, context.ht, region, region_valid, result.macros,
              options.hidap.flipping_passes);
  return result;
}

PlacementResult hidap_flow(const Design& design, const Context& context,
                           const FlowOptions& options) {
  std::vector<SweepSlot> slots(std::size(HiDaPOptions::kLambdaSweep));
  parallel_for(
      slots.size(),
      [&](std::size_t i) {
        HiDaPOptions opts = options.hidap;
        opts.lambda = HiDaPOptions::kLambdaSweep[i];
        opts.job.seed = options.seed;
        slots[i].result = place(design, context.adjacency, context.ht, context.seq, opts);
        slots[i].metrics =
            evaluate(design, context.ht, context.seq, slots[i].result, options.eval);
      },
      effective_thread_count(options.hidap.num_threads));
  return take_best(slots, "HiDaP");
}

PlacementResult handfp_flow(const Design& design, const Context& context,
                            const FlowOptions& options) {
  constexpr std::size_t kLambdas = std::size(HiDaPOptions::kLambdaSweep);
  std::vector<SweepSlot> slots(static_cast<std::size_t>(options.handfp_seeds) * kLambdas);
  parallel_for(
      slots.size(),
      [&](std::size_t t) {
        const int s = static_cast<int>(t / kLambdas);
        HiDaPOptions opts = options.hidap;
        opts.lambda = HiDaPOptions::kLambdaSweep[t % kLambdas];
        opts.job.seed =
            s == 0 ? options.seed
                   : options.seed * 7919 + static_cast<std::uint64_t>(s) * 104729 + 13;
        opts.scale_effort(options.handfp_effort);
        slots[t].result = place(design, context.adjacency, context.ht, context.seq, opts);
        slots[t].metrics =
            evaluate(design, context.ht, context.seq, slots[t].result, options.eval);
      },
      effective_thread_count(options.hidap.num_threads));
  return take_best(slots, "handFP");
}

}  // namespace

FlowsOutput run_flows(const Design& design, const FlowOptions& options) {
  const Context context(design, options.hidap.seq);
  FlowsOutput out;
  const auto flow_task = [&](const char* layer, Metrics& metrics, PlacementResult& placement,
                             PlacementResult (*flow)(const Design&, const Context&,
                                                     const FlowOptions&)) {
    return [&, layer, flow] {
      const Span span(layer);
      placement = flow(design, context, options);
      metrics = evaluate(design, context.ht, context.seq, placement, options.eval);
    };
  };
  {
    const Span span("runtime.fork_join");
    parallel_invoke(
        {flow_task("baseline.indeda_flow", out.metrics.indeda, out.indeda, indeda_flow),
         flow_task("eval.hidap_flow", out.metrics.hidap, out.hidap, hidap_flow),
         flow_task("eval.handfp_flow", out.metrics.handfp, out.handfp, handfp_flow)},
        effective_thread_count(options.hidap.num_threads));
  }
  const double ref = out.metrics.handfp.wl_m > 0 ? out.metrics.handfp.wl_m : 1.0;
  out.metrics.indeda.wl_norm = out.metrics.indeda.wl_m / ref;
  out.metrics.hidap.wl_norm = out.metrics.hidap.wl_m / ref;
  out.metrics.handfp.wl_norm = 1.0;
  return out;
}

TracedSession::TracedSession(HiDaPOptions base) : base_(std::move(base)) {
  base_.job = JobState{};
}

TracedSession::Outcome TracedSession::run(const std::string& verilog, std::uint64_t seed) {
  Outcome outcome;
  std::uint64_t design_key = 0;
  {
    const Span span("service.lookup");
    design_key = ArtifactCache::design_key(verilog);
    outcome.design =
        cache_.design(design_key, [&verilog] { return parse(verilog); }, &outcome.design_cached);
  }
  const Design& design = *outcome.design;

  // The per-spec stamping PlacementSession::run does for a spec with
  // default lambda/k/halo/chains/effort.
  HiDaPOptions options = base_;
  const PlacementJobSpec defaults;
  options.lambda = defaults.lambda;
  options.k = defaults.k;
  options.macro_halo = defaults.macro_halo;
  options.layout_anneal.chains = defaults.chains > 1 ? defaults.chains : 1;
  options.scale_effort(defaults.effort);
  options.job.seed = seed;

  std::shared_ptr<const PlacementContext> context;
  std::uint64_t context_key = 0;
  {
    const Span span("service.lookup");
    context_key = ArtifactCache::context_key(design_key, options.seq);
    context = cache_.context(
        context_key,
        [&design, &options] {
          PlacementContext built =
              timed("context.build", [&] { return PlacementContext(design, options.seq); });
          count_context(built.ht, built.seq);
          return built;
        },
        &outcome.context_cached);
  }

  std::uint64_t curves_key = 0;
  std::uint64_t plan_key = 0;
  PlacementArtifacts artifacts;
  {
    const Span span("service.lookup");
    curves_key =
        ArtifactCache::curves_key(context_key, seed, options.macro_halo, options.shape_fp);
    plan_key = ArtifactCache::plan_key(context_key, options.min_area_frac,
                                       options.open_area_frac, options.job.preplaced);
    artifacts.shape_curves = cache_.find_curves(curves_key);
    artifacts.recursion_plan = cache_.find_plan(plan_key);
  }
  outcome.curves_cached = artifacts.shape_curves != nullptr;
  outcome.plan_cached = artifacts.recursion_plan != nullptr;

  outcome.placement =
      place(design, context->adjacency, context->ht, context->seq, options, &artifacts);

  const Span span("service.lookup");
  if (!outcome.curves_cached) cache_.store_curves(curves_key, artifacts.shape_curves);
  if (!outcome.plan_cached) cache_.store_plan(plan_key, artifacts.recursion_plan);
  return outcome;
}

}  // namespace perfbench
