#include "eval/flows.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "baseline/wall_packer.hpp"
#include "core/recursive_floorplan.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/log.hpp"

namespace hidap {

namespace {

// One configuration of a sweep: the placement and its full evaluation,
// produced by a pool task that only writes its own slot. The winner is
// picked sequentially afterwards, in sweep order, so the selection -- and
// therefore the returned placement -- is bit-identical at any thread
// count (see runtime/thread_pool.hpp for the determinism contract).
struct SweepSlot {
  PlacementResult result;
  Metrics metrics;
};

// A sweep's winning placement with the evaluation its slot already ran.
struct SweepWinner {
  PlacementResult placement;
  Metrics metrics;
};

// The recursion plan and the curve sets every slot of a sweep adopts,
// built once before the slots run: the plan depends on none of lambda,
// seed or effort, and a curve set on the seed and the curve-packing
// effort, never on lambda. Adopting them is bit-identical to each slot
// computing its own (see PlacementArtifacts).
struct SweepArtifacts {
  std::shared_ptr<const RecursionPlan> plan;
  std::vector<std::shared_ptr<const std::vector<ShapeCurve>>> curves;  ///< per seed
  double seconds = 0.0;  ///< precompute time, part of the flow's effort
};

SweepArtifacts sweep_artifacts(const Design& design, const PlacementContext& context,
                               const std::vector<HiDaPOptions>& seeds) {
  SweepArtifacts out;
  if (seeds.empty()) return out;
  const obs::Phase phase("artifacts");
  out.curves.resize(seeds.size());
  // Task i < seeds.size() packs seed i's curves; the last task plans.
  parallel_for(
      seeds.size() + 1,
      [&](std::size_t i) {
        const HiDaPOptions& opts = seeds[std::min(i, seeds.size() - 1)];
        RecursiveFloorplanner floorplanner(design, context.adjacency, context.ht,
                                           context.seq, opts);
        if (i == seeds.size()) {
          const obs::Span span("plan", "pipeline");
          out.plan = std::make_shared<const RecursionPlan>(floorplanner.plan());
        } else {
          const obs::Span span("curves", "pipeline");
          floorplanner.generate_shape_curves();
          out.curves[i] =
              std::make_shared<const std::vector<ShapeCurve>>(floorplanner.shape_curves());
        }
      },
      effective_thread_count(seeds.front().num_threads));
  out.seconds = phase.seconds();
  return out;
}

// The flow's reported effort is its shared precompute plus the SUM of
// its configurations' runtime_seconds, not the fork-join span: on a
// shared pool the span overlaps the other flows' and circuits' work,
// which would inflate the Table II/III effort columns and make them
// thread-count dependent. Evaluation is not effort: it is the
// measurement, not the flow.
SweepWinner take_best(std::vector<SweepSlot>& slots, double shared_seconds,
                      const char* flow_name, const PlacementEvaluator& evaluator) {
  SweepWinner best;
  double effort = shared_seconds;
  std::size_t winner = slots.size();
  double best_wl = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    effort += slots[i].result.runtime_seconds;
    if (slots[i].metrics.wl_m < best_wl) {
      best_wl = slots[i].metrics.wl_m;
      winner = i;
    }
  }
  if (winner < slots.size()) {
    best.placement = std::move(slots[winner].result);
    best.metrics = std::move(slots[winner].metrics);
  } else {
    best.metrics = evaluator.evaluate(best.placement);  // empty sweep
  }
  best.placement.runtime_seconds = effort;
  best.placement.flow_name = flow_name;
  best.metrics.runtime_s = effort;
  best.metrics.flow = flow_name;
  return best;
}

SweepWinner hidap_sweep(const Design& design, const PlacementContext& context,
                        const PlacementEvaluator& evaluator, const FlowOptions& options) {
  HiDaPOptions base = options.hidap;  // copies the job state too
  base.job.seed = options.seed;
  const SweepArtifacts shared = sweep_artifacts(design, context, {base});
  std::vector<SweepSlot> slots(std::size(HiDaPOptions::kLambdaSweep));
  parallel_for(
      slots.size(),
      [&](std::size_t i) {
        HiDaPOptions opts = base;
        opts.lambda = HiDaPOptions::kLambdaSweep[i];
        PlacementArtifacts artifacts{shared.curves.front(), shared.plan};
        slots[i].result = place_macros(design, context, opts, &artifacts);
        slots[i].metrics = evaluator.evaluate(slots[i].result);
        if (JobControl* control = options.hidap.job.control) {
          control->post_progress("hidap lambda=%.1f: WL=%.3f m (%.2fs)",
                                 HiDaPOptions::kLambdaSweep[i], slots[i].metrics.wl_m,
                                 slots[i].result.runtime_seconds);
        }
      },
      effective_thread_count(options.hidap.num_threads));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    HIDAP_LOG_INFO("HiDaP lambda=%.1f: WL=%.3f m", HiDaPOptions::kLambdaSweep[i],
                   slots[i].metrics.wl_m);
  }
  return take_best(slots, shared.seconds, "HiDaP", evaluator);
}

SweepWinner handfp_sweep(const Design& design, const PlacementContext& context,
                         const PlacementEvaluator& evaluator, const FlowOptions& options) {
  constexpr std::size_t kLambdas = std::size(HiDaPOptions::kLambdaSweep);
  std::vector<HiDaPOptions> seeds(static_cast<std::size_t>(std::max(0, options.handfp_seeds)),
                                  options.hidap);  // copies the job state too
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    // Seed 0 re-runs the tool's own configuration at expert effort (the
    // engineer starts from the tool output); later seeds explore.
    seeds[s].job.seed =
        s == 0 ? options.seed : options.seed * 7919 + static_cast<std::uint64_t>(s) * 104729 + 13;
    seeds[s].scale_effort(options.handfp_effort);
  }
  const SweepArtifacts shared = sweep_artifacts(design, context, seeds);
  std::vector<SweepSlot> slots(seeds.size() * kLambdas);
  parallel_for(
      slots.size(),
      [&](std::size_t t) {
        const std::size_t s = t / kLambdas;
        HiDaPOptions opts = seeds[s];
        opts.lambda = HiDaPOptions::kLambdaSweep[t % kLambdas];
        PlacementArtifacts artifacts{shared.curves[s], shared.plan};
        slots[t].result = place_macros(design, context, opts, &artifacts);
        slots[t].metrics = evaluator.evaluate(slots[t].result);
      },
      effective_thread_count(options.hidap.num_threads));
  return take_best(slots, shared.seconds, "handFP", evaluator);
}

}  // namespace

PlacementResult run_indeda_flow(const Design& design, const PlacementContext& context,
                                const FlowOptions& options) {
  WallPackOptions wp;
  wp.anneal = options.hidap.layout_anneal;
  wp.anneal.seed = options.seed ^ 0x1aed;
  // The job handle reaches every flow's SA loop: a cancelled comparison
  // winds down the wall packer just like the HiDaP sweeps.
  wp.anneal.control = options.hidap.job.control;
  wp.anneal.moves_per_temperature = static_cast<int>(
      wp.anneal.moves_per_temperature * options.indeda_effort);
  PlacementResult result = place_macros_walls(design, context.ht, context.seq, wp);
  // Industrial floorplanners orient macros too: flip with die-level
  // position estimates for the standard cells.
  std::vector<Rect> region(context.ht.size());
  std::vector<std::uint8_t> region_valid(context.ht.size(), 0);
  region[static_cast<std::size_t>(context.ht.root())] =
      Rect{0, 0, design.die().w, design.die().h};
  region_valid[static_cast<std::size_t>(context.ht.root())] = 1;
  flip_macros(design, context.ht, context.macro_nets, region, region_valid, result.macros,
              options.hidap.flipping_passes);
  if (const JobControl* control = options.hidap.job.control) {
    result.status = status_from_stop(control->stop_reason());
  }
  return result;
}

PlacementResult run_hidap_flow(const Design& design, const PlacementContext& context,
                               const FlowOptions& options) {
  const PlacementEvaluator evaluator(design, context.ht, context.seq, options.eval);
  return hidap_sweep(design, context, evaluator, options).placement;
}

PlacementResult run_handfp_flow(const Design& design, const PlacementContext& context,
                                const FlowOptions& options) {
  const PlacementEvaluator evaluator(design, context.ht, context.seq, options.eval);
  return handfp_sweep(design, context, evaluator, options).placement;
}

FlowComparison compare_flows(const Design& design, const FlowOptions& options) {
  const PlacementContext context(design, options.hidap.seq);
  // One cell-placement model for every evaluation of this design.
  const PlacementEvaluator evaluator(design, context.ht, context.seq, options.eval);
  FlowComparison cmp;

  // The three flows only read the shared design/context/evaluator; each
  // task fills its own Metrics member. Inner sweeps nest on the same
  // pool. The sweeps' winners come with their slot's evaluation, so only
  // the IndEDA result is evaluated here.
  parallel_invoke(
      {[&] { cmp.indeda = evaluator.evaluate(run_indeda_flow(design, context, options)); },
       [&] { cmp.hidap = hidap_sweep(design, context, evaluator, options).metrics; },
       [&] { cmp.handfp = handfp_sweep(design, context, evaluator, options).metrics; }},
      effective_thread_count(options.hidap.num_threads));

  const double ref = cmp.handfp.wl_m > 0 ? cmp.handfp.wl_m : 1.0;
  cmp.indeda.wl_norm = cmp.indeda.wl_m / ref;
  cmp.hidap.wl_norm = cmp.hidap.wl_m / ref;
  cmp.handfp.wl_norm = 1.0;
  return cmp;
}

}  // namespace hidap
