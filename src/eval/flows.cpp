#include "eval/flows.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "baseline/wall_packer.hpp"
#include "core/recursive_floorplan.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/log.hpp"

namespace hidap {

namespace {

// A sweep's winning placement with the evaluation the sweep's batch ran.
struct SweepWinner {
  PlacementResult placement;
  Metrics metrics;
};

// The recursion plan and the curve sets every slot of the sweeps adopts,
// built once before the slots run: the plan depends on none of lambda,
// seed or effort, and a curve set on the seed and the curve-packing
// effort, never on lambda. Adopting them is bit-identical to each slot
// computing its own (see PlacementArtifacts).
struct SweepArtifacts {
  std::shared_ptr<const RecursionPlan> plan;
  std::vector<std::shared_ptr<const std::vector<ShapeCurve>>> curves;  ///< per seed
  double plan_seconds = 0.0;
  std::vector<double> curve_seconds;  ///< per seed
};

// One parallel_for: task i < seeds.size() packs seed i's curves, the
// last task plans. Each task's own time is kept, so a flow's effort
// counts its own seeds' curves and not the fork-join span, which
// overlaps other work on a shared pool.
SweepArtifacts sweep_artifacts(const Design& design, const PlacementContext& context,
                               const std::vector<HiDaPOptions>& seeds) {
  SweepArtifacts out;
  if (seeds.empty()) return out;
  const obs::Phase phase("artifacts");
  out.curves.resize(seeds.size());
  out.curve_seconds.resize(seeds.size());
  parallel_for(
      seeds.size() + 1,
      [&](std::size_t i) {
        const auto start = std::chrono::steady_clock::now();
        const HiDaPOptions& opts = seeds[std::min(i, seeds.size() - 1)];
        RecursiveFloorplanner floorplanner(design, context.adjacency, context.ht,
                                           context.seq, opts);
        double& seconds = i == seeds.size() ? out.plan_seconds : out.curve_seconds[i];
        if (i == seeds.size()) {
          const obs::Span span("plan", "pipeline");
          out.plan = std::make_shared<const RecursionPlan>(floorplanner.plan());
        } else {
          const obs::Span span("curves", "pipeline");
          floorplanner.generate_shape_curves();
          out.curves[i] =
              std::make_shared<const std::vector<ShapeCurve>>(floorplanner.shape_curves());
        }
        seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                      .count();
      },
      effective_thread_count(seeds.front().num_threads));
  return out;
}

// HiDaP runs the tool's own configuration; handFP's seed 0 re-runs it at
// expert effort (the engineer starts from the tool output), later seeds
// explore.
HiDaPOptions hidap_seed(const FlowOptions& options) {
  HiDaPOptions seed = options.hidap;  // copies the job state too
  seed.job.seed = options.seed;
  return seed;
}

std::vector<HiDaPOptions> handfp_seeds(const FlowOptions& options) {
  std::vector<HiDaPOptions> seeds(static_cast<std::size_t>(std::max(0, options.handfp_seeds)),
                                  options.hidap);  // copies the job state too
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    seeds[s].job.seed =
        s == 0 ? options.seed : options.seed * 7919 + static_cast<std::uint64_t>(s) * 104729 + 13;
    seeds[s].scale_effort(options.handfp_effort);
  }
  return seeds;
}

// One flow's sweep: the seeds [first_seed, end_seed) of the run's seed
// list, each at every lambda. With `report_slots` (HiDaP's lambda
// sweep) each slot's wirelength is logged and posted as job progress
// once the sweep's batch is measured.
struct Sweep {
  const char* flow_name;
  std::size_t first_seed;
  std::size_t end_seed;
  bool report_slots;
};

// Runs the sweeps in three flat pool stages, so every lane has work at
// each join: (1) the shared plan and every seed's curves, (2) every
// sweep's placements, plus `alongside` (IndEDA in compare_flows) as the
// first and longest task, (3) one batched evaluation per sweep. Pool
// tasks only write their own slot, and each winner is picked in slot
// order, so the selection -- and therefore the returned placement -- is
// bit-identical at any thread count (see runtime/thread_pool.hpp for the
// determinism contract).
//
// A flow's reported effort is the plan, its own seeds' curves and the
// SUM of its configurations' runtime_seconds, not a fork-join span: on a
// shared pool the span overlaps the other flows' and circuits' work,
// which would inflate the Table II/III effort columns and make them
// thread-count dependent. Evaluation is not effort: it is the
// measurement, not the flow.
std::vector<SweepWinner> run_sweeps(const Design& design, const PlacementContext& context,
                                    const PlacementEvaluator& evaluator,
                                    const FlowOptions& options,
                                    const std::vector<HiDaPOptions>& seeds,
                                    std::span<const Sweep> sweeps,
                                    const std::function<void()>& alongside = nullptr) {
  constexpr std::size_t kLambdas = std::size(HiDaPOptions::kLambdaSweep);
  const int lanes = effective_thread_count(options.hidap.num_threads);
  const SweepArtifacts shared = sweep_artifacts(design, context, seeds);

  // Slot t is seed t / kLambdas at lambda t % kLambdas.
  const std::size_t extra = alongside ? 1 : 0;
  std::vector<PlacementResult> slots(seeds.size() * kLambdas);
  parallel_for(
      extra + slots.size(),
      [&](std::size_t task) {
        if (task < extra) return alongside();
        const std::size_t t = task - extra;
        const std::size_t s = t / kLambdas;
        HiDaPOptions opts = seeds[s];
        opts.lambda = HiDaPOptions::kLambdaSweep[t % kLambdas];
        PlacementArtifacts artifacts{shared.curves[s], shared.plan};
        slots[t] = place_macros(design, context, opts, &artifacts);
      },
      lanes);

  std::vector<SweepWinner> winners(sweeps.size());
  parallel_for(
      sweeps.size(),
      [&](std::size_t w) {
        const Sweep& sweep = sweeps[w];
        const std::size_t first = sweep.first_seed * kLambdas;
        const std::size_t end = sweep.end_seed * kLambdas;
        double effort = first < end ? shared.plan_seconds : 0.0;
        for (std::size_t s = sweep.first_seed; s < sweep.end_seed; ++s) {
          effort += shared.curve_seconds[s];
        }
        std::vector<const PlacementResult*> batch;
        for (std::size_t t = first; t < end; ++t) {
          effort += slots[t].runtime_seconds;
          batch.push_back(&slots[t]);
        }
        SweepMetrics measured = evaluator.evaluate_sweep(batch);
        for (std::size_t i = 0; sweep.report_slots && i < batch.size(); ++i) {
          const double lambda = HiDaPOptions::kLambdaSweep[i % kLambdas];
          HIDAP_LOG_INFO("HiDaP lambda=%.1f: WL=%.3f m", lambda, measured.wl_m[i]);
          if (JobControl* control = options.hidap.job.control) {
            control->post_progress("hidap lambda=%.1f: WL=%.3f m (%.2fs)", lambda,
                                   measured.wl_m[i], batch[i]->runtime_seconds);
          }
        }

        SweepWinner& best = winners[w];
        if (measured.winner < batch.size()) {
          best.placement = std::move(slots[first + measured.winner]);
          best.metrics = std::move(measured.best);
        } else {
          best.metrics = evaluator.evaluate(best.placement);  // empty sweep
        }
        best.placement.runtime_seconds = effort;
        best.placement.flow_name = sweep.flow_name;
        best.metrics.runtime_s = effort;
        best.metrics.flow = sweep.flow_name;
      },
      lanes);
  return winners;
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
  const Sweep sweep{"HiDaP", 0, 1, true};
  return std::move(run_sweeps(design, context, evaluator, options, {hidap_seed(options)},
                              {&sweep, 1})
                       .front()
                       .placement);
}

PlacementResult run_handfp_flow(const Design& design, const PlacementContext& context,
                                const FlowOptions& options) {
  const PlacementEvaluator evaluator(design, context.ht, context.seq, options.eval);
  const std::vector<HiDaPOptions> seeds = handfp_seeds(options);
  const Sweep sweep{"handFP", 0, seeds.size(), false};
  return std::move(
      run_sweeps(design, context, evaluator, options, seeds, {&sweep, 1}).front().placement);
}

FlowComparison compare_flows(const Design& design, const FlowOptions& options) {
  const PlacementContext context(design, options.hidap.seq);
  // One cell-placement model for every evaluation of this design.
  const PlacementEvaluator evaluator(design, context.ht, context.seq, options.eval);
  FlowComparison cmp;

  // HiDaP's seed first, then handFP's: both sweeps adopt one plan. The
  // flows only read the shared design/context/evaluator; IndEDA runs
  // beside the sweeps' placements and is the only result evaluated on
  // its own -- the sweeps' winners come with their batch's evaluation.
  std::vector<HiDaPOptions> seeds = handfp_seeds(options);
  seeds.insert(seeds.begin(), hidap_seed(options));
  const Sweep sweeps[] = {{"HiDaP", 0, 1, true}, {"handFP", 1, seeds.size(), false}};
  std::vector<SweepWinner> winners =
      run_sweeps(design, context, evaluator, options, seeds, sweeps, [&] {
        cmp.indeda = evaluator.evaluate(run_indeda_flow(design, context, options));
      });
  cmp.hidap = std::move(winners[0].metrics);
  cmp.handfp = std::move(winners[1].metrics);

  const double ref = cmp.handfp.wl_m > 0 ? cmp.handfp.wl_m : 1.0;
  cmp.indeda.wl_norm = cmp.indeda.wl_m / ref;
  cmp.hidap.wl_norm = cmp.hidap.wl_m / ref;
  cmp.handfp.wl_norm = 1.0;
  return cmp;
}

}  // namespace hidap
