#include "core/hidap.hpp"

#include <algorithm>
#include <cstdint>
#include <set>

#include "core/recursive_floorplan.hpp"
#include "floorplan/legalizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace hidap {

namespace {

// Die containment at check_placement()'s default tolerance.
bool all_inside(const std::vector<MacroPlacement>& macros, const Rect& die) {
  return std::all_of(macros.begin(), macros.end(),
                     [&die](const MacroPlacement& m) { return die.contains(m.rect, 1e-6); });
}

}  // namespace

PlacementResult place_macros(const Design& design, const HiDaPOptions& options) {
  const PlacementContext context(design, options.seq);
  return place_macros(design, context, options);
}

PlacementResult place_macros(const Design& design, const PlacementContext& context,
                             const HiDaPOptions& options, PlacementArtifacts* artifacts) {
  const obs::Phase place("place");
  JobControl* control = options.job.control;
  const Rect die{0, 0, design.die().w, design.die().h};
  if (die.area() <= 0) {
    throw HidapError(ErrorCode::InvalidRequest, "place_macros: empty die");
  }
  if (design.macro_count() == 0) {
    throw HidapError(ErrorCode::InvalidRequest, "place_macros: no macros");
  }

  RecursiveFloorplanner floorplanner(design, context.adjacency, context.ht, context.seq,
                                     options);
  if (artifacts != nullptr && artifacts->recursion_plan) {
    floorplanner.adopt_recursion_plan(*artifacts->recursion_plan);
  }
  // The four steps are disjoint Phases, so their counters partition
  // the run. run() replaces `result`, so their seconds are kept aside
  // and copied in on return. Adopted curves cost nothing and report
  // nothing.
  PhaseSeconds phases;
  if (artifacts != nullptr && artifacts->shape_curves) {
    floorplanner.adopt_shape_curves(*artifacts->shape_curves);
  } else {
    const obs::Phase phase("curves");
    floorplanner.generate_shape_curves();
    phases.curves_s = phase.seconds();
  }
  PlacementResult result;
  {
    const obs::Phase phase("recursion");
    result = floorplanner.run(die);
    phases.recursion_s = phase.seconds();
  }

  const bool stopped = control != nullptr && control->should_stop();
  if (artifacts != nullptr && !stopped) {
    // Export this run's precomputes for the caller to cache. Stopped
    // runs are excluded: their curve anneals exited early, so the
    // curves are not the pure function of the cache key that a hit
    // must be byte-equal to.
    if (!artifacts->shape_curves) {
      artifacts->shape_curves =
          std::make_shared<std::vector<ShapeCurve>>(floorplanner.shape_curves());
    }
    if (!artifacts->recursion_plan) {
      artifacts->recursion_plan =
          std::make_shared<RecursionPlan>(floorplanner.recursion_plan());
    }
  }

  if (stopped) {
    // Wind down promptly: the flipping and legalization post-passes are
    // refinement only, so a cancelled job skips them and returns the
    // recursion's coarse-but-complete placement as-is.
    if (control != nullptr) {
      control->post_progress("stopped (%s): returning partial placement of %zu macros",
                             to_string(status_from_stop(control->stop_reason())),
                             result.macros.size());
    }
    result.status = status_from_stop(control->stop_reason());
    result.phases = phases;
    result.runtime_seconds = place.seconds();
    result.flow_name = "HiDaP";
    return result;
  }

  std::set<CellId> preplaced;
  for (const MacroPlacement& m : options.job.preplaced) preplaced.insert(m.cell);
  {
    const obs::Phase phase("flip");
    flip_macros(design, context.ht, context.macro_nets, floorplanner.region_of_node(),
                floorplanner.region_valid(), result.macros, options.flipping_passes,
                preplaced.empty() ? nullptr : &preplaced);
    phases.flip_s = phase.seconds();
  }

  // Final legality pass: snapping and preplacement can leave small
  // overlaps, halo violations or a corner-snapped macro past the die
  // edge; clean them with minimal displacement. Macros the legalizer
  // could not clear are counted, not hidden.
  if (options.macro_halo > 0.0 || !all_inside(result.macros, die) ||
      total_overlap(result.macros, options.macro_halo) > 0.0) {
    const obs::Phase phase("legalize");
    LegalizeOptions legal;
    legal.halo = options.macro_halo;
    legal.fixed = preplaced;
    const LegalizeStats stats = legalize_macros(design, result.macros, legal);
    if (stats.unresolved > 0) {
      obs::default_registry()
          .counter("legalize.unresolved")
          .add(static_cast<std::uint64_t>(stats.unresolved));
      HIDAP_LOG_WARN("legalize: %d macros left overlapping", stats.unresolved);
    }
    phases.legalize_s = phase.seconds();
  }

  // A stop requested after the recursion finished still reports its
  // status (the refinement passes above ran; the placement is full
  // quality, but callers polling for cancellation must see it honored).
  result.status =
      control != nullptr ? status_from_stop(control->stop_reason()) : JobStatus::Completed;
  result.phases = phases;
  result.runtime_seconds = place.seconds();
  result.flow_name = "HiDaP";
  HIDAP_LOG_INFO("HiDaP placed %zu macros in %.2fs (lambda=%.2f)", result.macros.size(),
                 result.runtime_seconds, options.lambda);
  return result;
}

PlacementCheck check_placement(const Design& design, const PlacementResult& result,
                               const Rect& die, double tolerance) {
  PlacementCheck check;
  check.all_macros_placed = result.macros.size() == design.macro_count();
  check.all_inside_die = true;
  const Rect grown{die.x - tolerance, die.y - tolerance, die.w + 2 * tolerance,
                   die.h + 2 * tolerance};
  for (const MacroPlacement& m : result.macros) {
    if (!grown.contains(m.rect)) check.all_inside_die = false;
  }
  for (std::size_t i = 0; i < result.macros.size(); ++i) {
    for (std::size_t j = i + 1; j < result.macros.size(); ++j) {
      check.overlap_area += result.macros[i].rect.overlap_area(result.macros[j].rect);
    }
  }
  return check;
}

}  // namespace hidap
