#include "core/hidap.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "core/recursive_floorplan.hpp"
#include "floorplan/legalizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace hidap {

namespace {

// One pipeline phase of place_macros: a trace span plus its wall time,
// added on exit to `phase.<name>_us` in the process registry and in the
// job's MetricScope (when one rides on the control). The phases are
// disjoint, so their counters partition the run. A handful of counter
// adds per placement -- never on any per-move path.
class PhaseScope {
 public:
  PhaseScope(const char* name, const JobControl* control)
      : name_(name), control_(control), span_(name, "pipeline") {}

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() {
    const auto micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(clock::now() - start_)
            .count());
    const std::string counter = std::string("phase.") + name_ + "_us";
    obs::default_registry().counter(counter).add(micros);
    if (control_ != nullptr) {
      if (obs::MetricsRegistry* job = control_->job_metrics()) {
        job->counter(counter).add(micros);
      }
    }
  }

 private:
  using clock = std::chrono::steady_clock;
  const char* name_;
  const JobControl* control_;
  obs::Span span_;
  clock::time_point start_ = clock::now();
};

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
  obs::Span place_span("place", "pipeline");
  Timer timer;
  JobControl* control = options.job.control;
  const Rect die{0, 0, design.die().w, design.die().h};
  if (die.area() <= 0) throw std::invalid_argument("place_macros: empty die");
  if (design.macro_count() == 0) throw std::invalid_argument("place_macros: no macros");

  RecursiveFloorplanner floorplanner(design, context.adjacency, context.ht, context.seq,
                                     options);
  if (artifacts != nullptr && artifacts->recursion_plan) {
    floorplanner.adopt_recursion_plan(*artifacts->recursion_plan);
  }
  // Adopted curves cost nothing and report nothing.
  if (artifacts != nullptr && artifacts->shape_curves) {
    floorplanner.adopt_shape_curves(*artifacts->shape_curves);
  } else {
    const PhaseScope phase("curves", control);
    floorplanner.generate_shape_curves();
  }
  PlacementResult result;
  {
    const PhaseScope phase("recursion", control);
    result = floorplanner.run(die);
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
    result.runtime_seconds = timer.seconds();
    result.flow_name = "HiDaP";
    return result;
  }

  std::set<CellId> preplaced;
  for (const MacroPlacement& m : options.job.preplaced) preplaced.insert(m.cell);
  {
    const PhaseScope phase("flip", control);
    flip_macros(design, context.ht, context.macro_nets, floorplanner.region_of_node(),
                floorplanner.region_valid(), result.macros, options.flipping_passes,
                preplaced.empty() ? nullptr : &preplaced);
  }

  // Final legality pass: snapping and preplacement can leave small
  // overlaps, halo violations or a corner-snapped macro past the die
  // edge; clean them with minimal displacement. Macros the legalizer
  // could not clear are counted, not hidden.
  if (options.macro_halo > 0.0 || !all_inside(result.macros, die) ||
      total_overlap(result.macros, options.macro_halo) > 0.0) {
    const PhaseScope phase("legalize", control);
    LegalizeOptions legal;
    legal.halo = options.macro_halo;
    legal.fixed = preplaced;
    const LegalizeStats stats = legalize_macros(design, result.macros, legal);
    if (stats.unresolved > 0) {
      const auto unresolved = static_cast<std::uint64_t>(stats.unresolved);
      obs::default_registry().counter("legalize.unresolved").add(unresolved);
      if (obs::MetricsRegistry* job = control != nullptr ? control->job_metrics() : nullptr) {
        job->counter("legalize.unresolved").add(unresolved);
      }
      HIDAP_LOG_WARN("legalize: %d macros left overlapping", stats.unresolved);
    }
  }

  // A stop requested after the recursion finished still reports its
  // status (the refinement passes above ran; the placement is full
  // quality, but callers polling for cancellation must see it honored).
  result.status =
      control != nullptr ? status_from_stop(control->stop_reason()) : JobStatus::Completed;
  result.runtime_seconds = timer.seconds();
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
