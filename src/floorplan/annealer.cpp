#include "floorplan/annealer.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/job_control.hpp"
#include "util/log.hpp"

namespace hidap {

namespace {

// One flush per completed schedule: the move loop keeps its counts in
// AnnealStats exactly as before (zero added work per move) and the
// totals land in the process registry -- and the job's MetricScope when
// one rides on the control -- only here.
void flush_anneal_metrics(const AnnealOptions& options, const AnnealStats& stats) {
  obs::MetricsRegistry* targets[2] = {&obs::default_registry(), nullptr};
  if (options.control != nullptr) targets[1] = options.control->job_metrics();
  for (obs::MetricsRegistry* registry : targets) {
    if (registry == nullptr) continue;
    registry->counter("sa.runs").add(1);
    registry->counter("sa.moves_proposed")
        .add(static_cast<std::uint64_t>(stats.moves_attempted));
    registry->counter("sa.moves_accepted")
        .add(static_cast<std::uint64_t>(stats.moves_accepted));
    registry->counter("sa.moves_rejected")
        .add(static_cast<std::uint64_t>(stats.moves_attempted - stats.moves_accepted));
    registry->counter("sa.best_improvements")
        .add(static_cast<std::uint64_t>(stats.best_improvements));
    registry->counter("sa.temperature_steps")
        .add(static_cast<std::uint64_t>(stats.temperature_steps));
    if (stats.stopped) registry->counter("sa.stopped_runs").add(1);
  }
}

}  // namespace

AnnealStats anneal(double initial_cost, const AnnealOptions& options,
                   const AnnealHooks& hooks) {
  obs::Span span(options.obs_site != nullptr ? options.obs_site : "anneal", "sa");
  Rng rng(options.seed);
  AnnealStats stats;
  stats.initial_cost = initial_cost;
  stats.best_cost = initial_cost;

  double current = initial_cost;

  // Cooperative stop: polled between moves only, so hook state is
  // always consistent (the last proposal was committed or rejected)
  // and the caller's best-so-far snapshot is usable as-is.
  const auto stop_requested = [&options] {
    return options.control != nullptr && options.control->should_stop();
  };

  // --- temperature calibration: average uphill magnitude of random moves.
  double uphill_sum = 0.0;
  int uphill_count = 0;
  {
    obs::Span calibration_span("sa_calibrate", "sa");
    for (int i = 0; i < options.calibration_moves; ++i) {
      if (stop_requested()) {
        stats.stopped = true;
        flush_anneal_metrics(options, stats);
        return stats;
      }
      const double cost = hooks.propose();
      const double delta = cost - current;
      if (delta > 0) {
        uphill_sum += delta;
        ++uphill_count;
      }
      // Accept everything during calibration (random walk), tracking best.
      current = cost;
      if (hooks.commit) hooks.commit();
      if (anneal_improves_best(current, stats.best_cost)) {
        stats.best_cost = current;
        ++stats.best_improvements;
        if (hooks.on_new_best) hooks.on_new_best(current);
      }
    }
  }
  const double avg_uphill = uphill_count > 0 ? uphill_sum / uphill_count
                                             : std::max(1e-12, std::abs(initial_cost) * 0.05);
  const double t0 = -avg_uphill / std::log(options.initial_acceptance);
  double temperature = std::max(t0, 1e-12);
  const double t_frozen = temperature * options.frozen_temperature_ratio;

  int stagnant = 0;
  while (!stats.stopped && temperature > t_frozen &&
         stagnant < options.max_stagnant_temperatures) {
    obs::Span temperature_span("sa_temp", "sa");
    temperature_span.arg("step", stats.temperature_steps);
    bool improved = false;
    for (int m = 0; m < options.moves_per_temperature; ++m) {
      if (stop_requested()) {
        stats.stopped = true;
        break;
      }
      ++stats.moves_attempted;
      const double cost = hooks.propose();
      const double delta = cost - current;
      const bool accept = delta <= 0 || rng.next_double() < std::exp(-delta / temperature);
      if (accept) {
        ++stats.moves_accepted;
        current = cost;
        if (hooks.commit) hooks.commit();
        if (anneal_improves_best(current, stats.best_cost)) {
          stats.best_cost = current;
          improved = true;
          ++stats.best_improvements;
          if (hooks.on_new_best) hooks.on_new_best(current);
        }
      } else {
        hooks.reject();
      }
    }
    ++stats.temperature_steps;
    stagnant = improved ? 0 : stagnant + 1;
    temperature *= options.cooling;
  }
  flush_anneal_metrics(options, stats);
  HIDAP_LOG_DEBUG("anneal: %ld/%ld accepted, %d temps, cost %.4g -> %.4g",
                  stats.moves_accepted, stats.moves_attempted, stats.temperature_steps,
                  stats.initial_cost, stats.best_cost);
  return stats;
}

}  // namespace hidap
