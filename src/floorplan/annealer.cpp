#include "floorplan/annealer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
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
  span.arg("chain", options.obs_chain);
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

AnnealStats anneal_multichain(
    const AnnealOptions& options,
    const std::function<AnnealChain(int chain, std::uint64_t seed)>& make_chain,
    int* best_chain, int max_threads) {
  const int chains = std::max(1, options.chains);
  std::vector<AnnealStats> stats(static_cast<std::size_t>(chains));
  parallel_for(
      static_cast<std::size_t>(chains),
      [&](std::size_t c) {
        // Chain 0 keeps the root seed so chains=1 matches anneal() exactly.
        const std::uint64_t seed =
            c == 0 ? options.seed : derive_task_seed(options.seed, c);
        AnnealChain chain = make_chain(static_cast<int>(c), seed);
        AnnealOptions chain_options = options;
        chain_options.seed = seed;
        chain_options.obs_chain = static_cast<int>(c);
        stats[c] = anneal(chain.initial_cost, chain_options, chain.hooks);
      },
      max_threads);

  std::size_t winner = 0;
  bool any_stopped = stats[0].stopped;
  for (std::size_t c = 1; c < stats.size(); ++c) {
    any_stopped = any_stopped || stats[c].stopped;
    if (stats[c].best_cost < stats[winner].best_cost) winner = c;
  }
  if (chains > 1) {
    HIDAP_LOG_DEBUG("anneal_multichain: chain %zu/%d wins at cost %.4g", winner, chains,
                    stats[winner].best_cost);
  }
  if (best_chain) *best_chain = static_cast<int>(winner);
  AnnealStats result = stats[winner];
  result.stopped = any_stopped;
  return result;
}

}  // namespace hidap
