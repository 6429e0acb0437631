#pragma once
// Generic simulated-annealing engine shared by shape-curve generation and
// layout generation (paper sect. IV-A / IV-E).
//
// The caller owns the state; the engine drives the classical schedule:
// initial temperature calibrated from the mean uphill move magnitude,
// geometric cooling, a fixed number of attempted moves per temperature,
// and freezing on temperature floor or stagnation.

#include <cstdint>
#include <functional>

#include "util/rng.hpp"

namespace hidap {

class JobControl;  // util/job_control.hpp

struct AnnealOptions {
  double initial_acceptance = 0.9;   ///< target uphill acceptance at T0
  double cooling = 0.9;              ///< geometric cooling factor
  int moves_per_temperature = 200;   ///< attempts at each temperature step
  int calibration_moves = 50;        ///< random moves sampled to set T0
  double frozen_temperature_ratio = 1e-4;  ///< stop when T < ratio * T0
  int max_stagnant_temperatures = 8;       ///< stop after this many tempertures without improvement
  std::uint64_t seed = 1;

  /// Inert: every schedule is one chain and nothing reads this field.
  /// It stays only so callers that still assign it (the perfbench
  /// pipeline) keep compiling; it reaches no result and no cache key.
  int chains = 1;

  /// Selects optimize_layout's move evaluator: the incremental engine
  /// (IncrementalLayoutEval) or, when off, a full recompute on every
  /// proposal, the reference oracle. Both modes draw the same RNG stream
  /// and produce bit-identical costs, so the result is the same either
  /// way; the switch exists for differential testing.
  bool incremental = true;

  /// Cooperative stop handle, polled before every calibration and
  /// cooling move (promptness is bounded by one move, microseconds on
  /// the real problems). On stop the engine returns immediately with
  /// the stats so far and AnnealStats::stopped set; the caller's state
  /// is consistent (the check sits between moves) and its best-so-far
  /// snapshot is a valid partial result. Null (the default) never
  /// stops -- bit-identical to the pre-cancellation engine, since the
  /// RNG stream is untouched by the extra predicate.
  const JobControl* control = nullptr;

  /// Observability tag for this schedule's trace spans and counter
  /// flush: a static string naming the call site ("anneal_layout",
  /// "anneal_shape", "anneal_flat"; null = generic "anneal"). Purely
  /// observability-side: never part of any cache key, never read by the
  /// move loop, no effect on the RNG/accept stream.
  const char* obs_site = nullptr;
};

/// A proposal must undercut the best cost by at least this margin before
/// the best snapshot is refreshed; guards the on_new_best hook (which
/// typically copies the whole solution) against floating-point-noise
/// churn. Both the calibration walk and the cooling loop apply the same
/// tolerance.
inline constexpr double kAnnealBestImprovementEps = 1e-15;

inline bool anneal_improves_best(double cost, double best_cost) {
  return cost < best_cost - kAnnealBestImprovementEps;
}

struct AnnealHooks {
  /// Applies a random move and returns the resulting cost. The engine
  /// then either calls `commit` to keep it or `reject` to undo it.
  std::function<double()> propose;
  /// Undoes the last proposed move.
  std::function<void()> reject;
  /// Optional: called when the engine keeps the last proposed move
  /// (including every calibration move -- the calibration walk accepts
  /// everything). Incremental evaluators fold the proposal into their
  /// caches here; callers that mutate state in place can leave it unset.
  std::function<void()> commit;
  /// Called when a new global best cost is observed (after acceptance
  /// and after `commit`). Typical use: snapshot the current solution.
  std::function<void(double)> on_new_best;
};

struct AnnealStats {
  double initial_cost = 0.0;
  double best_cost = 0.0;
  long moves_attempted = 0;
  long moves_accepted = 0;
  /// Times the best snapshot was refreshed (on_new_best fires),
  /// calibration walk included.
  long best_improvements = 0;
  int temperature_steps = 0;
  /// True when AnnealOptions::control stopped the schedule early; the
  /// best cost/solution seen so far is still valid.
  bool stopped = false;
};

/// Runs the schedule; `initial_cost` is the cost of the starting state.
AnnealStats anneal(double initial_cost, const AnnealOptions& options,
                   const AnnealHooks& hooks);

}  // namespace hidap
