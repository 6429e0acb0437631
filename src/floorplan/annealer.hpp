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

  /// Independent restart chains (anneal_multichain); the best chain's
  /// result is kept. 1 = the classical single schedule; > 1 runs the
  /// chains in parallel on the global thread pool.
  int chains = 1;

  /// Use the incremental move-evaluation engine where the caller has one
  /// (optimize_layout, flat SA). Off = full recompute on every proposal,
  /// the reference oracle. Both modes draw the same RNG stream and
  /// produce bit-identical costs, so the result is the same either way;
  /// the switch exists for differential testing and as an escape hatch.
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
  /// Chain index tag for multi-chain runs (anneal_multichain sets it).
  int obs_chain = 0;
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

/// One chain of a multi-chain run: hooks bound to chain-local state plus
/// the cost of that chain's starting solution.
struct AnnealChain {
  double initial_cost = 0.0;
  AnnealHooks hooks;
};

/// Multi-chain annealing: options.chains independent schedules, run in
/// parallel on the global thread pool (max_threads caps the lanes,
/// 1 = sequential). make_chain(c, seed) is called once per chain -- from
/// pool threads when parallel, so it must only touch chain-local state --
/// and chain c anneals with AnnealOptions.seed = seed, where seed is
/// derive_task_seed(options.seed, c) for c > 0 and options.seed itself
/// for chain 0. The chain with the lowest best_cost wins, ties broken
/// toward the lowest chain index, so the winner is independent of thread
/// count. With options.chains <= 1 this is exactly anneal() on
/// make_chain(0, options.seed).
AnnealStats anneal_multichain(
    const AnnealOptions& options,
    const std::function<AnnealChain(int chain, std::uint64_t seed)>& make_chain,
    int* best_chain = nullptr, int max_threads = 0);

}  // namespace hidap
