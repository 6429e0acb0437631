// Simulated-annealing engine tests: convergence on simple landscapes,
// determinism, hook contracts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "floorplan/annealer.hpp"
#include "obs/metrics.hpp"
#include "util/job_control.hpp"

namespace hidap {
namespace {

// 1-D quadratic bowl explored by +-1 steps on an integer line.
struct Bowl {
  int x = 40;
  int backup = 40;
  Rng rng{7};
  double cost() const { return static_cast<double>(x) * x; }
};

TEST(Annealer, MinimizesQuadraticBowl) {
  Bowl bowl;
  AnnealOptions opt;
  opt.seed = 3;
  AnnealHooks hooks;
  hooks.propose = [&]() {
    bowl.backup = bowl.x;
    bowl.x += bowl.rng.next_bool() ? 1 : -1;
    return bowl.cost();
  };
  hooks.reject = [&]() { bowl.x = bowl.backup; };
  const AnnealStats stats = anneal(bowl.cost(), opt, hooks);
  EXPECT_LT(stats.best_cost, 25.0);  // well below the initial 1600
  EXPECT_GT(stats.moves_attempted, 0);
  EXPECT_GE(stats.moves_attempted, stats.moves_accepted);
}

TEST(Annealer, DeterministicGivenSeed) {
  const auto run = [](std::uint64_t seed) {
    Bowl bowl;
    AnnealOptions opt;
    opt.seed = seed;
    AnnealHooks hooks;
    hooks.propose = [&]() {
      bowl.backup = bowl.x;
      bowl.x += bowl.rng.next_bool() ? 1 : -1;
      return bowl.cost();
    };
    hooks.reject = [&]() { bowl.x = bowl.backup; };
    return anneal(bowl.cost(), opt, hooks).best_cost;
  };
  EXPECT_DOUBLE_EQ(run(11), run(11));
}

TEST(Annealer, OnNewBestMonotone) {
  Bowl bowl;
  AnnealOptions opt;
  double last_best = 1e18;
  bool monotone = true;
  AnnealHooks hooks;
  hooks.propose = [&]() {
    bowl.backup = bowl.x;
    bowl.x += bowl.rng.next_bool() ? 1 : -1;
    return bowl.cost();
  };
  hooks.reject = [&]() { bowl.x = bowl.backup; };
  hooks.on_new_best = [&](double c) {
    if (c >= last_best) monotone = false;
    last_best = c;
  };
  anneal(bowl.cost(), opt, hooks);
  EXPECT_TRUE(monotone);
}

TEST(Annealer, StagnationTerminates) {
  // Flat landscape: cost never changes; the run must stop via the
  // stagnation counter rather than looping to the temperature floor.
  AnnealOptions opt;
  opt.max_stagnant_temperatures = 3;
  opt.moves_per_temperature = 10;
  AnnealHooks hooks;
  hooks.propose = []() { return 1.0; };
  hooks.reject = []() {};
  const AnnealStats stats = anneal(1.0, opt, hooks);
  EXPECT_LE(stats.temperature_steps, 4);
}

TEST(Annealer, BestImprovementToleranceUnifiedAcrossPhases) {
  // Sub-tolerance improvements are accepted as moves but never refresh
  // the best snapshot -- neither during the calibration walk nor in the
  // cooling loop (historically the two phases disagreed: strict < in
  // calibration, 1e-15 in the loop).
  // A hair below the starting cost, but above best - tolerance.
  const double sub_tolerance = 1.0 - kAnnealBestImprovementEps / 4;
  ASSERT_LT(sub_tolerance, 1.0);
  int new_best_calls = 0;
  AnnealOptions opt;
  opt.calibration_moves = 10;
  opt.moves_per_temperature = 10;
  opt.max_stagnant_temperatures = 1;
  AnnealHooks hooks;
  hooks.propose = [&]() { return sub_tolerance; };
  hooks.reject = [&]() { FAIL() << "downhill move rejected"; };
  hooks.on_new_best = [&](double) { ++new_best_calls; };
  const AnnealStats stats = anneal(1.0, opt, hooks);
  EXPECT_EQ(new_best_calls, 0);
  EXPECT_EQ(stats.best_cost, 1.0);
  EXPECT_EQ(stats.moves_accepted, stats.moves_attempted);
}

TEST(Annealer, RealImprovementsRefreshBestInBothPhases) {
  // Improvements beyond the tolerance must fire on_new_best in the
  // calibration walk and the cooling loop alike.
  double value = 100.0;
  int new_best_calls = 0;
  AnnealOptions opt;
  opt.calibration_moves = 3;
  opt.moves_per_temperature = 3;
  opt.max_stagnant_temperatures = 1;
  AnnealHooks hooks;
  hooks.propose = [&]() { return value -= 1.0; };
  hooks.reject = [&]() { FAIL() << "downhill move rejected"; };
  hooks.on_new_best = [&](double) { ++new_best_calls; };
  const AnnealStats stats = anneal(100.0, opt, hooks);
  // Every proposal improved by 1.0 >> the tolerance: one call per move,
  // calibration included.
  EXPECT_EQ(new_best_calls, static_cast<int>(stats.moves_attempted) + opt.calibration_moves);
  EXPECT_GT(stats.moves_attempted, 0);
}

TEST(Annealer, CommitFiresOncePerKeptMove) {
  // Contract of the incremental-evaluator hooks: every proposal is
  // followed by exactly one commit (kept) or reject (undone), and the
  // calibration walk commits everything.
  Bowl bowl;
  long proposals = 0, commits = 0, rejects = 0;
  AnnealOptions opt;
  opt.seed = 5;
  AnnealHooks hooks;
  hooks.propose = [&]() {
    ++proposals;
    bowl.backup = bowl.x;
    bowl.x += bowl.rng.next_bool() ? 1 : -1;
    return bowl.cost();
  };
  hooks.commit = [&]() { ++commits; };
  hooks.reject = [&]() {
    ++rejects;
    bowl.x = bowl.backup;
  };
  const AnnealStats stats = anneal(bowl.cost(), opt, hooks);
  EXPECT_EQ(commits + rejects, proposals);
  EXPECT_EQ(commits, stats.moves_accepted + opt.calibration_moves);
  EXPECT_EQ(rejects, stats.moves_attempted - stats.moves_accepted);
}

TEST(Annealer, AcceptsDownhillAlways) {
  // Strictly improving proposals must all be accepted.
  double value = 100.0;
  AnnealOptions opt;
  opt.moves_per_temperature = 50;
  opt.max_stagnant_temperatures = 1;
  AnnealHooks hooks;
  hooks.propose = [&]() { return value -= 0.5; };
  hooks.reject = [&]() { FAIL() << "downhill move rejected"; };
  const AnnealStats stats = anneal(100.0, opt, hooks);
  EXPECT_EQ(stats.moves_accepted, stats.moves_attempted);
}

TEST(AnnealerCancel, PreCancelledRunsNoMoves) {
  JobControl control;
  control.request_cancel();
  Bowl bowl;
  AnnealOptions opt;
  opt.control = &control;
  AnnealHooks hooks;
  hooks.propose = [&]() {
    bowl.backup = bowl.x;
    bowl.x += bowl.rng.next_bool() ? 1 : -1;
    return bowl.cost();
  };
  hooks.reject = [&]() { bowl.x = bowl.backup; };
  const AnnealStats stats = anneal(bowl.cost(), opt, hooks);
  EXPECT_TRUE(stats.stopped);
  EXPECT_EQ(stats.moves_attempted, 0);
  EXPECT_DOUBLE_EQ(stats.best_cost, stats.initial_cost);
}

TEST(AnnealerCancel, MidScheduleCancelStopsWithinOneMove) {
  // Cancel from inside the Nth proposal: the engine must settle that
  // move (commit or reject, so the caller's state stays consistent) and
  // then return without proposing another.
  JobControl control;
  Bowl bowl;
  long proposals = 0;
  const long cancel_at = 120;
  AnnealOptions opt;
  opt.control = &control;
  opt.moves_per_temperature = 500;
  AnnealHooks hooks;
  hooks.propose = [&]() {
    if (++proposals == cancel_at) control.request_cancel();
    bowl.backup = bowl.x;
    bowl.x += bowl.rng.next_bool() ? 1 : -1;
    return bowl.cost();
  };
  hooks.reject = [&]() { bowl.x = bowl.backup; };
  const AnnealStats stats = anneal(bowl.cost(), opt, hooks);
  EXPECT_TRUE(stats.stopped);
  EXPECT_EQ(proposals, cancel_at);
}

TEST(AnnealerCancel, NullAndUncancelledControlAreBitIdentical) {
  // The cancellation predicate must not perturb the RNG stream: a null
  // control, an idle control, and the pre-cancellation engine all walk
  // the same trajectory.
  const auto run = [](const JobControl* control) {
    Bowl bowl;
    AnnealOptions opt;
    opt.seed = 17;
    opt.control = control;
    AnnealHooks hooks;
    hooks.propose = [&]() {
      bowl.backup = bowl.x;
      bowl.x += bowl.rng.next_bool() ? 1 : -1;
      return bowl.cost();
    };
    hooks.reject = [&]() { bowl.x = bowl.backup; };
    const AnnealStats stats = anneal(bowl.cost(), opt, hooks);
    EXPECT_FALSE(stats.stopped);
    return std::make_pair(stats.best_cost, stats.moves_attempted);
  };
  JobControl idle;
  EXPECT_EQ(run(nullptr), run(&idle));
}

// The exhaustion hook is polled before every calibration and cooling
// move; once it answers true the schedule proposes nothing more, never
// reports another best, and says why it ended.
TEST(AnnealerExhausted, PolledBeforeEveryMoveAndEndsTheSchedule) {
  AnnealOptions opt;
  opt.seed = 5;
  opt.moves_per_temperature = 40;
  // 10 and 45 fire inside the 50-move calibration walk, 51 on the first
  // cooling move, 200 mid-cooling; 1e9 never fires.
  for (const long fire_at : {10L, 45L, 51L, 200L, 1000000000L}) {
    Bowl bowl;
    long proposals = 0, polls = 0;
    bool polled = false, fired = false;
    AnnealHooks hooks;
    hooks.propose = [&]() {
      EXPECT_TRUE(polled) << "move " << proposals << " was not preceded by a poll";
      EXPECT_FALSE(fired) << "move proposed after exhaustion";
      polled = false;
      ++proposals;
      bowl.backup = bowl.x;
      bowl.x += bowl.rng.next_bool() ? 1 : -1;
      return bowl.cost();
    };
    hooks.reject = [&]() { bowl.x = bowl.backup; };
    hooks.on_new_best = [&](double) { EXPECT_FALSE(fired) << "new best after exhaustion"; };
    hooks.exhausted = [&]() {
      ++polls;
      polled = true;
      fired = proposals >= fire_at;
      return fired;
    };
    obs::Counter& runs = obs::default_registry().counter("sa.exhausted_runs");
    const std::uint64_t runs_before = runs.value();
    const AnnealStats stats = anneal(bowl.cost(), opt, hooks);
    EXPECT_EQ(stats.exhausted, fired) << "fire_at " << fire_at;
    EXPECT_EQ(runs.value() - runs_before, fired ? 1u : 0u) << "fire_at " << fire_at;
    if (fired) {
      EXPECT_EQ(proposals, fire_at);
      EXPECT_EQ(polls, proposals + 1);  // the last poll fired
      EXPECT_EQ(stats.moves_attempted, std::max(0L, fire_at - opt.calibration_moves));
    } else {
      EXPECT_EQ(polls, proposals);
    }
  }
}

// An armed hook that never fires walks the exact trajectory of no hook.
TEST(AnnealerExhausted, UnfiredHookIsBitIdenticalToNone) {
  const auto run = [](bool armed) {
    Bowl bowl;
    AnnealOptions opt;
    opt.seed = 23;
    AnnealHooks hooks;
    hooks.propose = [&]() {
      bowl.backup = bowl.x;
      bowl.x += bowl.rng.next_bool() ? 1 : -1;
      return bowl.cost();
    };
    hooks.reject = [&]() { bowl.x = bowl.backup; };
    if (armed) hooks.exhausted = [] { return false; };
    const AnnealStats stats = anneal(bowl.cost(), opt, hooks);
    EXPECT_FALSE(stats.exhausted);
    return std::make_tuple(stats.best_cost, stats.moves_attempted, stats.moves_accepted, bowl.x);
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace hidap
