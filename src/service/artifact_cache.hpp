#pragma once
// Content-hash keyed artifact cache for the placement service.
//
// Every expensive precompute of the pipeline is a pure function of an
// explicit key (an XXH64 hash of the inputs that actually feed it), so a
// cached artifact is byte-identical to recomputing it and adoption
// cannot change results:
//
//   design          <- verilog text
//   context         <- design key + Gseq extraction options
//   shape curves    <- context key + job seed + halo + shape-SA options
//   recursion plan  <- context key + area fractions + preplaced cells
//
// Designs and contexts are parsed/built single-flight: concurrent jobs
// over the same key share one std::shared_future, so one thread parses
// while the rest wait for the same immutable object instead of
// duplicating the work. Curves and plans come out of completed
// placement runs, so they use plain lookup / store-if-absent (a miss
// just means this job computes them itself and donates them).
//
// Stopped (cancelled / deadline-expired) runs never store artifacts:
// their curve anneals exited early, so their curves are NOT the pure
// function of the key above. PlacementSession enforces this.

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/hidap.hpp"
#include "core/recursive_floorplan.hpp"
#include "util/error.hpp"

namespace hidap {

class ArtifactCache {
 public:
  /// Monotonic hit/miss counters per store; a "hit" is a request served
  /// from (or coalesced onto) an existing entry, a "miss" triggered the
  /// computation. Tests use these to prove warm jobs skip parsing and
  /// planning.
  struct Stats {
    std::uint64_t design_hits = 0, design_misses = 0;
    std::uint64_t context_hits = 0, context_misses = 0;
    std::uint64_t curve_hits = 0, curve_misses = 0;
    std::uint64_t plan_hits = 0, plan_misses = 0;
    /// Single-flight coalescing: hits whose future was not yet ready at
    /// lookup, i.e. the caller parked behind a leader still computing.
    /// Subset of the respective hit counts.
    std::uint64_t design_waits = 0, context_waits = 0;
  };

  /// Returns the design for `key`, invoking `parse` exactly once per
  /// key across all threads (single-flight). Rethrows the parse error
  /// to every waiter; a failed key is retriable. `was_hit` (optional)
  /// reports whether THIS call was served from an existing entry --
  /// per-call truth, unlike the global Stats counters, which other
  /// concurrent jobs also bump.
  std::shared_ptr<const Design> design(std::uint64_t key,
                                       const std::function<Design()>& parse,
                                       bool* was_hit = nullptr);

  /// Same single-flight contract for the per-design analysis context.
  std::shared_ptr<const PlacementContext> context(
      std::uint64_t key, const std::function<PlacementContext()>& build,
      bool* was_hit = nullptr);

  /// Lookup/store for shape-curve sets; find counts a hit or miss,
  /// store keeps the first donor's value (later identical donations are
  /// dropped -- same key means same bytes).
  std::shared_ptr<const std::vector<ShapeCurve>> find_curves(std::uint64_t key);
  void store_curves(std::uint64_t key,
                    std::shared_ptr<const std::vector<ShapeCurve>> curves);

  /// Lookup/store for recursion plans, same contract as curves.
  std::shared_ptr<const RecursionPlan> find_plan(std::uint64_t key);
  void store_plan(std::uint64_t key, std::shared_ptr<const RecursionPlan> plan);

  Stats stats() const;

  // --- Key derivation (the documented cache-key semantics) ---
  static std::uint64_t design_key(std::string_view verilog_text);
  static std::uint64_t context_key(std::uint64_t design_key,
                                   const SeqExtractOptions& seq);
  static std::uint64_t curves_key(std::uint64_t context_key, std::uint64_t seed,
                                  double macro_halo, const AreaFloorplanOptions& fp);
  static std::uint64_t plan_key(std::uint64_t context_key, double min_area_frac,
                                double open_area_frac,
                                const std::vector<MacroPlacement>& preplaced);

 private:
  // What a single-flight future delivers: the artifact, or the leader's
  // failure as a code and a message (value null). Each waiter throws its
  // own HidapError from it; no exception object is shared across threads.
  template <typename T>
  struct Flight {
    std::shared_ptr<const T> value;
    ErrorCode code = ErrorCode::Internal;
    std::string error;
  };

  template <typename T>
  std::shared_ptr<const T> single_flight(
      std::map<std::uint64_t, std::shared_future<Flight<T>>>& store,
      std::uint64_t key, std::uint64_t& hits, std::uint64_t& misses,
      std::uint64_t& waits, const char* kind, const std::function<T()>& make,
      bool* was_hit);

  mutable std::mutex mutex_;
  Stats stats_;
  std::map<std::uint64_t, std::shared_future<Flight<Design>>> designs_;
  std::map<std::uint64_t, std::shared_future<Flight<PlacementContext>>> contexts_;
  std::map<std::uint64_t, std::shared_ptr<const std::vector<ShapeCurve>>> curves_;
  std::map<std::uint64_t, std::shared_ptr<const RecursionPlan>> plans_;
};

}  // namespace hidap
