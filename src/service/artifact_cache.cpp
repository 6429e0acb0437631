#include "service/artifact_cache.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"

namespace hidap {

namespace {

// Cache traffic is a few lookups per job, so bumping the process
// registry inline (name lookup included) is fine here -- this is not a
// hot path.
void bump_cache_counter(const char* kind, const char* outcome) {
  obs::default_registry()
      .counter(std::string("cache.") + kind + "." + outcome)
      .add(1);
}

}  // namespace

template <typename T>
std::shared_ptr<const T> ArtifactCache::single_flight(
    std::map<std::uint64_t, std::shared_future<Flight<T>>>& store, std::uint64_t key,
    std::uint64_t& hits, std::uint64_t& misses, std::uint64_t& waits, const char* kind,
    const std::function<T()>& make, bool* was_hit) {
  std::promise<Flight<T>> promise;
  std::shared_future<Flight<T>> future;
  bool leader = false;
  bool waited = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = store.find(key);
    if (it != store.end()) {
      ++hits;
      future = it->second;
      // Not ready yet => this call parks behind the leader's
      // computation rather than copying a finished pointer.
      waited = future.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
      if (waited) ++waits;
    } else {
      ++misses;
      leader = true;
      future = promise.get_future().share();
      store.emplace(key, future);
    }
  }
  if (was_hit != nullptr) *was_hit = !leader;
  bump_cache_counter(kind, leader ? "miss" : "hit");
  if (waited) bump_cache_counter(kind, "wait");
  if (leader) {
    // On failure, publish the error to waiters already parked on the
    // future, but drop the entry so the key stays retriable (same
    // content hashes to the same key, so a retry usually fails the same
    // way -- but a transient failure, e.g. an I/O hiccup in the factory,
    // heals). The leader rethrows its own exception; waiters get a copy
    // each, so the last release of a shared exception object never
    // happens on a thread other than the ones that read it.
    const auto fail = [&](ErrorCode code, std::string error) {
      promise.set_value(Flight<T>{nullptr, code, std::move(error)});
      std::lock_guard<std::mutex> lock(mutex_);
      store.erase(key);
    };
    try {
      auto value = std::make_shared<const T>(make());
      promise.set_value(Flight<T>{value, ErrorCode::Internal, {}});
      return value;
    } catch (const std::exception& e) {
      fail(classify_exception(e), e.what());
      throw;
    } catch (...) {
      fail(ErrorCode::Internal, "unknown non-standard exception");
      throw;
    }
  }
  const Flight<T>& flight = future.get();
  if (!flight.value) throw HidapError(flight.code, flight.error);
  return flight.value;
}

std::shared_ptr<const Design> ArtifactCache::design(
    std::uint64_t key, const std::function<Design()>& parse, bool* was_hit) {
  // The fail point fires inside the leader's factory, so an injected
  // parse fault takes the real error path: published to every waiter
  // parked on the single-flight future, then the key is erased so the
  // next attempt retries cleanly (no poisoned entry).
  const std::function<Design()> make = [&parse]() {
    HIDAP_FAILPOINT("cache.design_parse");
    return parse();
  };
  return single_flight(designs_, key, stats_.design_hits, stats_.design_misses,
                       stats_.design_waits, "design", make, was_hit);
}

std::shared_ptr<const PlacementContext> ArtifactCache::context(
    std::uint64_t key, const std::function<PlacementContext()>& build, bool* was_hit) {
  const std::function<PlacementContext()> make = [&build]() {
    HIDAP_FAILPOINT("cache.context_build");
    return build();
  };
  return single_flight(contexts_, key, stats_.context_hits, stats_.context_misses,
                       stats_.context_waits, "context", make, was_hit);
}

std::shared_ptr<const std::vector<ShapeCurve>> ArtifactCache::find_curves(
    std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = curves_.find(key);
  if (it == curves_.end()) {
    ++stats_.curve_misses;
    bump_cache_counter("curves", "miss");
    return nullptr;
  }
  ++stats_.curve_hits;
  bump_cache_counter("curves", "hit");
  return it->second;
}

void ArtifactCache::store_curves(std::uint64_t key,
                                 std::shared_ptr<const std::vector<ShapeCurve>> curves) {
  if (!curves) return;
  // An injected fault throws into the session's donation guard: the
  // donation is dropped (the next job recomputes) and the completed job
  // is never failed.
  HIDAP_FAILPOINT("cache.donate");
  std::lock_guard<std::mutex> lock(mutex_);
  curves_.emplace(key, std::move(curves));  // first donor wins; same key = same bytes
}

std::shared_ptr<const RecursionPlan> ArtifactCache::find_plan(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) {
    ++stats_.plan_misses;
    bump_cache_counter("plan", "miss");
    return nullptr;
  }
  ++stats_.plan_hits;
  bump_cache_counter("plan", "hit");
  return it->second;
}

void ArtifactCache::store_plan(std::uint64_t key,
                               std::shared_ptr<const RecursionPlan> plan) {
  if (!plan) return;
  HIDAP_FAILPOINT("cache.donate");
  std::lock_guard<std::mutex> lock(mutex_);
  plans_.emplace(key, std::move(plan));
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::uint64_t ArtifactCache::design_key(std::string_view verilog_text) {
  return HashBuilder(0x6431).str(verilog_text).digest();
}

std::uint64_t ArtifactCache::context_key(std::uint64_t design_key,
                                         const SeqExtractOptions& seq) {
  return HashBuilder(0xc785)
      .u64(design_key)
      .i32(seq.bit_threshold)
      .digest();
}

std::uint64_t ArtifactCache::curves_key(std::uint64_t context_key, std::uint64_t seed,
                                        double macro_halo,
                                        const AreaFloorplanOptions& fp) {
  // Everything generate_shape_curves() reads: the per-node leaf shapes
  // (design + halo), the SA schedule and its seed, and the curve
  // pruning/merging caps. AnnealOptions::control is deliberately NOT
  // part of the key -- cancellation never changes an uncancelled run,
  // and cancelled runs never store. AnnealOptions::incremental is not
  // either: it picks the packer's evaluator, and both produce
  // bit-identical curves.
  return HashBuilder(0x5c01)
      .u64(context_key)
      .u64(seed)
      .f64(macro_halo)
      .f64(fp.anneal.cooling)
      .i32(fp.anneal.moves_per_temperature)
      .i32(fp.anneal.calibration_moves)
      .i32(fp.anneal.max_stagnant_temperatures)
      .u64(fp.curve_points)
      .i32(fp.best_solutions_merged)
      .digest();
}

std::uint64_t ArtifactCache::plan_key(std::uint64_t context_key, double min_area_frac,
                                      double open_area_frac,
                                      const std::vector<MacroPlacement>& preplaced) {
  // plan_recursion() walks the hierarchy tree (context), splits by the
  // area fractions, and skips subtrees whose macros are all preplaced;
  // positions of the preplaced macros do not shape the plan, only WHICH
  // cells are fixed.
  HashBuilder b(0x91a2);
  b.u64(context_key).f64(min_area_frac).f64(open_area_frac);
  b.u64(preplaced.size());
  for (const MacroPlacement& m : preplaced) b.i64(static_cast<std::int64_t>(m.cell));
  return b.digest();
}

}  // namespace hidap
