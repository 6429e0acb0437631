#pragma once
// Metrics registry: named counters, gauges and fixed-bucket histograms,
// each value one relaxed atomic.
//
// Design rules, in order of importance:
//
//  * Write rarely, and plainly. A handle write is one relaxed fetch_add
//    on the metric's own atomic. Instrumented code writes at flush
//    points, not per unit of work: the annealer accumulates into its
//    AnnealStats and flushes once per schedule, the recursion once per
//    level, the evaluator once per batch, so a placement job writes the
//    registry a few hundred times against tens of thousands of SA moves
//    and a contended cacheline costs nothing measurable. Hot paths
//    resolve handles ONCE (registry lookup takes a mutex) and hold the
//    reference.
//  * Handles are stable forever. The registry never erases a metric, so
//    a Counter& cached across jobs stays valid for the process lifetime;
//    reset() zeroes values without invalidating references (tests only).
//  * One scope. default_registry() is the process-global registry
//    (server-wide totals). A job's own phase walls travel in its
//    result (PlacementResult::phases), not in a registry.
//
// Everything here is observability-side: no code path may branch on a
// metric value, so recording can never perturb the RNG/accept streams
// and placements stay byte-identical with metrics on or off.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hidap::obs {

/// Monotonic counter. add() is one relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Delta-based gauge: concurrent add(+1)/add(-1) pairs from any threads
/// sum to the live level (e.g. queue depth), read with value().
class Gauge {
 public:
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Histogram state as read by Histogram::read().
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< inclusive upper bounds, ascending
  std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;             ///< total observations
  double sum = 0.0;                    ///< sum of observed values
};

/// Fixed-bucket histogram. Bucket i counts values v with
/// bounds[i-1] < v <= bounds[i]; one extra overflow bucket takes
/// v > bounds.back(). record() is one bucket search (over a handful of
/// bounds) plus two relaxed adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double value);
  HistogramSnapshot read() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<double> sum_{0.0};
};

/// Named metric directory. Thread-safe; handle creation locks, handle
/// use never does. Names are dotted lowercase ("sa.moves_accepted",
/// "pool.queue_wait_us") -- see README "Observability" for the table.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// The first caller's bounds win; later calls with the same name get
  /// the existing histogram regardless of their bounds argument.
  Histogram& histogram(std::string_view name, const std::vector<double>& bounds);

  /// Flat key -> number view: counters, then gauges, then histograms
  /// exploded as name.count / name.sum / name.le_<bound> / name.overflow,
  /// each group name-sorted. Flat on purpose: one service/json-parseable
  /// object.
  std::vector<std::pair<std::string, double>> flat_values() const;

  /// One flat JSON object of flat_values() (the --metrics-json payload
  /// and the serve "metrics" event body).
  std::string to_json() const;

  /// Zeroes every value; handles stay valid. Test isolation only.
  void reset();

 private:
  // std::map nodes never move, so the references handed out stay valid.
  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// The process-global registry (server-wide totals). Never destroyed, so
/// pool threads and static teardown can never race its death.
MetricsRegistry& default_registry();

}  // namespace hidap::obs
