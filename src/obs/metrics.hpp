#pragma once
// Metrics registry: named counters, gauges and fixed-bucket histograms
// with thread-sharded atomic cells (ISSUE 7 tentpole, part 1).
//
// Design rules, in order of importance:
//
//  * Never aggregate on the hot path. A handle write is one relaxed
//    fetch_add on the calling thread's shard cell (cacheline-padded, so
//    concurrent writers never false-share); value() sums the shards and
//    only readers pay for it. Instrumented loops resolve handles ONCE
//    (registry lookup takes a mutex) and hold the pointer; better still,
//    they accumulate locally and flush totals when the loop exits (the
//    annealer flushes its AnnealStats once per schedule, adding zero
//    work per move).
//  * Handles are stable forever. The registry never erases a metric, so
//    a Counter* cached across jobs stays valid for the process lifetime;
//    reset() zeroes cells without invalidating pointers (tests only).
//  * One scope. default_registry() is the process-global registry
//    (server-wide totals). A job's own phase walls travel in its
//    result (PlacementResult::phases), not in a registry.
//
// Everything here is observability-side: no code path may branch on a
// metric value, so recording can never perturb the RNG/accept streams
// and placements stay byte-identical with metrics on or off.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hidap::obs {

/// Shard count for every metric cell array. Threads are assigned shards
/// round-robin on first use, so up to kShards writers proceed without
/// contending on one cacheline. Power of two.
inline constexpr std::size_t kShards = 16;

/// This thread's shard slot in [0, kShards).
std::size_t shard_index();

namespace detail {
/// One cacheline-padded atomic cell; the padding keeps neighboring
/// shards from false-sharing under concurrent writers.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> value{0};
};
struct alignas(64) SignedCell {
  std::atomic<std::int64_t> value{0};
};
}  // namespace detail

/// Monotonic counter. add() is wait-free; value() aggregates on read.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cells_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const detail::Cell& c : cells_) sum += c.value.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (detail::Cell& c : cells_) c.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::Cell, kShards> cells_;
};

/// Delta-based gauge: concurrent add(+1)/add(-1) pairs from any threads
/// sum to the live level (e.g. queue depth), read with value().
class Gauge {
 public:
  void add(std::int64_t delta) {
    cells_[shard_index()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    std::int64_t sum = 0;
    for (const detail::SignedCell& c : cells_) {
      sum += c.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void reset() {
    for (detail::SignedCell& c : cells_) c.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::SignedCell, kShards> cells_;
};

/// Aggregated histogram state, assembled by snapshot()/Histogram::read().
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< inclusive upper bounds, ascending
  std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;             ///< total observations
  double sum = 0.0;                    ///< sum of observed values
};

/// Fixed-bucket histogram. Bucket i counts values v with
/// bounds[i-1] < v <= bounds[i]; one extra overflow bucket takes
/// v > bounds.back(). record() is one bucket search (over a handful of
/// bounds) plus two relaxed adds on this thread's shard.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double value);
  HistogramSnapshot read() const;
  const std::vector<double>& bounds() const { return bounds_; }
  void reset();

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<double> sum{0.0};  ///< CAS-accumulated; writes are rare per shard
  };

  std::vector<double> bounds_;
  std::vector<Shard> shards_;
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

  /// Aggregated point-in-time view, name-sorted (map order).
  struct Sample {
    enum class Kind { Counter, Gauge, Histogram };
    std::string name;
    Kind kind = Kind::Counter;
    std::uint64_t counter = 0;
    std::int64_t gauge = 0;
    HistogramSnapshot hist;
  };
  std::vector<Sample> snapshot() const;

  /// Flat key -> number view: counters and gauges by name, histograms
  /// exploded as name.count / name.sum / name.le_<bound> / name.overflow.
  /// Flat on purpose: one service/json-parseable object.
  std::vector<std::pair<std::string, double>> flat_values() const;

  /// One flat JSON object of flat_values() (the --metrics-json payload
  /// and the serve "metrics" event body).
  std::string to_json() const;

  /// Zeroes every cell; handles stay valid. Test isolation only.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-global registry (server-wide totals). Never destroyed, so
/// pool threads and static teardown can never race its death.
MetricsRegistry& default_registry();

}  // namespace hidap::obs
