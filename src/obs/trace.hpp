#pragma once
// Phase tracer: RAII spans with steady-clock timestamps and thread ids,
// recorded into per-thread ring buffers and exported as Chrome
// trace_event JSON -- loadable in Perfetto / chrome://tracing -- plus a
// self-time-per-phase text summary (ISSUE 7 tentpole, part 2).
//
// Contract with the hot paths:
//
//  * Disabled (the default, unless HIDAP_TRACE is set or a front end
//    calls set_tracing_enabled): a span site costs one relaxed atomic
//    load and a branch -- nothing else runs, no clock is read. The
//    bench_micro BM_ObsSpanDisabled kernel pins this.
//  * Enabled: a span costs two steady_clock reads plus one append into
//    the calling thread's ring buffer (a briefly-held per-thread mutex
//    that only the exporter ever contends on). Buffers are fixed-size
//    rings: when full the oldest events are overwritten and the drop is
//    counted, so tracing can never grow without bound or stall a job.
//  * Tracing never reads or advances any RNG and no placement code
//    branches on it, so placements are byte-identical with tracing on
//    or off, at any thread count.
//
// Span names and categories must be string literals (or otherwise
// outlive the tracer): events store the pointers, not copies.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hidap::obs {

/// Global tracing switch. Seeded from the HIDAP_TRACE environment
/// variable ("0" or unset = off); front ends flip it for --trace-json /
/// --phase-summary runs. Relaxed loads: a toggle mid-run takes effect
/// on spans that start afterwards.
bool tracing_enabled();
void set_tracing_enabled(bool enabled);

/// One completed span. Timestamps are steady-clock nanoseconds since the
/// tracer epoch (first use in the process).
struct TraceEvent {
  const char* name = nullptr;  ///< static string
  const char* cat = nullptr;   ///< static string
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< tracer-assigned small id, stable per thread
  /// Up to two numeric tags (chain index, DFS ordinal, depth, ...),
  /// exported into the Chrome event's "args" object.
  static constexpr int kMaxArgs = 2;
  const char* arg_name[kMaxArgs] = {nullptr, nullptr};
  std::int64_t arg_value[kMaxArgs] = {0, 0};
  int arg_count = 0;
};

/// RAII span: times construction to destruction and records the event
/// into this thread's ring buffer. When tracing is disabled at
/// construction the object is inert (the destructor re-checks nothing).
class Span {
 public:
  explicit Span(const char* name, const char* cat = "hidap");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric tag (up to TraceEvent::kMaxArgs; extras are
  /// dropped). No-op on an inert span.
  void arg(const char* name, std::int64_t value);

  bool active() const { return active_; }

 private:
  TraceEvent event_;
  bool active_ = false;
};

/// RAII phase clock for the coarse phases (a placement and its four
/// steps, a service job, the flows' shared precompute, an evaluation
/// batch, a baseline run, a bench circuit): a Span of the same extent plus a steady-clock
/// reading, added on destruction as whole microseconds to
/// `phase.<name>_us` in default_registry() whether or not tracing is on.
/// The counter add looks its handle up by name, so a Phase is for
/// phases that run a handful of times per job; per-level and per-move
/// sites use a plain Span.
class Phase {
 public:
  explicit Phase(const char* name, const char* cat = "pipeline");
  ~Phase();

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Span::arg on the phase's span.
  void arg(const char* name, std::int64_t value) { span_.arg(name, value); }

  /// Seconds since construction.
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  const char* name_;
  Span span_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

/// Self-time aggregation of the recorded spans: for every span name, the
/// number of spans, total (inclusive) seconds and self seconds (total
/// minus the time covered by nested child spans on the same thread).
struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  /// The process-global tracer; never destroyed (thread-local buffers
  /// may flush during static teardown).
  static Tracer& instance();

  /// Appends to the calling thread's ring buffer (created on first use,
  /// capacity ring_capacity()). Called by ~Span; rarely needed directly.
  void record(const TraceEvent& event);

  /// Events per thread before the ring wraps. Default 1 << 16,
  /// overridable with HIDAP_TRACE_BUFFER. Takes effect for buffers
  /// created afterwards.
  std::size_t ring_capacity() const { return capacity_.load(std::memory_order_relaxed); }
  void set_ring_capacity(std::size_t capacity);

  /// Snapshot of every thread's surviving events, ordered by (tid,
  /// start). Safe to call while other threads keep recording -- those
  /// threads' in-flight appends land in the next snapshot.
  std::vector<TraceEvent> collect() const;

  /// Events lost to ring wrap-around since the last clear().
  std::uint64_t dropped() const;

  /// Discards all recorded events (buffers stay registered).
  void clear();

  /// Writes Chrome trace_event JSON ({"traceEvents":[...]}, one event
  /// per line, "X" complete events, ts/dur in microseconds). Returns
  /// false and fills `error` when the file cannot be written.
  bool export_chrome_trace(const std::string& path, std::string* error = nullptr) const;

  /// Per-phase self-time aggregation, largest self time first.
  std::vector<PhaseStat> phase_stats() const;

  /// Human-readable table of phase_stats() (the --phase-summary output).
  std::string phase_summary() const;

 private:
  Tracer();
  struct ThreadBuffer;

  ThreadBuffer& local_buffer();

  mutable std::mutex registry_mutex_;
  std::vector<ThreadBuffer*> buffers_;  ///< never freed; bounded by thread count
  std::atomic<std::size_t> capacity_;
  std::atomic<std::uint32_t> next_tid_{0};
  std::int64_t epoch_ns_ = 0;

  friend class Span;
  std::int64_t now_ns() const;
};

/// Convenience: phase_stats()/summary of the global tracer.
std::vector<PhaseStat> phase_stats();
std::string phase_summary();

}  // namespace hidap::obs
