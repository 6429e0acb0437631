#pragma once
// Benchmark-side layer tracing: RAII spans around calls into the
// library's public API, named after the src/ module that does the work
// ("netlist.parse", "core.recursion", "place.place_cells", ...).
//
// Spans live entirely in the benchmark's own files; the library is
// never instrumented. A disabled tracer makes a Span one relaxed load.
// Each thread keeps a stack of open spans, so a span's self time is its
// wall minus the walls of the spans opened inside it on the same
// thread. Spans opened on pool lanes (the flow sweeps) record busy time
// on that lane, so per-layer sums can exceed a job's wall.
//
// Coverage: on a thread marked as a client (the closed-loop threads that
// issue jobs), the wall of every outermost span is added to a covered
// total; divided by the summed job wall it is the share of each job's
// wall spent inside named layer calls.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace perfbench {

struct LayerTotals {
  double self_s = 0.0;       ///< wall minus nested spans, summed over calls
  double inclusive_s = 0.0;  ///< wall including nested spans
  std::uint64_t calls = 0;
};

class LayerTrace {
 public:
  static LayerTrace& instance();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void record(const char* layer, double inclusive_s, double self_s);
  /// Size counters recorded beside the times (cells, Gseq nodes, ...).
  void add_count(const char* name, double value);
  void add_client_covered(double seconds);

  std::map<std::string, LayerTotals> layers() const;
  std::map<std::string, double> counts() const;
  double client_covered_s() const;
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, LayerTotals> layers_;
  std::map<std::string, double> counts_;
  double client_covered_s_ = 0.0;
};

/// Marks the calling thread as a closed-loop client (see coverage above).
void mark_client_thread();

/// Adds to a size counter when tracing is on.
void trace_count(const char* name, double value);

class Span {
 public:
  explicit Span(const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

/// Runs f() inside a span and returns its result (guaranteed elision, so
/// non-movable results work too).
template <typename F>
auto timed(const char* layer, F&& f) -> decltype(f()) {
  const Span span(layer);
  return f();
}

}  // namespace perfbench
