#include "layer_trace.hpp"

#include <vector>

namespace perfbench {

namespace {

// Per-thread stack of open spans: each entry accumulates the walls of
// the spans closed inside it, so the closing span can subtract them.
thread_local std::vector<double> t_child_walls;
thread_local bool t_is_client = false;

}  // namespace

LayerTrace& LayerTrace::instance() {
  static LayerTrace trace;
  return trace;
}

void LayerTrace::record(const char* layer, double inclusive_s, double self_s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  LayerTotals& totals = layers_[layer];
  totals.self_s += self_s;
  totals.inclusive_s += inclusive_s;
  ++totals.calls;
}

void LayerTrace::add_count(const char* name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  counts_[name] += value;
}

void LayerTrace::add_client_covered(double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  client_covered_s_ += seconds;
}

std::map<std::string, LayerTotals> LayerTrace::layers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return layers_;
}

std::map<std::string, double> LayerTrace::counts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

double LayerTrace::client_covered_s() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return client_covered_s_;
}

void LayerTrace::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  layers_.clear();
  counts_.clear();
  client_covered_s_ = 0.0;
}

void mark_client_thread() { t_is_client = true; }

void trace_count(const char* name, double value) {
  LayerTrace& trace = LayerTrace::instance();
  if (trace.enabled()) trace.add_count(name, value);
}

Span::Span(const char* layer) : layer_(layer), active_(LayerTrace::instance().enabled()) {
  if (!active_) return;
  t_child_walls.push_back(0.0);
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) return;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  const double self = wall - t_child_walls.back();
  t_child_walls.pop_back();
  LayerTrace& trace = LayerTrace::instance();
  trace.record(layer_, wall, self);
  if (!t_child_walls.empty()) {
    t_child_walls.back() += wall;
  } else if (t_is_client) {
    trace.add_client_covered(wall);
  }
}

}  // namespace perfbench
