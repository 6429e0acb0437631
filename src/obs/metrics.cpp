#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace hidap::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

void Histogram::record(double value) {
  // Bucket i takes bounds[i-1] < value <= bounds[i]; the trailing bucket
  // is the overflow. lower_bound over a handful of doubles.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::read() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(buckets_.size());
  for (const std::atomic<std::uint64_t>& b : buckets_) {
    snap.counts.push_back(b.load(std::memory_order_relaxed));
    snap.count += snap.counts.back();
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::reset() {
  for (std::atomic<std::uint64_t>& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(std::string(name), bounds).first->second;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::flat_values() const {
  std::vector<std::pair<std::string, double>> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) {
    out.emplace_back(name, static_cast<double>(c.value()));
  }
  for (const auto& [name, g] : gauges_) {
    out.emplace_back(name, static_cast<double>(g.value()));
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot snap = h.read();
    out.emplace_back(name + ".count", static_cast<double>(snap.count));
    out.emplace_back(name + ".sum", snap.sum);
    for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
      char key[64];
      std::snprintf(key, sizeof(key), ".le_%g", snap.bounds[b]);
      out.emplace_back(name + key, static_cast<double>(snap.counts[b]));
    }
    out.emplace_back(name + ".overflow", static_cast<double>(snap.counts.back()));
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  // Metric names are generated in-library (dotted lowercase, no JSON
  // metacharacters), so plain quoting suffices; the output is one flat
  // object that service/json can parse back.
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : flat_values()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
  }
  out += '}';
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

MetricsRegistry& default_registry() {
  // Intentionally leaked: pool threads may flush metrics during static
  // teardown, after function-local statics would have been destroyed.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace hidap::obs
