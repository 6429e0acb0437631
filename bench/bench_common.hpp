#pragma once
// Shared helpers for the table/figure benches: effort presets, scaling
// via environment variables, table formatting, output directory.
//
// Environment knobs:
//   HIDAP_SCALE  -- fraction of the paper's cell counts to generate
//                   (default varies per bench; e.g. 0.03 for Table II)
//   HIDAP_FAST=1 -- slash SA effort for smoke runs
//   HIDAP_CIRCUITS=c1,c3 -- restrict the suite
//   HIDAP_THREADS=n -- lanes for the parallel suite driver (default:
//                   hardware concurrency; results are identical at any n)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "eval/flows.hpp"
#include "gen/suite.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace hidap::benchutil {

inline double env_scale(double fallback) {
  return env_double("HIDAP_SCALE", fallback, 1e-4, 100.0);
}

inline bool env_fast() {
  const char* s = std::getenv("HIDAP_FAST");
  return s && std::string(s) != "0";
}

inline std::vector<SuiteEntry> selected_suite(double scale) {
  std::vector<SuiteEntry> all = paper_suite(scale);
  const char* filter = std::getenv("HIDAP_CIRCUITS");
  if (!filter) return all;
  std::vector<SuiteEntry> out;
  const std::string list = filter;
  for (SuiteEntry& e : all) {
    if (list.find(e.spec.name) != std::string::npos) out.push_back(std::move(e));
  }
  return out.empty() ? all : out;
}

/// Bench-calibrated flow options: fast enough for the full suite while
/// preserving the relative comparison.
inline FlowOptions bench_flow_options(std::uint64_t seed = 1) {
  FlowOptions o;
  o.seed = seed;
  o.hidap.layout_anneal.moves_per_temperature = 160;
  o.hidap.layout_anneal.cooling = 0.85;
  o.hidap.layout_anneal.max_stagnant_temperatures = 5;
  o.hidap.shape_fp.anneal.moves_per_temperature = 80;
  o.hidap.shape_fp.anneal.cooling = 0.85;
  o.hidap.shape_fp.anneal.max_stagnant_temperatures = 4;
  // The commercial tool the paper compares against is wall-constrained
  // and not dataflow-aware; a low ring-order budget keeps the proxy
  // competent but blind, as the paper describes that tool.
  o.indeda_effort = 0.3;
  o.handfp_effort = 2.0;
  o.handfp_seeds = 2;
  o.eval.place.target_clusters = 0;  // auto: sized to the spreading grid
  o.eval.place.solver_iterations = 50;
  if (env_fast()) {
    o.hidap.layout_anneal.moves_per_temperature = 40;
    o.hidap.shape_fp.anneal.moves_per_temperature = 30;
    o.handfp_effort = 1.0;
    o.handfp_seeds = 1;
    o.eval.place.solver_iterations = 20;
  }
  return o;
}

/// Tracing knobs for suite benches: HIDAP_TRACE_JSON=path enables the
/// phase tracer for the whole run and exports a Chrome trace when
/// finish_suite_observability() runs; HIDAP_PHASE_SUMMARY=1 prints the
/// per-phase self-time table. Purely observability: suite results are
/// byte-identical either way.
inline void init_suite_observability() {
  if (std::getenv("HIDAP_TRACE_JSON") != nullptr ||
      (std::getenv("HIDAP_PHASE_SUMMARY") != nullptr &&
       std::string(std::getenv("HIDAP_PHASE_SUMMARY")) != "0")) {
    obs::set_tracing_enabled(true);
  }
}

inline void finish_suite_observability() {
  if (const char* path = std::getenv("HIDAP_TRACE_JSON")) {
    std::string error;
    if (obs::Tracer::instance().export_chrome_trace(path, &error)) {
      std::printf("wrote %s\n", path);
    } else {
      std::fprintf(stderr, "trace export failed: %s\n", error.c_str());
    }
  }
  const char* summary = std::getenv("HIDAP_PHASE_SUMMARY");
  if (summary != nullptr && std::string(summary) != "0") {
    std::fputs(obs::phase_summary().c_str(), stdout);
  }
}

/// Parallel suite driver: generates every circuit and runs the 3-flow
/// comparison, sharded across the global thread pool (circuits and the
/// sweeps inside each flow nest on the same pool). Results come back in
/// suite order and are bit-identical at any HIDAP_THREADS setting; only
/// the wall clock changes. Per-circuit progress goes through the
/// mutex-serialized util/log progress channel AND the process metric
/// registry (bench.circuits / bench.circuit_s), so suite walls are
/// machine-readable next to the human progress lines.
inline std::vector<FlowComparison> run_suite_flows(const std::vector<SuiteEntry>& suite,
                                                   const char* tag) {
  init_suite_observability();
  std::vector<FlowComparison> results(suite.size());
  obs::Histogram& circuit_wall = obs::default_registry().histogram(
      "bench.circuit_s", {1, 5, 15, 60, 300, 1800});
  obs::Counter& circuits_done = obs::default_registry().counter("bench.circuits");
  parallel_for(suite.size(), [&](std::size_t i) {
    const CircuitSpec& spec = suite[i].spec;
    log_progress("[%s] running %s (%d macros, %d cells)...", tag, spec.name.c_str(),
                 spec.macro_count, spec.target_cells);
    const obs::Phase circuit("circuit", "bench");
    const Design design = generate_circuit(spec);
    results[i] = compare_flows(design, bench_flow_options());
    const double seconds = circuit.seconds();
    circuit_wall.record(seconds);
    circuits_done.add(1);
    log_progress("[%s] %s done in %.1fs", tag, spec.name.c_str(), seconds);
  });
  finish_suite_observability();
  return results;
}

inline std::string out_dir() {
  std::filesystem::create_directories("out");
  return "out";
}

inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace hidap::benchutil
