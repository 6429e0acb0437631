#pragma once
// HiDaP configuration. Defaults follow the paper where it states values
// (min_area 40% / open_area 1% of area(nh), lambda in {0.2, 0.5, 0.8}).

#include <cstdint>
#include <vector>

#include "core/job.hpp"
#include "core/result.hpp"
#include "dataflow/seq_extract.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/area_floorplanner.hpp"

namespace hidap {

struct HiDaPOptions {
  // Dataflow affinity (sect. IV-D).
  double lambda = 0.5;  ///< block-flow vs macro-flow balance
  double k = 2.0;       ///< latency decay exponent in score(h, k)

  // Gseq extraction.
  SeqExtractOptions seq;

  // Hierarchical declustering (sect. IV-B): fractions of area(nh).
  double min_area_frac = 0.40;
  double open_area_frac = 0.01;

  // Layout generation SA (sect. IV-E).
  AnnealOptions layout_anneal;

  // Shape-curve generation SA (sect. IV-A).
  AreaFloorplanOptions shape_fp;

  // Macro flipping post-process: maximum improvement passes.
  int flipping_passes = 4;

  // Keep-out margin around every macro (um). Honored by shape curves,
  // corner snapping and the final legalization pass; standard industrial
  // knob for router/CTS access around memories.
  double macro_halo = 0.0;

  // Per-job state (seed, preplaced macros, cancellation/progress
  // handle), split out of the algorithm configuration above so a
  // long-lived session can share one HiDaPOptions and stamp a fresh
  // JobState per request. See core/job.hpp.
  JobState job;

  // Task-level parallelism (runtime/thread_pool.hpp): lambda/seed
  // sweeps, shape-curve generation, the flow comparison and the
  // recursion scheduler shard over the global pool. 0 = auto
  // (HIDAP_THREADS or hardware concurrency); 1 reproduces the
  // sequential behavior exactly. Results are bit-identical at any
  // setting.
  int num_threads = 0;

  // Hierarchical task-graph scheduler (Algorithm 2's recursion as pool
  // tasks): independent sibling subtrees anneal concurrently. Every
  // level's dataflow inference reads its parent's committed estimate
  // snapshot, so siblings are data-independent and placements are
  // bit-identical at any thread count; `false` runs the same recursion
  // as a plain sequential DFS (the differential oracle for the
  // scheduler).
  bool parallel_levels = true;

  /// Scales SA effort (moves per temperature, cooling) by a factor;
  /// benches use ~0.3-1, the handFP proxy ~3.
  void scale_effort(double factor);

  /// Paper's HiDaP flow runs lambda in {0.2, 0.5, 0.8} and keeps the best.
  static constexpr double kLambdaSweep[3] = {0.2, 0.5, 0.8};
};

}  // namespace hidap
